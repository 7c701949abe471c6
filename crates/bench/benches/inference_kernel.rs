//! BENCH-KERNEL: the compiled scoring kernel vs the boxed per-row
//! battery, per block size.
//!
//! Trains the serving-scale 200-tree / 150-app configuration the
//! `BENCH_INFER` snapshot uses and scores it through `CompiledModel`,
//! whose tree-shaped models run the compiled mask-walk program of
//! `secml::kernel` (quantized thresholds, feature-subset pruning,
//! mask-propagation blocks; DESIGN.md §14). Before anything is timed,
//! the equality gate asserts reports *and* explanations are
//! bit-identical to the boxed per-row reference
//! (`TrainedModel::evaluate_features`, and the scalar per-row
//! attribution walk `explain_features`) at 1 and 4 workers.
//!
//! The headline `speedup` is boxed per-row battery scoring (every
//! model's `predict` per prepared row) ÷ `CompiledModel::score_battery`
//! over the whole prepared corpus. `blocks` times `score_battery` per
//! row when the corpus arrives in blocks of 1, 2, 8, 16 and 64 rows —
//! serve scores one or two rows a request, batch callers 64-row
//! blocks. `explain_kernel_ms` times `explain_batch` end to end. The
//! result prints as one `BENCH_KERNEL` JSON line (snapshot:
//! `results/BENCH_KERNEL.json`); CI fails the job if `speedup`
//! regresses more than 10% below the committed snapshot.
//!
//! `CLAIRVOYANT_BENCH_SMOKE=1` shrinks the corpus, forest and iteration
//! count to a CI-sized equality smoke test.

use bench::harness::{black_box, Criterion};
use bench::{criterion_group, criterion_main};
use clairvoyant::explain::Explanation;
use clairvoyant::prelude::*;
use clairvoyant::SecurityReport;

fn assert_reports_identical(a: &SecurityReport, b: &SecurityReport, context: &str) {
    assert_eq!(a.app, b.app, "{context}");
    assert_eq!(
        a.predicted_vulnerabilities.to_bits(),
        b.predicted_vulnerabilities.to_bits(),
        "{context}: predicted count diverged for {}",
        a.app
    );
    assert_eq!(a.hypotheses.len(), b.hypotheses.len(), "{context}");
    for ((h1, p1), (h2, p2)) in a.hypotheses.iter().zip(&b.hypotheses) {
        assert_eq!(h1, h2, "{context}");
        assert_eq!(
            p1.to_bits(),
            p2.to_bits(),
            "{context}: {h1} diverged for {}",
            a.app
        );
    }
    for ((s1, n1), (s2, n2)) in a.severity_counts.iter().zip(&b.severity_counts) {
        assert_eq!(s1, s2, "{context}");
        assert_eq!(n1.to_bits(), n2.to_bits(), "{context}: severity {}", a.app);
    }
    assert_eq!(
        a.risk_score().to_bits(),
        b.risk_score().to_bits(),
        "{context}: risk score diverged for {}",
        a.app
    );
}

fn assert_explanations_identical(a: &Explanation, b: &Explanation, context: &str) {
    assert_reports_identical(&a.report, &b.report, context);
    assert_eq!(a.features, b.features, "{context}");
    assert_eq!(a.models.len(), b.models.len(), "{context}");
    for (ma, mb) in a.models.iter().zip(&b.models) {
        assert_eq!(ma.target, mb.target, "{context}");
        assert_eq!(ma.baseline.to_bits(), mb.baseline.to_bits(), "{context}");
        assert_eq!(ma.score.to_bits(), mb.score.to_bits(), "{context}");
        assert_eq!(
            ma.prediction.to_bits(),
            mb.prediction.to_bits(),
            "{context}: {} prediction diverged for {}",
            ma.target,
            a.report.app
        );
        assert_eq!(ma.contributions.len(), mb.contributions.len(), "{context}");
        for (ca, cb) in ma.contributions.iter().zip(&mb.contributions) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{context}: {} attribution diverged for {}",
                ma.target,
                a.report.app
            );
        }
    }
}

/// Block sizes the per-row table times `score_battery` at.
const BLOCKS: [usize; 5] = [1, 2, 8, 16, 64];

fn bench_kernel(_c: &mut Criterion) {
    use std::time::Instant;
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let (n_apps, n_train, trees, iters) = if smoke {
        (24, 30, clairvoyant::train::DEFAULT_FOREST_TREES, 1)
    } else {
        (150, 150, 200, 20)
    };

    // Same battery and corpora as BENCH_INFER: train on one corpus,
    // score a disjoint one.
    let train_corpus = Corpus::generate(&CorpusConfig::small(n_train, 20170408));
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        forest_trees: trees,
        ..Default::default()
    })
    .train(&train_corpus);
    let kernel = model.compile();
    let kernels = kernel.optimize();
    assert!(kernels > 0, "battery must compile at least one kernel");

    let mut score_config = CorpusConfig::small(n_apps, 5);
    score_config.max_kloc = 2.0;
    let score_corpus = Corpus::generate(&score_config);
    let testbed = Testbed::new();
    let apps: Vec<(String, static_analysis::FeatureVector)> =
        pipeline::parallel_map(0, &score_corpus.apps, |_, app| {
            (app.spec.name.clone(), testbed.extract(&app.program))
        });

    // Equality gate before timing: reports and explanations from the
    // compiled kernels must reproduce the boxed per-row models (and the
    // scalar attribution walk) bit-for-bit, at 1 and 4 workers.
    let boxed: Vec<SecurityReport> = apps
        .iter()
        .map(|(name, fv)| model.evaluate_features(name.clone(), fv))
        .collect();
    let scalar: Vec<Explanation> = apps
        .iter()
        .map(|(name, fv)| kernel.explain_features(name.clone(), fv))
        .collect();
    for (jobs, context) in [(1usize, "1 worker"), (4, "4 workers")] {
        let reports = kernel.evaluate_batch(&apps, jobs);
        assert_eq!(reports.len(), boxed.len());
        for (want, got) in boxed.iter().zip(&reports) {
            assert_reports_identical(want, got, context);
        }
        let explained = kernel.explain_batch(&apps, jobs);
        for ((want, reference), got) in boxed.iter().zip(&scalar).zip(&explained) {
            assert_reports_identical(want, &got.report, context);
            assert_explanations_identical(reference, got, context);
        }
    }

    // Headline: boxed per-row battery scoring vs `score_battery` over
    // the same prepared rows — prep and report assembly are timed by
    // BENCH_INFER, not here.
    let rows: Vec<Vec<f64>> = apps.iter().map(|(_, fv)| model.prepare_row(fv)).collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        for row in &rows {
            black_box(model.all_hypotheses(row));
            black_box(model.predicted_count(row));
            black_box(model.predicted_severity_counts(row));
        }
    }
    let boxed_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let batch = kernel.prepare_batch(&apps, 1);
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(kernel.score_battery(&batch, 1).len());
    }
    let kernel_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    // Per-block-size table: the corpus scored `size` rows at a time.
    let boxed_us_per_row = boxed_ms * 1e3 / apps.len() as f64;
    let mut blocks = Vec::new();
    for size in BLOCKS {
        let batches: Vec<_> = apps
            .chunks(size)
            .map(|chunk| kernel.prepare_batch(chunk, 1))
            .collect();
        let t0 = Instant::now();
        for _ in 0..iters {
            for batch in &batches {
                black_box(kernel.score_battery(batch, 1).len());
            }
        }
        let us_per_row = t0.elapsed().as_secs_f64() * 1e6 / (iters * apps.len()) as f64;
        eprintln!(
            "  {size:>2}-row blocks: {us_per_row:.1} µs/row ({:.1}× boxed)",
            boxed_us_per_row / us_per_row.max(1e-9)
        );
        blocks.push(format!(
            "{{\"rows\":{size},\"kernel_us_per_row\":{us_per_row:.2},\"speedup\":{:.2}}}",
            boxed_us_per_row / us_per_row.max(1e-9)
        ));
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(kernel.explain_batch(&apps, 1).len());
    }
    let explain_kernel_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let speedup = boxed_ms / kernel_ms.max(1e-9);
    println!(
        "BENCH_KERNEL {{\"rows\":{},\"trees\":{trees},\"iters\":{iters},\"kernels\":{kernels},\
         \"boxed_ms\":{boxed_ms:.2},\"kernel_ms\":{kernel_ms:.2},\"speedup\":{speedup:.2},\
         \"boxed_us_per_row\":{boxed_us_per_row:.2},\"blocks\":[{}],\
         \"explain_kernel_ms\":{explain_kernel_ms:.2},\"reports_identical\":true}}",
        apps.len(),
        blocks.join(",")
    );
    eprintln!(
        "kernel: battery scoring {boxed_ms:.1} ms boxed → {kernel_ms:.1} ms ({speedup:.1}×), \
         explain {explain_kernel_ms:.1} ms over {} apps × {trees}-tree forests ({kernels} kernels)",
        apps.len()
    );
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
