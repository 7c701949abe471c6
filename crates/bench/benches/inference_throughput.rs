//! BENCH-INFER: batched inference engine vs the boxed per-row path.
//!
//! The §5.3 workflow scores whole corpora ("for any application"), so
//! serving throughput matters as much as training time. This bench trains
//! a serving-scale random-forest battery (200 trees per forest — the
//! regime where the boxed trees' pointer-chasing working set falls out of
//! cache), compiles it
//! ([`TrainedModel::compile`](clairvoyant::TrainedModel)), and races the
//! boxed per-row reference path (`TrainedModel::evaluate_features`, one
//! pointer-chasing tree walk per row per model) against
//! [`CompiledModel::evaluate_batch`](clairvoyant::CompiledModel)
//! (flattened node tables, compiled mask-walk kernels, pool fan-out)
//! over a 150-app corpus. Reports are asserted bit-identical at 1 and 4
//! workers before anything is timed, and the result prints as one
//! `BENCH_INFER` JSON line (snapshot: `results/BENCH_INFER.json`);
//! `speedup` compares the boxed path against the best batched worker
//! count, so single-core machines are not penalized for thread overhead.
//!
//! `CLAIRVOYANT_BENCH_SMOKE=1` shrinks the corpus, forest and iteration
//! count to a CI-sized equality smoke test.

use bench::harness::{black_box, Criterion};
use bench::{criterion_group, criterion_main};
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

fn bench_inference(_c: &mut Criterion) {
    use std::time::Instant;
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let (n_apps, n_train, trees, iters) = if smoke {
        (24, 30, clairvoyant::train::DEFAULT_FOREST_TREES, 1)
    } else {
        (150, 150, 200, 20)
    };

    // Train the forest battery on its own corpus, then score a disjoint
    // one — serving and training sets need not match.
    let train_corpus = Corpus::generate(&CorpusConfig::small(n_train, 20170408));
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        forest_trees: trees,
        ..Default::default()
    })
    .train(&train_corpus);
    let compiled = model.compile();

    let mut score_config = CorpusConfig::small(n_apps, 5);
    score_config.max_kloc = 2.0;
    let score_corpus = Corpus::generate(&score_config);
    let testbed = Testbed::new();
    let apps: Vec<(String, static_analysis::FeatureVector)> =
        pipeline::parallel_map(0, &score_corpus.apps, |_, app| {
            (app.spec.name.clone(), testbed.extract(&app.program))
        });

    // Equality gate before timing: the batched engine must reproduce the
    // boxed reference reports bit-for-bit, at 1 and 4 workers.
    let boxed_reports: Vec<SecurityReport> = apps
        .iter()
        .map(|(name, fv)| model.evaluate_features(name.clone(), fv))
        .collect();
    for (jobs, context) in [(1, "1 worker"), (4, "4 workers")] {
        let batched = compiled.evaluate_batch(&apps, jobs);
        assert_eq!(batched.len(), boxed_reports.len());
        for (a, b) in boxed_reports.iter().zip(&batched) {
            assert_reports_identical(a, b, context);
        }
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        for (name, fv) in &apps {
            black_box(model.evaluate_features(name.clone(), fv).hypotheses.len());
        }
    }
    let boxed_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 1).len());
    }
    let batched_1w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 4).len());
    }
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let speedup = boxed_ms / batched_1w_ms.min(batched_ms).max(1e-9);
    println!(
        "BENCH_INFER {{\"rows\":{},\"trees\":{trees},\"iters\":{iters},\"boxed_ms\":{:.2},\
         \"batched_1w_ms\":{:.2},\"batched_4w_ms\":{:.2},\"speedup\":{:.2},\
         \"reports_identical\":true}}",
        apps.len(),
        boxed_ms,
        batched_1w_ms,
        batched_ms,
        speedup
    );
    eprintln!(
        "inference engine: boxed {boxed_ms:.1} ms, batched {batched_1w_ms:.1} ms (1w) / \
         {batched_ms:.1} ms (4w), speedup {speedup:.1}× over {} apps × {trees}-tree forests",
        apps.len()
    );
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
