//! BENCH-PERF (part 1): throughput of the testbed's analysis passes.
//!
//! §5.3 claims the metric "requires very little effort from the
//! developers" because analysis is automated; these benchmarks quantify
//! that: per-pass wall time over a representative synthesized application,
//! plus corpus-scale extraction through the pipeline engine (sequential
//! vs multi-worker vs warm cache), whose `PipelineReport` JSON prints as
//! `BENCH_PIPELINE` lines for tracking.

use bench::harness::{black_box, Criterion, Throughput};
use bench::{criterion_group, criterion_main};
use clairvoyant::prelude::*;

fn sample_program() -> minilang::ast::Program {
    let spec = corpus::AppSpec {
        name: "bench-app".into(),
        dialect: minilang::Dialect::C,
        domain: corpus::Domain::Server,
        target_kloc: 1.5,
        maturity: 0.5,
        review: 0.5,
        expertise: 0.5,
        first_release_year: 2004,
        seed: 99,
    };
    let seeds = vec![
        (cvedb::Cwe::StackBufferOverflow, true),
        (cvedb::Cwe::FormatString, false),
    ];
    corpus::synth::synthesize(&spec, &seeds).program
}

fn bench_passes(c: &mut Criterion) {
    let program = sample_program();
    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);

    group.bench_function("loc", |b| {
        b.iter(|| black_box(static_analysis::loc::count_program(&program)))
    });
    group.bench_function("cyclomatic", |b| {
        b.iter(|| black_box(static_analysis::cyclomatic::program_complexity(&program)))
    });
    group.bench_function("halstead", |b| {
        b.iter(|| black_box(static_analysis::halstead::program_halstead(&program)))
    });
    group.bench_function("counts", |b| {
        b.iter(|| black_box(static_analysis::counts::program_counts(&program)))
    });
    group.bench_function("callgraph", |b| {
        b.iter(|| black_box(static_analysis::callgraph::CallGraph::build(&program).stats()))
    });
    group.bench_function("taint", |b| {
        let cx = static_analysis::AnalysisContext::build(&program);
        b.iter(|| {
            black_box(
                static_analysis::taint::analyze_contexts(&program, &cx.functions)
                    .flows
                    .len(),
            )
        })
    });
    group.bench_function("smells", |b| {
        b.iter(|| {
            black_box(
                static_analysis::smells::detect(
                    &program,
                    &static_analysis::smells::Thresholds::default(),
                )
                .len(),
            )
        })
    });
    group.bench_function("bugfind_meta", |b| {
        let cx = static_analysis::AnalysisContext::build(&program);
        let tool = bugfind::MetaTool::new();
        b.iter(|| black_box(tool.run_ctx(&cx).total()))
    });
    group.bench_function("rasq", |b| {
        b.iter(|| black_box(attack_graph::AttackSurface::measure(&program).quotient))
    });
    group.bench_function("full_testbed", |b| {
        let testbed = clairvoyant::Testbed::new();
        b.iter(|| black_box(testbed.extract(&program).len()))
    });
    group.finish();
}

fn bench_parsing(c: &mut Criterion) {
    let spec = corpus::AppSpec {
        name: "parse-bench".into(),
        dialect: minilang::Dialect::C,
        domain: corpus::Domain::Server,
        target_kloc: 1.5,
        maturity: 0.5,
        review: 0.5,
        expertise: 0.5,
        first_release_year: 2004,
        seed: 7,
    };
    let out = corpus::synth::synthesize(&spec, &[]);
    let lines: usize = out.files.iter().map(|(_, s)| s.lines().count()).sum();
    let mut group = c.benchmark_group("frontend");
    group.sample_size(20);
    group.throughput(Throughput::Elements(lines as u64));
    group.bench_function("parse_program_lines", |b| {
        b.iter(|| {
            black_box(
                minilang::parse_program("p", minilang::Dialect::C, &out.files)
                    .expect("parses")
                    .function_count(),
            )
        })
    });
    group.finish();
}

/// Corpus-scale extraction through the pipeline engine. One timed run per
/// configuration (the batch itself is the repetition); each run's
/// `PipelineReport` prints as a `BENCH_PIPELINE` JSON line.
fn bench_pipeline(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig::small(16, 20177));
    let configs = [
        (
            "sequential",
            PipelineConfig::default().jobs(1).cache(CacheMode::Off),
        ),
        (
            "workers_4",
            PipelineConfig::default().jobs(4).cache(CacheMode::Off),
        ),
    ];
    let mut group = c.benchmark_group("pipeline_extract");
    group.sample_size(5);
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    for (name, config) in configs {
        let mut last_report = None;
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = extract_corpus(&corpus, config.clone());
                last_report = Some(out.report.clone());
                black_box(out.features.len())
            })
        });
        if let Some(report) = last_report {
            println!("BENCH_PIPELINE {}", report.to_json());
        }
    }
    // Warm cache: one engine reused, second batch served from memory.
    let mut engine = pipeline::Pipeline::new(Testbed::new());
    let apps: Vec<&corpus::GeneratedApp> = corpus.apps.iter().collect();
    clairvoyant::extract::extract_apps_with(&mut engine, apps.iter().copied());
    let mut last_report = None;
    group.bench_function("warm_cache", |b| {
        b.iter(|| {
            let out = clairvoyant::extract::extract_apps_with(&mut engine, apps.iter().copied());
            last_report = Some(out.report.clone());
            black_box(out.features.len())
        })
    });
    if let Some(report) = last_report {
        println!("BENCH_PIPELINE {}", report.to_json());
    }
    group.finish();
}

/// BENCH-PERF (part 2): the single-pass analysis engine over a
/// synthesized corpus. Before timing, every app's vector — with context
/// construction at 1 and at 4 per-function workers — must match the golden
/// vector the retired string-keyed extraction path recorded for it
/// (`tests/fixtures/legacy_vectors.tsv`) bit for bit. Prints a
/// `BENCH_ANALYSIS` JSON line (snapshot: `results/BENCH_ANALYSIS.json`).
///
/// `CLAIRVOYANT_BENCH_SMOKE=1` shrinks the corpus and iteration count to
/// a CI-sized golden smoke test.
fn bench_engine(_c: &mut Criterion) {
    use integration_tests::golden::{self, Golden};
    use std::time::Instant;
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let (n_apps, iters) = if smoke { (4, 1) } else { (12, 3) };
    let apps = golden::bench_corpus(n_apps);
    let fixture = Golden::load();
    let testbed = Testbed::new();
    let parallel_testbed = Testbed::new().with_fn_jobs(4);

    // Golden gate, at 1 and 4 per-function workers.
    if let Err(e) = fixture.check_inputs(&apps) {
        panic!("{e}");
    }
    for app in &apps {
        for (workers, tb) in [(1, &testbed), (4, &parallel_testbed)] {
            if let Err(e) = fixture.check(app, &tb.extract(&app.program)) {
                panic!("{workers} worker(s): {e}");
            }
        }
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        for app in &apps {
            black_box(testbed.extract(&app.program).len());
        }
    }
    let fused_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    println!(
        "BENCH_ANALYSIS {{\"programs\":{},\"iters\":{iters},\"fused_ms\":{:.1},\
         \"vectors_identical\":true}}",
        apps.len(),
        fused_ms
    );
    eprintln!(
        "analysis engine: {fused_ms:.0} ms over {} programs, golden vectors matched",
        apps.len()
    );
}

criterion_group!(
    benches,
    bench_passes,
    bench_parsing,
    bench_pipeline,
    bench_engine
);
criterion_main!(benches);
