//! The batch workload: `clairvoyant::longitudinal::replay` over a seeded
//! population, out of core, with its deploy hook hot-reloading a live
//! daemon that answers the request mix after every deploy.
//!
//! Epoch 0 streams every app from synthesis to a training row
//! (`apps_per_s`); each later epoch re-extracts the churned apps, retrains,
//! compiles, writes CLVY and redeploys (`redeploy_s`); every reply after
//! every deploy is checked. Afterwards the deployed model is served by a
//! fresh daemon, whose closed-loop latency is `p50_ms`.

use crate::calib::batch_plan;
use crate::daemon::Daemon;
use crate::inputs::{edit_one_function, Rng};
use crate::load::Reply;
use crate::model::load_served;
use crate::report::Report;
use crate::serve_wl::{self, FEATURE_APPS};
use crate::trace::{check_registry_part, emit, extract_traced, is_extraction, Tracer};
use crate::traffic::Features;
use crate::util::{cores, cpu_seconds, cpu_ticks, mean, median, peak_rss_mb, steal_share};
use clairvoyant::explain::rank_hotspots_cx;
use clairvoyant::longitudinal::{replay, LongitudinalConfig, LongitudinalReport};
use clairvoyant::prelude::*;
use clairvoyant::IncrementalTestbed;
use corpus::{LongitudinalStream, StreamConfig};
use cvedb::CveDatabase;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Apps of the population the traced run replays through the layers.
const TRACE_APPS: usize = 48;
/// Apps of the population replayed both out of core and in RAM for the
/// equality gate.
const TWIN_APPS: usize = 64;
/// Set-up is timed this many times at each of three points of the run
/// (start, between the replays, end); `setup_s` is the median of all. The
/// machine's speed drifts within a run, so samples spread over it.
const SETUPS: usize = 5;
/// Apps a set-up extracts: a fixed slice, so one sample is not a single
/// app's few milliseconds.
const SETUP_APPS: usize = 8;
/// Population seed of the set-up apps: fixed, so `setup_s` times the same
/// work for every workload seed.
const SETUP_SEED: u64 = 1;
/// Replays per run; `apps_per_s`, `redeploy_s` and `retrain_s` are the
/// medians over them. The machine's speed drifts over tens of seconds,
/// so replays spread over the run see more of it than one long replay.
const REPLAYS: usize = 3;
/// Share of `--seconds` for the deployed model's latency phase.
const LATENCY_SHARE: f64 = 0.35;

fn stream_config(seed: u64, apps: usize) -> StreamConfig {
    StreamConfig {
        apps,
        seed: seed.wrapping_mul(0x9e37_79b9) ^ 0xba7c,
        ..StreamConfig::default()
    }
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        top_k_features: Some(24),
        ..Default::default()
    }
}

fn replay_config(
    stream: &StreamConfig,
    epochs: usize,
    dir: &Path,
    out_of_core: bool,
) -> LongitudinalConfig {
    LongitudinalConfig {
        stream: stream.clone(),
        epochs,
        trainer: trainer_config(),
        work_dir: dir.to_path_buf(),
        out_of_core,
        ..Default::default()
    }
}

/// Set-up, as the replay's own loop meets it: the population stream and
/// the incremental engine are created and the first apps are synthesized
/// and extracted. Timed `SETUPS` times from fresh state on the same apps.
fn setup_times(apps: usize, into: &mut Vec<f64>) {
    let config = stream_config(SETUP_SEED, apps.max(SETUP_APPS));
    for _ in 0..SETUPS {
        let t = Instant::now();
        let population = LongitudinalStream::new(config.clone());
        let mut engine = IncrementalTestbed::new();
        for i in 0..SETUP_APPS {
            let (app, _) = population.materialize(i, 0);
            black_box(engine.extract_stats(&app.program));
        }
        into.push(t.elapsed().as_secs_f64());
    }
}

/// One replay of the population, with its deploy-to-deploy wall times.
struct Replayed {
    report: LongitudinalReport,
    epoch_walls: Vec<f64>,
    wall: f64,
    cpu: f64,
    /// Share of the machine's CPU time the hypervisor stole during it.
    steal: f64,
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let plan = batch_plan();
    let apps = ((plan.apps_per_run_second * seconds).round() as usize).max(24);
    report.info_str("rationale", &plan.rationale);
    report.info_num("apps", apps as f64);
    report.info_num("epochs", plan.epochs as f64);
    let stream = stream_config(seed, apps);
    let mut setups = Vec::new();
    setup_times(apps, &mut setups);

    // The replay runs `REPLAYS` times on the same population; each
    // replay's figures are taken and their medians reported. The deploy
    // hook starts the daemon at the first deploy and hot-reloads it at
    // every later one; after each deploy it sends every distinct request
    // once, one at a time, and keeps the replies for the gate below. That
    // traffic's time is taken out of the epoch's wall time: it checks the
    // deploy, it is not part of it.
    let mut rng = Rng::new(seed);
    let mut traffic = Features::new(seed, 0xb6, FEATURE_APPS);
    let mut daemon: Option<Daemon> = None;
    let mut deploy_replies: Vec<Vec<Reply>> = Vec::new();
    let mut runs: Vec<Replayed> = Vec::new();
    for k in 0..REPLAYS {
        let mut epoch_walls: Vec<f64> = Vec::new();
        let cpu0 = cpu_seconds(None);
        let ticks0 = cpu_ticks();
        let t0 = Instant::now();
        let mut last_deploy = 0.0;
        let report = replay(
            &replay_config(&stream, plan.epochs, &work.join(format!("ooc-{k}")), true),
            |epoch, path| {
                match &daemon {
                    None => daemon = Some(Daemon::spawn(path)?),
                    Some(live) => {
                        let response = live.client()?.reload(Some(&path.to_string_lossy()))?;
                        if !serve::client::is_ok(&response) {
                            return Err(format!("redeploy of epoch {epoch} refused: {response}"));
                        }
                    }
                }
                let deployed = t0.elapsed().as_secs_f64();
                let live = daemon.as_ref().expect("started above");
                deploy_replies.push(traffic.sequential(&mut live.client()?)?);
                if epoch > 0 {
                    epoch_walls.push(deployed - last_deploy);
                }
                last_deploy = t0.elapsed().as_secs_f64();
                Ok(())
            },
        )
        .map_err(|e| format!("replay failed: {e}"))?;
        runs.push(Replayed {
            wall: t0.elapsed().as_secs_f64(),
            cpu: cpu_seconds(None) - cpu0,
            steal: steal_share(ticks0, cpu_ticks()),
            epoch_walls,
            report,
        });
        if k + 1 == REPLAYS.div_ceil(2) {
            setup_times(apps, &mut setups);
        }
    }
    let peak_rss = peak_rss_mb(None);
    let daemon = daemon.ok_or("the replay deployed no model")?;
    let replayed = &runs.last().expect("at least one replay").report;
    for run in &runs {
        if run.report.drift_json() != replayed.drift_json() {
            return Err("gate: two replays of the same population differ".into());
        }
    }

    // Gate: every reply after every deploy (of every replay: they are
    // equal) equals the offline rendering under the model that served it,
    // and that model is one the replay deployed.
    let mut by_model: BTreeMap<String, Vec<[u64; 3]>> = BTreeMap::new();
    for e in &replayed.epochs {
        let served = load_served(&e.model_path)?;
        if served.fingerprint != e.fingerprint {
            return Err(format!(
                "gate: epoch {} fingerprint differs from its CLVY file",
                e.epoch
            ));
        }
        traffic.retarget(&served);
        by_model.insert(served.fingerprint.clone(), traffic.expected().to_vec());
    }
    let mut checked = 0;
    for r in deploy_replies.iter().flatten() {
        let expected = r.model.as_ref().and_then(|fp| by_model.get(fp));
        let (i, op) = Features::decode(r.tag);
        if !r.ok || expected.map(|e| e[i][op]) != Some(r.hash) {
            return Err(format!(
                "gate: reply {} after a deploy is not the offline rendering of a deployed model ({:?})",
                r.tag, r.error
            ));
        }
        checked += 1;
    }

    // Gate: a slice of the same population replayed out of core and in
    // RAM gives byte-identical models every epoch.
    let twin = StreamConfig {
        apps: TWIN_APPS.min(apps),
        ..stream.clone()
    };
    let spilled = replay(
        &replay_config(&twin, plan.epochs, &work.join("twin-ooc"), true),
        |_, _| Ok(()),
    )
    .map_err(|e| format!("out-of-core twin replay failed: {e}"))?;
    let in_ram = replay(
        &replay_config(&twin, plan.epochs, &work.join("twin-ram"), false),
        |_, _| Ok(()),
    )
    .map_err(|e| format!("in-RAM twin replay failed: {e}"))?;
    if in_ram.drift_json() != spilled.drift_json() {
        return Err("gate: out-of-core replay models differ from the in-RAM replay's".into());
    }

    // The deployed model as users meet it, on a daemon started from its
    // file (no state left from the replay).
    daemon.shutdown()?;
    let last = replayed.epochs.last().expect("at least one epoch");
    traffic.retarget(&load_served(&last.model_path)?);
    let daemon = Daemon::spawn(&last.model_path)?;
    let (latency_outcome, latency) =
        serve_wl::latency(&daemon, &traffic, &mut rng, seconds * LATENCY_SHARE, report)?;
    daemon.shutdown()?;
    setup_times(apps, &mut setups);

    report.attempted = checked + latency_outcome.sent();
    report.failed = latency_outcome.failures();
    report.info_num("replays", REPLAYS as f64);
    report.info("setup_samples_s", format!("{setups:?}"));
    let per_run = |f: &dyn Fn(&Replayed) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    // Epoch 0: every app from synthesis to a training row.
    let apps_per_s = per_run(&|r| {
        let e0 = &r.report.epochs[0];
        e0.apps_changed as f64 / (e0.extract_ms.max(1) as f64 / 1e3)
    });
    let redeploys = per_run(&|r| mean(&r.epoch_walls));
    let retrains = per_run(&|r| {
        mean(
            &r.report
                .epochs
                .iter()
                .map(|e| e.retrain_ms as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    });
    report.info("apps_per_s_samples", format!("{apps_per_s:?}"));
    report.info("redeploy_samples_s", format!("{redeploys:?}"));
    report.info("retrain_samples_s", format!("{retrains:?}"));
    report.info("replay_walls_s", format!("{:?}", per_run(&|r| r.wall)));
    report.info(
        "replay_steal_shares",
        format!("{:?}", per_run(&|r| r.steal)),
    );
    report.info_num("deploy_replies_checked", checked as f64);
    report.info("drift", replayed.drift_json());

    if !trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("p50_ms", latency.p50_ms, "ms");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("apps_per_s", median(&apps_per_s), "apps/s");
        report.metric("redeploy_s", median(&redeploys), "s");
        report.metric("retrain_s", median(&retrains), "s");
        return Ok(());
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let epochs = replayed.epochs.len() as f64;
    values.insert(
        "replay.extract_ms",
        replayed
            .epochs
            .iter()
            .map(|e| e.extract_ms as f64)
            .sum::<f64>()
            / epochs,
    );
    values.insert(
        "replay.retrain_ms",
        replayed
            .epochs
            .iter()
            .map(|e| e.retrain_ms as f64)
            .sum::<f64>()
            / epochs,
    );
    let (hits, misses) = replayed.epochs[1..].iter().fold((0u64, 0u64), |(h, m), e| {
        (h + e.fn_cache_hits, m + e.fn_cache_misses)
    });
    values.insert(
        "replay.fn_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let (cpu, wall) = runs
        .iter()
        .fold((0.0, 0.0), |(c, w), r| (c + r.cpu, w + r.wall));
    values.insert("batch.cpu_util", cpu / (wall * cores() as f64));
    trace_subset(&stream, plan.epochs, work, &mut values, report)?;
    emit(&values, report);
    Ok(())
}

/// What the incremental engine did over the traced edits.
#[derive(Default)]
struct Edits {
    calls: usize,
    hits: u64,
    misses: u64,
    rebuilt: u64,
    resident: usize,
}

/// Traced run: the population's first apps through synthesis and each
/// extraction layer (epoch 0, with hotspot ranking on the built context),
/// then every later epoch's churned apps through the incremental engine
/// the epoch-0 versions warmed, as the replay re-extracts them, then one
/// function edit of each app through the same engine; then streaming
/// training, compile and CLVY decode on the epoch-0 rows.
fn trace_subset(
    stream: &StreamConfig,
    epochs: usize,
    work: &Path,
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) -> Result<(), String> {
    let population = LongitudinalStream::new(stream.clone());
    let n = TRACE_APPS.min(stream.apps);
    let registry = static_analysis::standard_registry();
    let metatool = bugfind::MetaTool::new();
    let testbed = Testbed::new();
    let cutoff = population.cutoff_year(0);
    let mut walls = [0.0; 2];
    let mut traced = Tracer::new(true);
    let mut parsed_bytes = 0;
    let mut churned = 0;
    let mut edits = Edits::default();
    let mut db = CveDatabase::new();
    let mut rows_of: BTreeMap<String, static_analysis::FeatureVector> = BTreeMap::new();
    // Untraced twice, then traced: the first pass only warms caches and
    // the allocator, and its wall time is overwritten by the second's.
    for enabled in [false, false, true] {
        let mut tr = Tracer::new(enabled);
        let mut engine = IncrementalTestbed::new();
        parsed_bytes = 0;
        churned = 0;
        edits = Edits::default();
        for i in 0..n {
            let (app, records, part) = tr.span("request", |tr| {
                let (app, records) = tr.span("corpus.gen", |_| population.materialize(i, 0));
                parsed_bytes += app.files.iter().map(|(_, text)| text.len()).sum::<usize>();
                // Synthesis parses its own output; the parser is timed
                // again on the same files as a layer of its own.
                tr.span("parse", |_| {
                    black_box(minilang::parse_program(
                        &app.spec.name,
                        app.spec.dialect,
                        &app.files,
                    ))
                    .expect("synthesized source parses")
                });
                let (part, cx) = extract_traced(tr, &app.program, &registry, &metatool);
                tr.span("explain.hotspots", |_| black_box(rank_hotspots_cx(&cx, 5)));
                drop(cx);
                (app, records, part)
            });
            // Untimed: warm the engine with the epoch-0 version, as the
            // replay's first epoch does; check the traced layers and the
            // engine against a scratch extraction.
            let (warmed, _) = engine.extract_stats(&app.program);
            if enabled {
                let scratch = testbed.extract(&app.program);
                check_registry_part(&part, &scratch, &app.spec.name)?;
                if warmed != scratch {
                    return Err(format!(
                        "gate: incremental features of {} differ from Testbed::extract",
                        app.spec.name
                    ));
                }
                for r in records.into_iter().filter(|r| r.published.year <= cutoff) {
                    db.insert(r);
                }
                rows_of.insert(app.spec.name.clone(), scratch);
            }
        }
        // Later epochs: the churned apps, re-extracted through the engine
        // as the replay does.
        for epoch in 1..epochs {
            for i in (0..n).filter(|&i| population.changed_in(i, epoch)) {
                let (program, fv) = tr.span("request", |tr| {
                    let (app, _) = tr.span("corpus.gen", |_| population.materialize(i, epoch));
                    let (fv, _) = tr.span("incr.churn", |_| engine.extract_stats(&app.program));
                    (app.program, fv)
                });
                churned += 1;
                if enabled && fv != testbed.extract(&program) {
                    return Err(format!(
                        "gate: incremental re-extraction of app {i} at epoch {epoch} differs from Testbed::extract"
                    ));
                }
            }
        }
        // Then one seeded function edit of each app's latest version: the
        // edit-and-gate loop the engine's store exists for.
        let mut rng = Rng::new(stream.seed ^ 0xed17);
        for i in 0..n {
            let (app, _) = population.materialize(i, population.last_changed(i, epochs - 1));
            let files = edit_one_function(&app.files, &mut rng);
            let edited = minilang::parse_program(&app.spec.name, app.spec.dialect, &files)
                .map_err(|e| format!("edited source does not parse: {e:?}"))?;
            let (fv, stats) = tr.span("request", |tr| {
                tr.span("incr.extract", |_| engine.extract_stats(&edited))
            });
            edits.calls += 1;
            edits.hits += stats.hits;
            edits.misses += stats.misses;
            edits.rebuilt += stats.rebuilt;
            if enabled && fv != testbed.extract(&edited) {
                return Err(format!(
                    "gate: incremental extraction of edited app {i} differs from Testbed::extract"
                ));
            }
        }
        edits.resident = engine.resident_entries();
        walls[usize::from(enabled)] = tr.wall_s;
        if enabled {
            traced = tr;
        }
    }
    let selfs = traced.self_times();
    if let Some((parse_s, _)) = selfs.get("parse") {
        values.insert(
            "parse.mb_per_s",
            parsed_bytes as f64 / 1e6 / parse_s.max(1e-9),
        );
    }
    let per_app = |name: &str| selfs.get(name).map_or(0.0, |s| s.0) / n as f64 * 1e3;
    for (key, name) in [
        ("parse.ms", "parse"),
        ("context.intern.ms", "context.intern"),
        ("context.structure.ms", "context.structure"),
        ("context.payload.ms", "context.payload"),
        ("context.taint.ms", "context.taint"),
        ("collectors.smells.ms", "collectors.smells"),
        ("collectors.halstead.ms", "collectors.halstead"),
        ("collectors.loc.ms", "collectors.loc"),
        ("collectors.callgraph.ms", "collectors.callgraph"),
        ("bugfind.ms", "bugfind"),
        ("attackgraph.ms", "attackgraph"),
        ("explain.hotspots.ms", "explain.hotspots"),
    ] {
        values.insert(key, per_app(name));
    }
    let per_call_ms = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |s| s.0 / s.1.max(1) as f64 * 1e3)
    };
    values.insert("corpus.gen.ms", per_call_ms("corpus.gen"));
    values.insert("incr.extract.ms", per_call_ms("incr.extract"));
    values.insert("incr.churn.ms", per_call_ms("incr.churn"));
    values.insert(
        "incr.hit_ratio",
        edits.hits as f64 / (edits.hits + edits.misses).max(1) as f64,
    );
    values.insert(
        "incr.rebuilt_fns_per_req",
        edits.rebuilt as f64 / edits.calls.max(1) as f64,
    );
    values.insert("incr.resident_entries", edits.resident as f64);
    let collectors: f64 = selfs
        .iter()
        .filter(|(k, _)| k.starts_with("collectors"))
        .map(|(_, s)| s.0)
        .sum();
    values.insert("collectors.ms", collectors / n as f64 * 1e3);
    let layered: f64 = selfs
        .iter()
        .filter(|(k, _)| k.as_str() != "request")
        .map(|(_, s)| s.0)
        .sum();
    let extraction: f64 = selfs
        .iter()
        .filter(|(k, _)| is_extraction(k))
        .map(|(_, s)| s.0)
        .sum();
    values.insert(
        "trace.requests",
        selfs.get("request").map_or(0, |s| s.1) as f64,
    );
    values.insert("trace.self_coverage", layered / walls[1].max(1e-9));
    values.insert("trace.overhead_ratio", walls[1] / walls[0].max(1e-9) - 1.0);
    values.insert("extract.share", extraction / walls[1].max(1e-9));
    report.info_num("trace_churned_apps", churned as f64);

    // Streaming training on these apps' rows, spilled and in RAM.
    let trainer = Trainer::with_config(trainer_config());
    let histories = db.select(&trainer.config.selection);
    let mut purpose = true;
    if !histories.is_empty() {
        let mut schema: Vec<String> = rows_of
            .values()
            .next()
            .map(|fv| fv.iter().map(|(k, _)| k.to_string()).collect())
            .unwrap_or_default();
        schema.sort();
        let rows = || {
            histories.iter().map(|h| {
                let mut dense = Vec::new();
                rows_of[h.app.as_str()].fill_dense(&schema, &mut dense);
                dense
            })
        };
        let spill = work.join("trace-spill");
        let t = Instant::now();
        let model = trainer
            .train_streaming(&schema, rows(), &histories, Some(&spill))
            .map_err(|e| format!("streaming training failed: {e}"))?;
        values.insert("train.streaming_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let compiled = model.compile();
        values.insert("train.compile_ms", t.elapsed().as_secs_f64() * 1e3);
        values.insert("train.rows", histories.len() as f64);
        let bytes = compiled.to_bytes();
        let in_ram = trainer
            .train_streaming(&schema, rows(), &histories, None)
            .map_err(|e| format!("in-RAM training failed: {e}"))?
            .compile()
            .to_bytes();
        purpose = in_ram == bytes;
        let t = Instant::now();
        let decoded = CompiledModel::from_bytes(&bytes)?;
        values.insert("clvy.decode_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        decoded.optimize();
        values.insert("clvy.optimize_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    // Purpose: streamed and in-RAM training agree, and one-function edits
    // are served from the engine's store.
    let purpose = purpose && values["incr.hit_ratio"] >= 0.9;
    values.insert("purpose.ok", f64::from(u8::from(purpose)));
    report.info("purpose_confirmed", purpose.to_string());
    report.info_num("trace_untraced_wall_s", walls[0]);
    report.info_num("trace_traced_wall_s", walls[1]);
    Ok(())
}
