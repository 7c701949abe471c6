//! The traced run: a workload's inputs replayed offline through each
//! layer's public functions, wrapped in spans this file records.
//!
//! A span has a name, a start, an end and a parent; spans stay in memory
//! until the replay ends. A layer's self time is its span's duration
//! minus the time its child spans cover. The same replay also runs with
//! the tracer off, and the difference of the two wall times is the
//! tracing overhead.

use crate::model::Served;
use crate::report::Report;
use crate::serve_wl::ServeRun;
use crate::traffic::Features;
use crate::util::{median, tail_percentile};
use attack_graph::{interaction_facts, AttackGraph, AttackSurface};
use bugfind::MetaTool;
use clairvoyant::report::{comparison_value, explanation_value, write_security_report};
use clairvoyant::{Comparison, CompiledModel};
use minilang::ast::Program;
use serve::protocol::Request;
use static_analysis::context::{standard_path_config, FnStructure, ProgramSymbols};
use static_analysis::{taint, AnalysisContext, FeatureVector, Registry};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; a layer the workload does not exercise reads 0 (extraction on
/// `serve_features`; serving internals on `batch_replay`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("parse.ms", "ms"),
    ("parse.mb_per_s", "MB/s"),
    ("context.intern.ms", "ms"),
    ("context.structure.ms", "ms"),
    ("context.payload.ms", "ms"),
    ("context.taint.ms", "ms"),
    ("collectors.ms", "ms"),
    ("collectors.smells.ms", "ms"),
    ("collectors.halstead.ms", "ms"),
    ("collectors.loc.ms", "ms"),
    ("collectors.callgraph.ms", "ms"),
    ("bugfind.ms", "ms"),
    ("attackgraph.ms", "ms"),
    ("incr.extract.ms", "ms"),
    ("incr.churn.ms", "ms"),
    ("incr.hit_ratio", "ratio"),
    ("incr.rebuilt_fns_per_req", "count"),
    ("incr.resident_entries", "count"),
    ("score.prep.us_per_row.b1", "us"),
    ("score.kernel.us_per_row.b1", "us"),
    ("score.assemble.us_per_row.b1", "us"),
    ("score.prep.us_per_row.bmean", "us"),
    ("score.kernel.us_per_row.bmean", "us"),
    ("score.assemble.us_per_row.bmean", "us"),
    ("score.block_mean", "count"),
    ("explain.attrib.us_per_row", "us"),
    ("explain.hotspots.ms", "ms"),
    ("compare.ms", "ms"),
    ("report.render.us", "us"),
    ("wire.parse.us", "us"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.batch_rows_mean", "count"),
    ("serve.wakeups_per_req", "count"),
    ("serve.busy_ratio", "ratio"),
    ("serve.request_kb_mean", "KB"),
    ("gen.lag_p99_ms", "ms"),
    ("corpus.gen.ms", "ms"),
    ("train.streaming_s", "s"),
    ("train.compile_ms", "ms"),
    ("train.rows", "count"),
    ("clvy.decode_ms", "ms"),
    ("clvy.optimize_ms", "ms"),
    ("replay.extract_ms", "ms"),
    ("replay.retrain_ms", "ms"),
    ("replay.fn_cache_hit_ratio", "ratio"),
    ("batch.cpu_util", "ratio"),
    ("extract.share", "ratio"),
    ("trace.requests", "count"),
    ("trace.self_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("purpose.ok", "bool"),
];

/// Emit every per-layer metric, 0 where `values` has none.
pub fn emit(values: &BTreeMap<&'static str, f64>, report: &mut Report) {
    report.metrics.clear();
    for (name, unit) in LAYER_METRICS {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Span recorder. Disabled, it only runs the closures (the untraced twin
/// the overhead is measured against).
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Summed wall time of top-level spans, kept with tracing on or off:
    /// the traced and untraced replays are compared on it.
    pub wall_s: f64,
    depth: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            wall_s: 0.0,
            depth: 0,
        }
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if self.depth == 0 {
            let t = Instant::now();
            self.depth += 1;
            let result = self.record(name, f);
            self.depth -= 1;
            self.wall_s += t.elapsed().as_secs_f64();
            return result;
        }
        self.record(name, f)
    }

    fn record<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        self.spans[id].end = Instant::now();
        result
    }

    /// Children the callee timed itself (run in order from `start`), as
    /// spans under the current span.
    fn children(&mut self, start: Instant, timed: &[(String, u64)]) {
        if !self.enabled {
            return;
        }
        let mut at = start;
        for (name, micros) in timed {
            let end = at + std::time::Duration::from_micros(*micros);
            self.spans.push(Span {
                name: name.clone(),
                start: at,
                end,
                parent: self.stack.last().copied(),
            });
            at = end;
        }
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Per name: (self seconds, span count). Self time is a span's
    /// duration minus its children's; children run inside their parent,
    /// one after another, so they never overlap.
    pub fn self_times(&self) -> BTreeMap<String, (f64, usize)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = ((s.end - s.start).as_secs_f64() - child_time[i]).max(0.0);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }
}

/// The testbed's layers over one parsed program, each in its own span.
/// Returns the registry part of the feature vector (checked against the
/// production extraction) and the context for hotspot ranking.
pub(crate) fn extract_traced<'p>(
    tr: &mut Tracer,
    program: &'p Program,
    registry: &Registry,
    metatool: &MetaTool,
) -> (FeatureVector, AnalysisContext<'p>) {
    let cx = tr.span("context", |tr| {
        let symbols = tr.span("context.intern", |_| ProgramSymbols::intern(program));
        let config = standard_path_config();
        let functions = program
            .functions()
            .map(|f| {
                let structure = tr.span("context.structure", |_| FnStructure::build(f, &symbols));
                let payload = tr.span("context.payload", |_| structure.compute_payload(&config));
                structure.assemble(payload)
            })
            .collect::<Vec<_>>();
        let taint = tr.span("context.taint", |_| {
            taint::analyze_contexts(program, &functions)
        });
        AnalysisContext::assemble(program, symbols, functions, taint)
    });
    let fv = tr.span("collectors", |tr| {
        let start = Instant::now();
        let (fv, timed) = registry.run_with_timings(&cx);
        let named: Vec<(String, u64)> = timed
            .into_iter()
            .map(|(name, us)| (format!("collectors.{name}"), us))
            .collect();
        tr.children(start, &named);
        fv
    });
    tr.span("bugfind", |_| black_box(metatool.run_ctx(&cx)));
    tr.span("attackgraph", |_| {
        let surface = AttackSurface::measure(program);
        let vulnerable: Vec<String> = cx
            .taint
            .flows
            .iter()
            .filter(|f| f.via_parameters)
            .map(|f| f.function.clone())
            .collect();
        let graph = AttackGraph::from_facts(interaction_facts(program, &vulnerable));
        black_box((surface.quotient, graph.metrics()))
    });
    (fv, cx)
}

/// Every registry feature the traced layers produced must equal the
/// production extraction's value: the traced path is the served path.
pub(crate) fn check_registry_part(
    part: &FeatureVector,
    full: &FeatureVector,
    name: &str,
) -> Result<(), String> {
    for (k, v) in part.iter() {
        if full.get(k) != Some(v) {
            return Err(format!(
                "gate: traced collectors disagree with Testbed::extract on `{k}` of {name}"
            ));
        }
    }
    Ok(())
}

fn render_score(served: &Served, name: &str, fv: &FeatureVector, tr: &mut Tracer) -> usize {
    let report = tr.span("score", |_| {
        served
            .compiled
            .evaluate_batch(&[(name.to_string(), fv.clone())], 1)
            .pop()
            .expect("one report")
    });
    tr.span("report.render", |_| {
        let mut text = String::with_capacity(4096);
        write_security_report(&report, &mut text).expect("String write");
        black_box(text.len())
    })
}

/// Prep, kernel and assembly cost per row at block size `block`:
/// `prepare_batch`, `score_battery`, and the rest of `evaluate_batch`
/// (its time minus the other two). Each is the median over repeated
/// passes through the rows; assembly below the timer's resolution reads 0.
fn score_stages(model: &CompiledModel, rows: &[(String, FeatureVector)], block: usize) -> [f64; 3] {
    let block = block.clamp(1, rows.len().max(1));
    let blocks: Vec<&[(String, FeatureVector)]> =
        rows.chunks(block).filter(|c| c.len() == block).collect();
    let n_rows = (blocks.len() * block).max(1) as f64;
    // One untimed pass warms caches and allocator for all three stages.
    for chunk in &blocks {
        black_box(model.evaluate_batch(chunk, 1));
    }
    let (mut prep, mut kernel, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let t_all = Instant::now();
    while prep.len() < 5 || (prep.len() < 50 && t_all.elapsed().as_secs_f64() < 0.3) {
        let (mut p, mut k, mut e) = (0.0, 0.0, 0.0);
        for chunk in &blocks {
            let t = Instant::now();
            let batch = model.prepare_batch(chunk, 1);
            p += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(model.score_battery(&batch, 1));
            k += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(model.evaluate_batch(chunk, 1));
            e += t.elapsed().as_secs_f64();
        }
        prep.push(p / n_rows * 1e6);
        kernel.push(k / n_rows * 1e6);
        total.push(e / n_rows * 1e6);
    }
    let (p, k) = (median(&prep), median(&kernel));
    [p, k, (median(&total) - p - k).max(0.0)]
}

/// `CompiledModel::from_bytes` and `optimize` times, ms (median of 5).
fn clvy_times(bytes: &[u8]) -> (f64, f64) {
    let (mut decode, mut optimize) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let model = CompiledModel::from_bytes(bytes).expect("served bytes decode");
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        model.optimize();
        optimize.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&decode), median(&optimize))
}

/// Requests replayed per traced serve run (the nominal phase's first).
const TRACE_REQUESTS: usize = 2000;

/// Per-layer metrics of the serve workload.
pub fn serve(run: ServeRun, report: &mut Report) -> Result<(), String> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let served = &run.served;
    let d = &run.delta;

    // Daemon-side numbers from `stats`, over the nominal phase.
    let client_p50 = median(&run.nominal.sorted_latencies());
    values.insert("serve.server_p50_ms", d.server_quantile_ms(0.5));
    values.insert("serve.server_p99_ms", d.server_quantile_ms(0.99));
    values.insert("serve.wire_p50_ms", client_p50 - d.server_quantile_ms(0.5));
    let block_mean = d.scored_apps / d.batches.max(1.0);
    values.insert("serve.batch_rows_mean", block_mean);
    values.insert("serve.wakeups_per_req", d.wakeups / d.requests.max(1.0));
    values.insert("serve.busy_ratio", d.busy / d.requests.max(1.0));
    values.insert(
        "serve.request_kb_mean",
        run.nominal.bytes_sent as f64 / run.nominal.sent().max(1) as f64 / 1024.0,
    );
    let mut lag = run.nominal.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    values.insert("gen.lag_p99_ms", tail_percentile(&lag, 0.99).value);
    let bytes = std::fs::read(&served.path).map_err(|e| format!("cannot read model: {e}"))?;
    let (decode, optimize) = clvy_times(&bytes);
    values.insert("clvy.decode_ms", decode);
    values.insert("clvy.optimize_ms", optimize);

    // Offline replay, untraced then traced.
    let mut walls = [0.0; 2];
    let mut traced = Tracer::new(true);
    let mut rows: Vec<(String, FeatureVector)> = Vec::new();
    let mut explained_rows = 0;
    // Untraced twice, then traced: the first pass only warms caches and
    // the allocator, and its wall time is overwritten by the second's.
    for enabled in [false, false, true] {
        let mut tr = Tracer::new(enabled);
        replay_features(
            &run.traffic,
            &run.nominal,
            served,
            &mut tr,
            &mut rows,
            &mut explained_rows,
            enabled,
        );
        walls[usize::from(enabled)] = tr.wall_s;
        if enabled {
            traced = tr;
        }
    }

    let selfs = traced.self_times();
    let requests = selfs.get("request").map_or(0, |s| s.1).max(1) as f64;
    let per_call_us = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |s| s.0 / s.1.max(1) as f64 * 1e6)
    };
    values.insert("report.render.us", per_call_us("report.render"));
    values.insert("compare.ms", per_call_us("compare") / 1e3);
    values.insert("wire.parse.us", per_call_us("wire.parse"));
    if let Some((s, _)) = selfs.get("explain.attrib") {
        values.insert(
            "explain.attrib.us_per_row",
            s / explained_rows.max(1) as f64 * 1e6,
        );
    }

    let b1 = score_stages(&served.compiled, &rows, 1);
    let bm = score_stages(
        &served.compiled,
        &rows,
        block_mean.round().max(1.0) as usize,
    );
    for (i, stage) in ["prep", "kernel", "assemble"].iter().enumerate() {
        let k1 = LAYER_METRICS
            .iter()
            .find(|(k, _)| *k == format!("score.{stage}.us_per_row.b1"))
            .expect("listed")
            .0;
        let km = LAYER_METRICS
            .iter()
            .find(|(k, _)| *k == format!("score.{stage}.us_per_row.bmean"))
            .expect("listed")
            .0;
        values.insert(k1, b1[i]);
        values.insert(km, bm[i]);
    }
    values.insert("score.block_mean", block_mean.round().max(1.0));

    // Accounting: self time of every layer span against traced wall time.
    let layered: f64 = selfs
        .iter()
        .filter(|(k, _)| k.as_str() != "request")
        .map(|(_, s)| s.0)
        .sum();
    let request_s = traced.total("request");
    values.insert("trace.requests", requests);
    values.insert("trace.self_coverage", layered / walls[1].max(1e-9));
    values.insert("trace.overhead_ratio", walls[1] / walls[0].max(1e-9) - 1.0);
    // Purpose: extraction is bypassed. The replay runs no extraction
    // layer, and the daemon made no incremental-store lookup.
    let extraction: f64 = selfs
        .iter()
        .filter(|(k, _)| is_extraction(k))
        .map(|(_, s)| s.0)
        .sum();
    values.insert("extract.share", extraction / request_s.max(1e-9));
    let purpose = extraction == 0.0 && d.incr_lookups == 0.0;
    values.insert("purpose.ok", f64::from(u8::from(purpose)));
    report.info_num("trace_untraced_wall_s", walls[0]);
    report.info_num("trace_traced_wall_s", walls[1]);
    report.info("purpose_confirmed", purpose.to_string());
    emit(&values, report);
    Ok(())
}

/// Is `span` one of the extraction layers (or a child span of one)?
pub(crate) fn is_extraction(span: &str) -> bool {
    [
        "parse",
        "context",
        "collectors",
        "bugfind",
        "attackgraph",
        "incr.extract",
        "incr.churn",
    ]
    .iter()
    .any(|layer| span == *layer || span.starts_with(&format!("{layer}.")))
}

fn wire_parse(tr: &mut Tracer, request: &clairvoyant::report::Json) {
    let text = request.to_string();
    tr.span("wire.parse", |_| {
        black_box(Request::parse(text.as_bytes()).expect("valid request"))
    });
}

fn replay_features(
    features: &Features,
    nominal: &crate::load::Outcome,
    served: &Served,
    tr: &mut Tracer,
    rows: &mut Vec<(String, FeatureVector)>,
    explained_rows: &mut usize,
    enabled: bool,
) {
    use crate::model::request::{compare_features, features_op};
    use crate::traffic::{COMPARE, EXPLAIN, SCORE};
    for reply in nominal.replies.iter().take(TRACE_REQUESTS) {
        let (i, op) = Features::decode(reply.tag);
        let (name, fv) = &features.apps[i];
        let (other, other_fv) = &features.apps[(i + 1) % features.apps.len()];
        let request = match op {
            SCORE => features_op("score", name, fv),
            EXPLAIN => features_op("explain", name, fv),
            _ => compare_features(name, fv, other, other_fv),
        };
        tr.span("request", |tr| {
            wire_parse(tr, &request);
            match op {
                SCORE => {
                    render_score(served, name, fv, tr);
                }
                EXPLAIN => {
                    let ex = tr.span("explain.attrib", |_| served.explain(name, fv));
                    tr.span("report.render", |_| {
                        black_box(explanation_value(&ex).to_string().len())
                    });
                }
                _ => {
                    let pair = vec![
                        (name.clone(), fv.clone()),
                        (other.clone(), other_fv.clone()),
                    ];
                    let ex = tr.span("explain.attrib", |_| {
                        served.compiled.explain_batch(&pair, 1)
                    });
                    tr.span("compare", |_| {
                        let c = Comparison::from_explanations(&ex[0], &ex[1]);
                        black_box(comparison_value(&c).to_string().len())
                    });
                }
            }
        });
        if enabled {
            match op {
                SCORE => rows.push((name.clone(), fv.clone())),
                EXPLAIN => *explained_rows += 1,
                COMPARE => *explained_rows += 2,
                _ => {}
            }
        }
    }
}
