//! The automated testbed (§5.1).
//!
//! *"We also need an automated framework to collect all the code properties
//! from the sample applications."* The testbed runs every collector family
//! over a program and flattens the results into one [`FeatureVector`]:
//!
//! * the `static-analysis` standard registry (LoC, cyclomatic, Halstead,
//!   counts, call graph, data flow, taint, bounds, paths, smells, language);
//! * the `bugfind` meta-tool (per-rule report counts, severity mix,
//!   multi-tool agreement) — §4.2's "feed the bug reports or count of bug
//!   types into the machine learning engine";
//! * the `attack-graph` crate (RASQ quotient and per-vector counts, attack
//!   graph reachability/shortest-path metrics) — §4.1.
//!
//! All three families share one [`AnalysisContext`] built once per
//! program: the registry collectors read its precomputed CFGs and bitset
//! fixpoints, the bug checkers reuse the same CFGs/intervals through
//! `MetaTool::run_ctx`, and the attack-graph exploit facts come from the
//! context's single interprocedural taint pass. The vectors the retired
//! string-keyed extraction path produced are kept as golden data
//! (`tests/fixtures/legacy_vectors.tsv`), which `extract` must reproduce
//! bit for bit.

use attack_graph::{interaction_facts, AttackGraph, AttackSurface, VectorKind};
use bugfind::{DiagSeverity, MetaReport, MetaTool};
use minilang::ast::Program;
use static_analysis::context::{standard_path_config, AnalysisContext, FunctionContext};
use static_analysis::taint::TaintReport;
use static_analysis::{standard_registry, FeatureVector, Registry};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The full feature extractor.
pub struct Testbed {
    registry: Registry,
    metatool: MetaTool,
    /// Worker threads for per-function context construction (1 = inline,
    /// 0 = one per core). Vectors are identical for any value.
    fn_jobs: usize,
    /// Cumulative per-collector wall time in micros, drained into the
    /// pipeline report by [`pipeline::Extractor::take_collector_timings`].
    timings: Mutex<BTreeMap<String, u64>>,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            registry: standard_registry(),
            metatool: MetaTool::new(),
            fn_jobs: 1,
            timings: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Testbed {
    /// The standard testbed with every collector enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fan per-function context construction out over `jobs` worker
    /// threads (0 = one per core). Function contexts are independent
    /// once interning is done and merge back in program order, so the
    /// extracted vector is bit-identical for any worker count.
    pub fn with_fn_jobs(mut self, jobs: usize) -> Self {
        self.fn_jobs = jobs;
        self
    }

    /// Extract the full feature vector for one program.
    pub fn extract(&self, program: &Program) -> FeatureVector {
        let start = Instant::now();
        let cx = self.build_context(program);
        self.record("context", start.elapsed());
        self.run_families(program, &cx)
    }

    /// Run every collector family over a prebuilt context and merge the
    /// results. This is the whole of [`extract`](Testbed::extract) minus
    /// context construction — the incremental engine assembles its own
    /// context from cached per-function entries and joins back here, so
    /// the merged vector is produced by literally the same code path.
    pub(crate) fn run_families(
        &self,
        program: &Program,
        cx: &AnalysisContext<'_>,
    ) -> FeatureVector {
        let (mut fv, collectors) = self.registry.run_with_timings(cx);
        {
            let mut timings = self.timings.lock().unwrap();
            for (name, micros) in collectors {
                *timings.entry(name).or_insert(0) += micros;
            }
        }

        let start = Instant::now();
        let report = self.metatool.run_ctx(cx);
        Self::set_bugfind(&report, program, &mut fv);
        self.record("bugfind", start.elapsed());

        let start = Instant::now();
        Self::set_attack(program, &cx.taint, &mut fv);
        self.record("attackgraph", start.elapsed());
        fv
    }

    fn build_context<'p>(&self, program: &'p Program) -> AnalysisContext<'p> {
        if self.fn_jobs == 1 {
            return AnalysisContext::build(program);
        }
        let workers = if self.fn_jobs == 0 {
            pipeline::default_workers()
        } else {
            self.fn_jobs
        };
        AnalysisContext::build_with(program, |symbols, funcs| {
            pipeline::parallel_map(workers, funcs, |_, &f| {
                FunctionContext::build(f, symbols, &standard_path_config())
            })
        })
    }

    fn record(&self, name: &str, took: Duration) {
        *self
            .timings
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += took.as_micros() as u64;
    }

    fn set_bugfind(report: &MetaReport, program: &Program, fv: &mut FeatureVector) {
        fv.set("bugfind.total", report.total() as f64);
        fv.set(
            "bugfind.errors",
            report.count_severity(DiagSeverity::Error) as f64,
        );
        fv.set(
            "bugfind.warnings",
            report.count_severity(DiagSeverity::Warning) as f64,
        );
        fv.set(
            "bugfind.notes",
            report.count_severity(DiagSeverity::Note) as f64,
        );
        fv.set("bugfind.multi_tool_sites", report.multi_tool_sites as f64);
        // Per-CWE hint counts for the classes the hypotheses ask about.
        for cwe in [20u32, 22, 121, 134, 190, 200, 367, 401, 416, 798] {
            fv.set(format!("bugfind.cwe_{cwe}"), report.count_cwe(cwe) as f64);
        }
        // Density: findings per function (size-independent signal).
        let functions = program.function_count().max(1) as f64;
        fv.set("bugfind.density", report.total() as f64 / functions);
    }

    fn set_attack(program: &Program, taint: &TaintReport, fv: &mut FeatureVector) {
        let surface = AttackSurface::measure(program);
        fv.set("rasq.quotient", surface.quotient);
        let kinds = [
            (VectorKind::NetworkEndpoint, "rasq.network_endpoints"),
            (VectorKind::LocalEndpoint, "rasq.local_endpoints"),
            (VectorKind::FileEndpoint, "rasq.file_endpoints"),
            (VectorKind::InputChannel, "rasq.input_channels"),
            (VectorKind::ProcessSpawn, "rasq.process_spawns"),
            (VectorKind::PrivilegedCode, "rasq.privileged_functions"),
            (VectorKind::UnresolvedExtern, "rasq.unresolved_externs"),
        ];
        for (kind, name) in kinds {
            fv.set(name, surface.count(kind) as f64);
        }

        // Attack graph: exploit facts are the endpoints whose parameters can
        // reach a dangerous sink (the exposed taint flows).
        let vulnerable: Vec<String> = taint
            .flows
            .iter()
            .filter(|f| f.via_parameters)
            .map(|f| f.function.clone())
            .collect();
        let graph = AttackGraph::from_facts(interaction_facts(program, &vulnerable));
        let metrics = graph.metrics();
        fv.set(
            "attackgraph.goal_reachable",
            metrics.goal_reachable as u8 as f64,
        );
        fv.set(
            "attackgraph.shortest_path",
            metrics.shortest_path_len.map(|n| n as f64).unwrap_or(0.0),
        );
        fv.set(
            "attackgraph.easiest_cost",
            metrics.easiest_path_cost.unwrap_or(10.0),
        );
        fv.set("attackgraph.paths", metrics.minimal_paths as f64);
        fv.set("attackgraph.exploits", metrics.exploit_count as f64);
    }
}

/// Version of the testbed's collector schema, part of every pipeline
/// cache key. Bump whenever a collector is added, removed, or changes
/// meaning — stale cached vectors are invalidated wholesale.
/// (v2: single-pass `AnalysisContext` engine. v3: deterministic
/// program-order duplicate-code detection over per-statement digests.)
pub const TESTBED_SCHEMA_VERSION: u64 = 3;

impl pipeline::Extractor for Testbed {
    fn extract(&self, program: &Program) -> FeatureVector {
        Testbed::extract(self, program)
    }

    fn schema_version(&self) -> u64 {
        TESTBED_SCHEMA_VERSION
    }

    /// Digest of the collector set actually wired in (registry collector
    /// names + bugfind tool names + the schema version), so a cached
    /// vector is only reused by a testbed with the same collectors.
    fn fingerprint(&self) -> u64 {
        let mut h = pipeline::fnv::Fnv1a::new();
        h.write_u64(TESTBED_SCHEMA_VERSION);
        for name in self.registry.names() {
            h.write_str(name);
        }
        for name in self.metatool.tool_names() {
            h.write_str(name);
        }
        h.finish()
    }

    fn take_collector_timings(&self) -> Vec<(String, u64)> {
        let mut timings = self.timings.lock().unwrap();
        std::mem::take(&mut *timings).into_iter().collect()
    }

    /// The schema-stable degraded vector: every feature name the testbed
    /// emits, all zero. Feature names are program-independent (asserted
    /// by `feature_names_are_stable_across_programs` below), so one
    /// probe extraction over a trivial program yields the full schema.
    fn degraded(&self) -> FeatureVector {
        static SCHEMA: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                let probe = minilang::parse_program(
                    "schema-probe",
                    minilang::Dialect::C,
                    &[("probe.c".to_string(), "fn probe() { }".to_string())],
                )
                .expect("trivial probe program parses");
                Testbed::new()
                    .extract(&probe)
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            })
            .iter()
            .map(|name| (name.clone(), 0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn program(src: &str) -> Program {
        parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap()
    }

    #[test]
    fn extracts_all_feature_families() {
        let p = program(
            "@endpoint(network)
             fn handle(req: str) { let buf: str[32]; strcpy(buf, req); }
             fn util(n: int) -> int { return n * 2; }",
        );
        let fv = Testbed::new().extract(&p);
        for prefix in [
            "loc.",
            "cyclomatic.",
            "taint.",
            "bugfind.",
            "rasq.",
            "attackgraph.",
        ] {
            assert!(
                !fv.with_prefix(prefix).is_empty(),
                "missing family {prefix}"
            );
        }
        assert!(
            fv.len() >= 70,
            "expected a wide unified vector, got {}",
            fv.len()
        );
    }

    #[test]
    fn vulnerable_endpoint_makes_goal_reachable() {
        let p = program(
            "@endpoint(network) @priv(root)
             fn handle(req: str) { system(req); }",
        );
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("attackgraph.goal_reachable"), Some(1.0));
        assert!(fv.get("bugfind.total").unwrap() > 0.0);
        assert!(fv.get("rasq.quotient").unwrap() > 0.0);
    }

    #[test]
    fn clean_program_is_low_risk_across_families() {
        let p = program("fn pure(a: int, b: int) -> int { return a + b; }");
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("attackgraph.goal_reachable"), Some(0.0));
        assert_eq!(fv.get("bugfind.total"), Some(0.0));
        assert_eq!(fv.get("rasq.quotient"), Some(0.0));
        assert_eq!(fv.get("taint.flows"), Some(0.0));
    }

    #[test]
    fn feature_names_are_stable_across_programs() {
        let a = Testbed::new().extract(&program("fn f() { }"));
        let b = Testbed::new().extract(&program("@endpoint(network) fn g(q: str) { exec(q); }"));
        assert_eq!(
            a.names(),
            b.names(),
            "feature schema must not depend on program content"
        );
    }

    #[test]
    fn degraded_vector_matches_live_schema() {
        use pipeline::Extractor as _;
        let testbed = Testbed::new();
        let degraded = testbed.degraded();
        let live = testbed.extract(&program("fn f(s: str) { printf(s); }"));
        assert_eq!(
            degraded.names(),
            live.names(),
            "degraded vector must be schema-stable"
        );
        assert!(degraded.iter().all(|(_, v)| v == 0.0));
    }

    #[test]
    fn density_is_size_normalized() {
        let p = program("fn f(s: str) { printf(s); }");
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("bugfind.density"), Some(1.0));
    }

    /// The vector the string-keyed extraction path (deleted after commit
    /// a26a510) produced for the program below, recorded at that commit.
    /// Values compare through their shortest round-trip `{:?}` form, so
    /// the check is bit-for-bit.
    const LEGACY_VECTOR: &str = "\
attackgraph.easiest_cost 10.0
attackgraph.exploits 1.0
attackgraph.goal_reachable 0.0
attackgraph.paths 0.0
attackgraph.shortest_path 0.0
bounds.out_of_bounds 0.0
bounds.safe 1.0
bounds.unknown 1.0
bounds.unproved_ratio 0.5
bugfind.cwe_121 2.0
bugfind.cwe_134 1.0
bugfind.cwe_190 0.0
bugfind.cwe_20 1.0
bugfind.cwe_200 0.0
bugfind.cwe_22 1.0
bugfind.cwe_367 0.0
bugfind.cwe_401 0.0
bugfind.cwe_416 0.0
bugfind.cwe_798 0.0
bugfind.density 3.5
bugfind.errors 0.0
bugfind.multi_tool_sites 1.0
bugfind.notes 2.0
bugfind.total 7.0
bugfind.warnings 5.0
callgraph.call_edges 0.0
callgraph.intrinsic_edges 4.0
callgraph.leaf_functions 2.0
callgraph.max_in_degree 0.0
callgraph.max_out_degree 0.0
callgraph.recursive_functions 0.0
callgraph.root_functions 2.0
callgraph.unresolved_edges 0.0
counts.branches 2.0
counts.buffer_capacity 12.0
counts.buffers 2.0
counts.calls 4.0
counts.declarations 5.0
counts.endpoints 1.0
counts.functions 2.0
counts.globals 1.0
counts.loops 1.0
counts.mean_parameters 1.0
counts.parameters 2.0
counts.privileged_functions 0.0
counts.returning_functions 1.0
counts.returns 1.0
cyclomatic.log10_total 0.6989700043360189
cyclomatic.max 4.0
cyclomatic.mean 2.5
cyclomatic.over_10 0.0
cyclomatic.total 5.0
dataflow.dead_stores 2.0
dataflow.defs 5.0
dataflow.du_pairs 4.0
dataflow.uninitialized_uses 2.0
halstead.difficulty 17.818181818181817
halstead.effort 3971.7635484909642
halstead.estimated_bugs 0.0743016990363956
halstead.length 48.0
halstead.vocabulary 25.0
halstead.volume 222.90509710918678
lang.is_c 1.0
lang.is_cc 0.0
lang.is_java 0.0
lang.is_py 0.0
lang.memory_unsafe 1.0
loc.blank 0.0
loc.code 17.0
loc.comment 0.0
loc.comment_ratio 0.0
loc.files 1.0
loc.kloc 0.017
loc.log10_kloc -1.7695510786217261
loc.total 17.0
paths.capped_functions 0.0
paths.feasible 7.0
paths.infeasible 0.0
paths.log2_sum 3.807354922057604
rasq.file_endpoints 0.0
rasq.input_channels 0.0
rasq.local_endpoints 0.0
rasq.network_endpoints 1.0
rasq.privileged_functions 0.0
rasq.process_spawns 0.0
rasq.quotient 1.5
rasq.unresolved_externs 0.0
smells.dead_code 0.0
smells.deep_nesting 0.0
smells.deprecated_call 0.0
smells.duplicate_code 0.0
smells.god_function 0.0
smells.long_method 0.0
smells.long_parameter_list 0.0
smells.sparse_comments 0.0
smells.total 0.0
taint.exposed_flows 2.0
taint.flows 2.0
taint.sink_calls 2.0
taint.source_calls 1.0
taint.tainted_entry_functions 1.0
";

    #[test]
    fn fused_extraction_matches_legacy_path() {
        let p = program(
            "global limit: int = 4;
             @endpoint(network)
             fn serve(req: str) {
                 let buf: str[8];
                 strcpy(buf, req);
                 let data: str = read_file(req);
                 send(0, data);
                 printf(req);
             }
             fn helper(i: int) -> int {
                 let b: int[4];
                 let waste: int = 1;
                 waste = 2;
                 if i >= 0 && i < limit { b[i] = 1; }
                 while i < 10 { i += 1; }
                 return b[0];
             }",
        );
        let fv = Testbed::new().extract(&p);
        let rendered: String = fv.iter().map(|(k, v)| format!("{k} {v:?}\n")).collect();
        assert_eq!(rendered, LEGACY_VECTOR);
    }

    #[test]
    fn fn_jobs_do_not_change_the_vector() {
        let p = program(
            "@endpoint(network) fn a(q: str) { exec(q); }
             fn b(n: int) -> int { let x: int = n; return x * 2; }
             fn c() { let buf: int[4]; buf[9] = 1; }
             fn d(i: int) { for j = 0; j < i; j += 1 { log_msg(\"t\"); } }",
        );
        let sequential = Testbed::new().extract(&p);
        let parallel = Testbed::new().with_fn_jobs(4).extract(&p);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn collector_timings_cover_every_stage() {
        use pipeline::Extractor as _;
        let testbed = Testbed::new();
        let _ = testbed.extract(&program("fn f(s: str) { printf(s); }"));
        let timings = testbed.take_collector_timings();
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["context", "bugfind", "attackgraph", "loc", "taint"] {
            assert!(names.contains(&expected), "missing timing for {expected}");
        }
        // Drained: a second take is empty until the next extraction.
        assert!(testbed.take_collector_timings().is_empty());
    }

    #[test]
    fn fingerprint_tracks_collector_set() {
        use pipeline::Extractor as _;
        let standard = Testbed::new().fingerprint();
        assert_eq!(standard, Testbed::new().fingerprint());
        let trimmed = Testbed {
            registry: static_analysis::Registry::new(),
            ..Testbed::new()
        };
        assert_ne!(standard, trimmed.fingerprint());
    }
}
