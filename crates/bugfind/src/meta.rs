//! The meta-tool (Rutar et al. [59]): run every checker, merge and
//! deduplicate the reports, and expose per-rule counts as features.

use crate::checkers::{all_checkers, Checker};
use crate::diagnostic::{DiagSeverity, Diagnostic};
use minilang::ast::Program;
use static_analysis::context::AnalysisContext;
use std::collections::BTreeMap;

/// Combined output of all tools over one program.
#[derive(Debug, Clone, Default)]
pub struct MetaReport {
    /// All diagnostics, merged, in (module, span) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Count per `tool/rule` key.
    pub by_rule: BTreeMap<String, usize>,
    /// Count per severity.
    pub by_severity: BTreeMap<DiagSeverity, usize>,
    /// Count per CWE hint.
    pub by_cwe: BTreeMap<u32, usize>,
    /// Sites (function + span) flagged by two or more distinct tools — the
    /// agreement signal Rutar et al. found more trustworthy than any single
    /// tool.
    pub multi_tool_sites: usize,
}

impl MetaReport {
    /// Total findings.
    pub fn total(&self) -> usize {
        self.diagnostics.len()
    }

    /// Findings with the given severity.
    pub fn count_severity(&self, severity: DiagSeverity) -> usize {
        self.by_severity.get(&severity).copied().unwrap_or(0)
    }

    /// Findings hinting at the given CWE id.
    pub fn count_cwe(&self, cwe: u32) -> usize {
        self.by_cwe.get(&cwe).copied().unwrap_or(0)
    }
}

/// Runs a set of checkers and merges their reports.
pub struct MetaTool {
    checkers: Vec<Box<dyn Checker + Send + Sync>>,
}

impl Default for MetaTool {
    fn default() -> Self {
        MetaTool {
            checkers: all_checkers(),
        }
    }
}

impl MetaTool {
    /// The full standard suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// A custom suite (for ablation: which tools matter?).
    pub fn with_checkers(checkers: Vec<Box<dyn Checker + Send + Sync>>) -> Self {
        MetaTool { checkers }
    }

    /// Tool names in run order.
    pub fn tool_names(&self) -> Vec<&'static str> {
        self.checkers.iter().map(|c| c.name()).collect()
    }

    /// Build the program's [`AnalysisContext`], then run every tool over
    /// it and merge.
    pub fn run(&self, program: &Program) -> MetaReport {
        self.run_ctx(&AnalysisContext::build(program))
    }

    /// Run every tool over a prebuilt [`AnalysisContext`] and merge — the
    /// testbed's entry point, so lint and feature extraction share one
    /// context per program.
    pub fn run_ctx(&self, cx: &AnalysisContext<'_>) -> MetaReport {
        let mut report = MetaReport::default();
        // (function, span start) → set of tools that flagged it.
        let mut site_tools: BTreeMap<(String, usize), Vec<&'static str>> = BTreeMap::new();

        for checker in &self.checkers {
            for diag in checker.check(cx) {
                *report
                    .by_rule
                    .entry(format!("{}/{}", diag.tool, diag.rule))
                    .or_insert(0) += 1;
                *report.by_severity.entry(diag.severity).or_insert(0) += 1;
                if let Some(cwe) = diag.cwe_hint {
                    *report.by_cwe.entry(cwe).or_insert(0) += 1;
                }
                let key = (diag.function.clone(), diag.span.start);
                let tools = site_tools.entry(key).or_default();
                if !tools.contains(&diag.tool) {
                    tools.push(diag.tool);
                }
                report.diagnostics.push(diag);
            }
        }
        report.multi_tool_sites = site_tools.values().filter(|t| t.len() >= 2).count();
        report
            .diagnostics
            .sort_by(|a, b| (&a.module, a.span.start).cmp(&(&b.module, b.span.start)));
        report
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
    fn merges_reports_from_multiple_tools() {
        let p = program(
            "@endpoint(network)
             fn handle(req: str) {
                 let buf: str[32];
                 strcpy(buf, req);
                 printf(req);
             }",
        );
        let report = MetaTool::new().run(&p);
        // bufcheck (strcpy), fmtcheck (printf), inputcheck (req unvalidated ×2 uses → 1 per param)
        assert!(report.count_cwe(121) >= 1);
        assert!(report.count_cwe(134) >= 1);
        assert!(report.count_cwe(20) >= 1);
        assert!(report.total() >= 3);
        assert!(!report.by_rule.is_empty());
    }

    #[test]
    fn clean_program_is_quiet() {
        let p = program(
            "fn add(a: int, b: int) -> int { return a + b; }
             fn main_loop() { let total: int = add(1, 2); printf(\"%d\", total); }",
        );
        let report = MetaTool::new().run(&p);
        assert_eq!(report.total(), 0, "{:#?}", report.diagnostics);
    }

    #[test]
    fn multi_tool_agreement_detected() {
        // strcpy from an untrusted param into a fixed buffer: bufcheck flags
        // the strcpy site, inputcheck flags the same call site for the
        // unvalidated parameter.
        let p = program(
            "@endpoint(network)
             fn handle(req: str) { let buf: str[8]; strcpy(buf, req); }",
        );
        let report = MetaTool::new().run(&p);
        assert!(report.multi_tool_sites >= 1, "{:#?}", report.diagnostics);
    }

    #[test]
    fn diagnostics_sorted_by_location() {
        let p = program(
            "fn a() { let x: int = 1; x = 2; log_msg(\"s\"); }
             fn b() { let y: int = 3; y = 4; log_msg(\"t\"); }",
        );
        let report = MetaTool::new().run(&p);
        let starts: Vec<usize> = report.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn custom_suite_restricts_tools() {
        let p = program("fn f(s: str) { printf(s); let b: int[2]; b[5] = 1; }");
        let only_fmt =
            MetaTool::with_checkers(vec![Box::new(crate::checkers::FormatStringChecker)]);
        assert_eq!(only_fmt.tool_names(), vec!["fmtcheck"]);
        let report = only_fmt.run(&p);
        assert_eq!(report.count_cwe(134), 1);
        assert_eq!(report.count_cwe(121), 0);
    }

    /// What the program-keyed checkers (deleted after commit a26a510)
    /// reported for the program below, recorded at that commit: every
    /// diagnostic field, then the per-rule, per-severity and per-CWE
    /// counts and the multi-tool site count.
    const LEGACY_REPORT: &str = "\
bufcheck/strcpy-fixed-buffer Warning serve m.c 140..156@5:18 Some(121) unbounded strcpy into fixed buffer `buf`
inputcheck/unvalidated-param Warning serve m.c 140..156@5:18 Some(20) untrusted parameter `req` used without validation
pathcheck/tainted-path Warning serve m.c 191..205@6:34 Some(22) attacker-influenced path `req` reaches `read_file`
fmtcheck/non-literal-format Warning serve m.c 256..267@8:18 Some(134) non-literal format string passed to `printf`
deadstore/dead-store Note helper m.c 373..392@12:18 None value assigned to `waste` is never read
deadstore/dead-store Note helper m.c 410..419@13:18 None value assigned to `waste` is never read
bufcheck/index-oob Error helper m.c 488..492@15:18 Some(121) index [9, 9] is outside `b[4]`
by_rule {\"bufcheck/index-oob\": 1, \"bufcheck/strcpy-fixed-buffer\": 1, \"deadstore/dead-store\": 2, \"fmtcheck/non-literal-format\": 1, \"inputcheck/unvalidated-param\": 1, \"pathcheck/tainted-path\": 1}
by_severity {Note: 2, Warning: 4, Error: 1}
by_cwe {20: 1, 22: 1, 121: 2, 134: 1}
multi_tool_sites 1
";

    fn render(r: &MetaReport) -> String {
        let mut out = String::new();
        for d in &r.diagnostics {
            let s = d.span;
            out += &format!(
                "{}/{} {:?} {} {} {}..{}@{}:{} {:?} {}\n",
                d.tool,
                d.rule,
                d.severity,
                d.function,
                d.module,
                s.start,
                s.end,
                s.line,
                s.col,
                d.cwe_hint,
                d.message
            );
        }
        out += &format!("by_rule {:?}\n", r.by_rule);
        out += &format!("by_severity {:?}\n", r.by_severity);
        out += &format!("by_cwe {:?}\n", r.by_cwe);
        out += &format!("multi_tool_sites {}\n", r.multi_tool_sites);
        out
    }

    #[test]
    fn context_run_matches_program_run() {
        // Exercises the three context-driven checkers: bufcheck (interval
        // analysis), deadstore (reaching defs + liveness), pathcheck
        // (interprocedural taint) — plus the AST-only rest.
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
                 if i >= 0 && i < 4 { b[i] = 1; }
                 b[9] = 0;
                 return b[0];
             }",
        );
        let tool = MetaTool::new();
        let cx = AnalysisContext::build(&p);
        assert_eq!(render(&tool.run_ctx(&cx)), LEGACY_REPORT);
        assert_eq!(render(&tool.run(&p)), LEGACY_REPORT);
    }

    #[test]
    fn severity_counts() {
        let p =
            program("fn f() { let b: int[2]; b[9] = 1; let z: int = 5; z = 6; log_msg(\"x\"); }");
        let report = MetaTool::new().run(&p);
        assert!(report.count_severity(DiagSeverity::Error) >= 1);
        assert!(report.count_severity(DiagSeverity::Note) >= 1);
    }
}
