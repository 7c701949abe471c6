//! Classic data-flow analyses [56] over the CFG.
//!
//! §4.1 of the paper: *"data flow analysis can determine numbers of
//! expressions or functions influencing the execution of other parts of the
//! code"*. This module provides:
//!
//! * **reaching definitions** (forward, may) — which assignments can reach
//!   each program point;
//! * **liveness** (backward, may) — which variables are live out of each
//!   node, exposing dead stores;
//! * **def-use chains** — the count of definition→use influence edges, the
//!   "expressions influencing other parts" feature the paper wants.
//!
//! All three run a standard worklist fixpoint; sets are bit-vectors for
//! predictable performance on the synthesized corpus.

use crate::cfg::{Cfg, NodeId, NodeKind};
use minilang::ast::{Expr, ExprKind, LValue, StmtKind};
use minilang::visit;
use std::collections::HashMap;

pub use crate::bitset::BitSet;

/// One definition site: variable `var` defined at CFG node `node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    pub var: String,
    pub node: NodeId,
    /// Strong defs (plain assignment / let) kill earlier defs of the same
    /// variable; weak defs (`buf[i] = ..`) do not.
    pub strong: bool,
}

/// The variable a node defines, if any.
pub fn node_def(kind: &NodeKind<'_>) -> Option<(String, bool)> {
    match kind {
        NodeKind::Stmt(stmt) => match &stmt.kind {
            // A bare `let x: int;` declares storage without writing it, so it
            // is not a definition — this is what lets the analysis flag
            // reads of uninitialized locals.
            StmtKind::Let { init: None, .. } => None,
            StmtKind::Let { name, .. } => Some((name.clone(), true)),
            StmtKind::Assign { target, .. } => match target {
                LValue::Var(name, _) => Some((name.clone(), true)),
                LValue::Index { base, .. } => Some((base.clone(), false)),
            },
            _ => None,
        },
        _ => None,
    }
}

/// The variables a node reads.
pub fn node_uses(kind: &NodeKind<'_>) -> Vec<String> {
    let mut out = Vec::new();
    let mut add_expr = |e: &Expr| {
        visit::walk_expr(e, &mut |e| {
            if let ExprKind::Var(name) = &e.kind {
                out.push(name.clone());
            }
        });
    };
    match kind {
        NodeKind::Stmt(stmt) => {
            for e in visit::stmt_exprs(stmt) {
                add_expr(e);
            }
            // A compound assignment (`x += e`) also reads x; an indexed
            // write (`buf[i] = e`) reads the buffer it partially updates.
            if let StmtKind::Assign { target, op, .. } = &stmt.kind {
                if op.is_some() || matches!(target, LValue::Index { .. }) {
                    out.push(target.base_name().to_string());
                }
            }
        }
        NodeKind::Cond(cond) => add_expr(cond),
        NodeKind::Entry | NodeKind::Exit | NodeKind::Join => {}
    }
    out
}

/// Result of the reaching-definitions analysis.
#[derive(Debug)]
pub struct ReachingDefs {
    /// All definition sites, indexed by def id.
    pub defs: Vec<Def>,
    /// For each node, the set of def ids reaching its entry.
    pub reach_in: Vec<BitSet>,
}

/// Run reaching definitions over the CFG.
pub fn reaching_definitions(cfg: &Cfg<'_>) -> ReachingDefs {
    // Enumerate defs.
    let mut defs: Vec<Def> = Vec::new();
    let mut defs_at: Vec<Option<usize>> = vec![None; cfg.node_count()];
    let mut defs_of_var: HashMap<String, Vec<usize>> = HashMap::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        if let Some((var, strong)) = node_def(&node.kind) {
            let def_id = defs.len();
            defs_of_var.entry(var.clone()).or_default().push(def_id);
            defs.push(Def {
                var,
                node: id,
                strong,
            });
            defs_at[id] = Some(def_id);
        }
    }

    let universe = defs.len();
    // gen/kill per node.
    let mut gen: Vec<BitSet> = Vec::with_capacity(cfg.node_count());
    let mut kill: Vec<BitSet> = Vec::with_capacity(cfg.node_count());
    for &slot in defs_at.iter().take(cfg.node_count()) {
        let mut g = BitSet::new(universe);
        let mut k = BitSet::new(universe);
        if let Some(def_id) = slot {
            g.insert(def_id);
            if defs[def_id].strong {
                for &other in &defs_of_var[&defs[def_id].var] {
                    if other != def_id {
                        k.insert(other);
                    }
                }
            }
        }
        gen.push(g);
        kill.push(k);
    }

    // Worklist fixpoint in reverse post-order.
    let order = cfg.reverse_postorder();
    let mut reach_in = vec![BitSet::new(universe); cfg.node_count()];
    let mut reach_out = vec![BitSet::new(universe); cfg.node_count()];
    let mut changed = true;
    while changed {
        changed = false;
        for &id in &order {
            let mut inset = BitSet::new(universe);
            for &p in &cfg.nodes[id].preds {
                inset.union_with(&reach_out[p]);
            }
            let mut outset = inset.clone();
            outset.subtract(&kill[id]);
            outset.union_with(&gen[id]);
            if outset != reach_out[id] {
                reach_out[id] = outset;
                changed = true;
            }
            reach_in[id] = inset;
        }
    }
    ReachingDefs { defs, reach_in }
}

/// Result of liveness analysis.
#[derive(Debug)]
pub struct Liveness {
    /// Variable name table; sets index into it.
    pub vars: Vec<String>,
    /// Live-out variable ids per node.
    pub live_out: Vec<BitSet>,
    /// Live-in variable ids per node.
    pub live_in: Vec<BitSet>,
}

impl Liveness {
    fn var_id(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// True if `name` is live out of `node`.
    pub fn is_live_out(&self, node: NodeId, name: &str) -> bool {
        self.var_id(name)
            .is_some_and(|v| self.live_out[node].contains(v))
    }
}

/// Run liveness over the CFG (backward may-analysis).
pub fn liveness(cfg: &Cfg<'_>) -> Liveness {
    // Variable table from every def and use.
    let mut vars: Vec<String> = Vec::new();
    let mut id_of: HashMap<String, usize> = HashMap::new();
    let intern = |name: String, vars: &mut Vec<String>, id_of: &mut HashMap<String, usize>| {
        *id_of.entry(name.clone()).or_insert_with(|| {
            vars.push(name);
            vars.len() - 1
        })
    };
    let mut uses: Vec<Vec<usize>> = Vec::with_capacity(cfg.node_count());
    let mut defs: Vec<Option<(usize, bool)>> = Vec::with_capacity(cfg.node_count());
    for node in &cfg.nodes {
        let u: Vec<usize> = node_uses(&node.kind)
            .into_iter()
            .map(|n| intern(n, &mut vars, &mut id_of))
            .collect();
        let d = node_def(&node.kind).map(|(n, strong)| (intern(n, &mut vars, &mut id_of), strong));
        uses.push(u);
        defs.push(d);
    }

    let universe = vars.len();
    let mut live_in = vec![BitSet::new(universe); cfg.node_count()];
    let mut live_out = vec![BitSet::new(universe); cfg.node_count()];
    // Backward: iterate post-order (reverse of RPO).
    let mut order = cfg.reverse_postorder();
    order.reverse();
    let mut changed = true;
    while changed {
        changed = false;
        for &id in &order {
            let mut out = BitSet::new(universe);
            for &s in &cfg.nodes[id].succs {
                out.union_with(&live_in[s]);
            }
            let mut inset = out.clone();
            if let Some((d, strong)) = defs[id] {
                if strong {
                    inset.remove(d);
                }
            }
            for &u in &uses[id] {
                inset.insert(u);
            }
            if inset != live_in[id] {
                live_in[id] = inset;
                changed = true;
            }
            live_out[id] = out;
        }
    }
    Liveness {
        vars,
        live_out,
        live_in,
    }
}

/// Aggregate data-flow statistics used as features.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataflowStats {
    /// Number of definition sites.
    pub defs: usize,
    /// Number of def→use chain edges (a def reaches a node that uses its
    /// variable).
    pub du_pairs: usize,
    /// Definitions whose value is never used (dead stores).
    pub dead_stores: usize,
    /// Uses with no reaching definition in the function (reads of
    /// parameters/globals are excluded by construction of the def table, so
    /// this counts genuinely uninitialized locals).
    pub possibly_uninitialized_uses: usize,
}

/// Def-use statistics for one function, plus the dead-store *sites* the
/// `deadstore` bug checker reports. The caller (a
/// [`crate::context::FnStructure`]) has already built the CFG, its reverse
/// postorder and the per-node def/use sets as dense function-local symbol
/// indices, so both fixpoints run without allocating a string. Du-pairs
/// are counted per use *occurrence*; a use with no reaching definition
/// counts as uninitialized only for `let`-declared locals that are neither
/// parameters nor globals.
///
/// Sites are `(defining node, local)` for every strong def of a
/// non-parameter, non-global variable that is not live out of its node
/// (the checker's slightly wider predicate — the `dead_stores` statistic
/// counts `let`-declared locals only). They are structure-relative (node
/// ids and dense locals, no spans), so they cache safely in a
/// [`crate::context::FnPayload`] and the checker can re-anchor them
/// against any identical-text rebuild of the CFG.
#[allow(clippy::too_many_arguments)]
pub fn dataflow_stats_sym_sites(
    cfg: &Cfg<'_>,
    order: &[NodeId],
    node_defs: &[Option<(u32, bool)>],
    node_uses: &[Vec<u32>],
    universe: usize,
    let_locals: &BitSet,
    params: &BitSet,
    globals: &BitSet,
) -> (DataflowStats, Vec<(NodeId, u32)>) {
    // Enumerate def sites in node order (the ids `reaching_definitions`
    // assigns).
    struct SymDef {
        var: u32,
        node: NodeId,
        strong: bool,
    }
    let mut defs: Vec<SymDef> = Vec::new();
    let mut defs_at: Vec<Option<usize>> = vec![None; cfg.node_count()];
    let mut defs_of_var: Vec<Vec<usize>> = vec![Vec::new(); universe];
    for (id, slot) in node_defs.iter().enumerate() {
        if let Some((var, strong)) = *slot {
            let def_id = defs.len();
            defs_of_var[var as usize].push(def_id);
            defs.push(SymDef {
                var,
                node: id,
                strong,
            });
            defs_at[id] = Some(def_id);
        }
    }

    // Reaching definitions: forward may-analysis over def ids.
    let def_universe = defs.len();
    let mut reach_in = vec![BitSet::new(def_universe); cfg.node_count()];
    let mut reach_out = vec![BitSet::new(def_universe); cfg.node_count()];
    let mut changed = true;
    while changed {
        changed = false;
        for &id in order {
            let mut inset = BitSet::new(def_universe);
            for &p in &cfg.nodes[id].preds {
                inset.union_with(&reach_out[p]);
            }
            let mut outset = inset.clone();
            if let Some(def_id) = defs_at[id] {
                if defs[def_id].strong {
                    for &other in &defs_of_var[defs[def_id].var as usize] {
                        if other != def_id {
                            outset.remove(other);
                        }
                    }
                }
                outset.insert(def_id);
            }
            if outset != reach_out[id] {
                reach_out[id] = outset;
                changed = true;
            }
            reach_in[id] = inset;
        }
    }

    // Liveness: backward may-analysis over the local-symbol universe.
    let mut live_in = vec![BitSet::new(universe); cfg.node_count()];
    let mut live_out = vec![BitSet::new(universe); cfg.node_count()];
    changed = true;
    while changed {
        changed = false;
        for &id in order.iter().rev() {
            let mut out = BitSet::new(universe);
            for &s in &cfg.nodes[id].succs {
                out.union_with(&live_in[s]);
            }
            let mut inset = out.clone();
            if let Some((d, strong)) = node_defs[id] {
                if strong {
                    inset.remove(d as usize);
                }
            }
            for &u in &node_uses[id] {
                inset.insert(u as usize);
            }
            if inset != live_in[id] {
                live_in[id] = inset;
                changed = true;
            }
            live_out[id] = out;
        }
    }

    let mut stats = DataflowStats {
        defs: defs.len(),
        ..Default::default()
    };

    // du pairs + uninitialized uses (per use occurrence).
    for (id, uses) in node_uses.iter().enumerate() {
        for &used in uses {
            let reaching = defs_of_var[used as usize]
                .iter()
                .filter(|&&d| reach_in[id].contains(d))
                .count();
            stats.du_pairs += reaching;
            let is_tracked_local = let_locals.contains(used as usize)
                && !params.contains(used as usize)
                && !globals.contains(used as usize);
            if reaching == 0 && is_tracked_local {
                stats.possibly_uninitialized_uses += 1;
            }
        }
    }

    // Dead stores: strong def of a `let`-declared local not live out of its
    // node. Sites use the deadstore checker's predicate (any non-param,
    // non-global variable) so its diagnostics can be replayed from cache.
    let mut sites = Vec::new();
    for def in &defs {
        if !def.strong || live_out[def.node].contains(def.var as usize) {
            continue;
        }
        if let_locals.contains(def.var as usize) {
            stats.dead_stores += 1;
        }
        if !params.contains(def.var as usize) && !globals.contains(def.var as usize) {
            sites.push((def.node, def.var));
        }
    }
    (stats, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, Dialect};

    fn with_cfg<R>(src: &str, f: impl FnOnce(&Cfg<'_>, &minilang::Function) -> R) -> R {
        let m = parse_module("t.c", src, Dialect::C).unwrap();
        let func = &m.functions[0];
        let cfg = Cfg::build(func);
        f(&cfg, func)
    }

    fn stats(src: &str) -> DataflowStats {
        let p = minilang::parse_program("app", Dialect::C, &[("t.c".into(), src.into())]).unwrap();
        crate::context::AnalysisContext::build(&p).functions[0].dataflow
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn bitset_union_and_subtract() {
        let mut a = BitSet::new(10);
        a.insert(1);
        let mut b = BitSet::new(10);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn straight_line_reaching_defs() {
        with_cfg("fn f() { let x: int = 1; let y: int = x; }", |cfg, _| {
            let rd = reaching_definitions(cfg);
            assert_eq!(rd.defs.len(), 2);
            // At the second let, the def of x reaches.
            let y_node = rd.defs.iter().find(|d| d.var == "y").unwrap().node;
            let reaching: Vec<&str> = rd.reach_in[y_node]
                .iter()
                .map(|d| rd.defs[d].var.as_str())
                .collect();
            assert_eq!(reaching, vec!["x"]);
        });
    }

    #[test]
    fn strong_def_kills_previous() {
        with_cfg(
            "fn f() { let x: int = 1; x = 2; let y: int = x; }",
            |cfg, _| {
                let rd = reaching_definitions(cfg);
                let y_node = rd.defs.iter().find(|d| d.var == "y").unwrap().node;
                let reaching: Vec<usize> = rd.reach_in[y_node]
                    .iter()
                    .filter(|&d| rd.defs[d].var == "x")
                    .collect();
                // Only the second def of x reaches.
                assert_eq!(reaching.len(), 1);
                assert!(
                    rd.defs[reaching[0]].node > rd.defs.iter().find(|d| d.var == "x").unwrap().node
                );
            },
        );
    }

    #[test]
    fn weak_def_does_not_kill() {
        with_cfg(
            "fn f(i: int) { let b: int[8]; b[0] = 1; b[i] = 2; let y: int = b[0]; }",
            |cfg, _| {
                let rd = reaching_definitions(cfg);
                let y_node = rd.defs.iter().find(|d| d.var == "y").unwrap().node;
                let reaching_b = rd.reach_in[y_node]
                    .iter()
                    .filter(|&d| rd.defs[d].var == "b")
                    .count();
                // b[0]= and b[i]= both reach (weak defs never kill); the
                // bare `let b` declaration is not a def.
                assert_eq!(reaching_b, 2);
            },
        );
    }

    #[test]
    fn branch_merges_defs() {
        with_cfg(
            "fn f(c: int) { let x: int = 0; if c > 0 { x = 1; } else { x = 2; } let y: int = x; }",
            |cfg, _| {
                let rd = reaching_definitions(cfg);
                let y_node = rd.defs.iter().find(|d| d.var == "y").unwrap().node;
                let reaching_x = rd.reach_in[y_node]
                    .iter()
                    .filter(|&d| rd.defs[d].var == "x")
                    .count();
                // Both branch defs reach the join; the initial def is killed
                // on both paths.
                assert_eq!(reaching_x, 2);
            },
        );
    }

    #[test]
    fn loop_defs_reach_around_back_edge() {
        with_cfg(
            "fn f(n: int) { let i: int = 0; while i < n { i = i + 1; } let z: int = i; }",
            |cfg, _| {
                let rd = reaching_definitions(cfg);
                let z_node = rd.defs.iter().find(|d| d.var == "z").unwrap().node;
                let reaching_i = rd.reach_in[z_node]
                    .iter()
                    .filter(|&d| rd.defs[d].var == "i")
                    .count();
                // Initial def and loop-body def both reach after the loop.
                assert_eq!(reaching_i, 2);
            },
        );
    }

    #[test]
    fn liveness_detects_dead_store() {
        let s = stats("fn f() { let x: int = 1; x = 2; log_msg(\"k\"); }");
        // Both stores to x are dead (x never read).
        assert_eq!(s.dead_stores, 2);
    }

    #[test]
    fn live_store_is_not_dead() {
        let s = stats("fn f() -> int { let x: int = 1; return x; }");
        assert_eq!(s.dead_stores, 0);
    }

    #[test]
    fn loop_carried_variable_is_live() {
        let s =
            stats("fn f(n: int) -> int { let i: int = 0; while i < n { i = i + 1; } return i; }");
        assert_eq!(s.dead_stores, 0);
        assert!(s.du_pairs >= 4);
    }

    #[test]
    fn uninitialized_use_detected() {
        let s = stats("fn f() -> int { let x: int; return x + 1; }");
        assert_eq!(s.possibly_uninitialized_uses, 1);
    }

    #[test]
    fn params_are_not_uninitialized() {
        let s = stats("fn f(x: int) -> int { return x + 1; }");
        assert_eq!(s.possibly_uninitialized_uses, 0);
    }

    #[test]
    fn compound_assign_reads_its_target() {
        let s = stats("fn f() -> int { let x: int = 1; x += 2; return x; }");
        // x += 2 both uses and defines x; neither store is dead.
        assert_eq!(s.dead_stores, 0);
    }

    #[test]
    fn du_pairs_count_influence_edges() {
        let s = stats("fn f() -> int { let a: int = 1; let b: int = a + a; return b; }");
        // a: def reaches the `b` node which uses it (2 textual uses but the
        // pair is counted per use occurrence) → 2; b: def reaches return → 1.
        assert_eq!(s.du_pairs, 3);
    }
}
