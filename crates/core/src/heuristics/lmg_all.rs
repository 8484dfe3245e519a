//! LMG-All, Algorithm 7 of the paper (Section 6.1).
//!
//! LMG only ever *materializes* versions; LMG-All enlarges the greedy move
//! set to every single-edge modification: replace a version's stored delta
//! by any other incoming delta `(u, v)` (as long as `u` is not a descendant
//! of `v` — that would create a cycle), or by materialization. Moves that
//! do not increase storage get ratio `∞` as in the paper; otherwise the
//! ratio is retrieval-reduction per storage-increase.
//!
//! [`lmg_all`] runs the **incremental** loop: an `IncrementalPlanView`
//! maintains retrieval/size/paid state with subtree-local updates, and a
//! `CandidateHeap` holding **one entry per move** replaces the
//! per-iteration rescan. After a move only the candidates touched by its
//! dirty region are re-scored, each updating its own entry in place;
//! selection re-scores the top entry and takes it if the score still
//! matches. Budget-blocked candidates are *parked* keyed by the largest
//! total storage at which they fit and revived when storage drops.
//! Amortized cost per move is `O(Δ·deg·log m)` instead of `O(n + m)`.
//!
//! The from-scratch loop (rebuild the view, rescan all candidates each
//! iteration) is the differential oracle
//! [`oracle::lmg_all_scratch`](super::oracle::lmg_all_scratch); both pick
//! **byte-identical move sequences** (asserted by
//! `tests/lmg_incremental.rs`). The oracle's candidate scan covers edges
//! *and* materializations in one data-parallel pass on rayon once the graph
//! has at least 8,192 of them — the "parallelizable heuristics" point the
//! paper makes when comparing against the inherently sequential LMG. The
//! incremental loop makes no rayon call: it seeds its heap sequentially and
//! re-scores only dirty regions.
//!
//! Selection tie-breaking (identical in both loops): higher `Ratio`
//! first, then edge replacements beat materializations, then the higher
//! index wins.

use super::{Candidate, CandidateHeap, IncrementalPlanView, MoveEffect, Ratio, Scored};
use crate::baselines::min_storage_plan;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{Cost, EdgeId, NodeId, VersionGraph};

/// One greedy move: change `node`'s parent in the stored-delta forest.
///
/// The derived order is the tie-break among equal ratios, in both the
/// oracle scan and the candidate heap: edge moves beat materializations
/// (variant order), then the higher index wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Move {
    /// Materialize the node (store it in full).
    Materialize {
        /// The node to materialize.
        node: u32,
    },
    /// Store this delta edge for its destination node.
    Reparent {
        /// The edge (by id) to store.
        edge: u32,
    },
}

impl Candidate for Move {
    /// Edge moves take the even slots, materializations the odd ones.
    fn slot(self) -> usize {
        match self {
            Move::Reparent { edge } => 2 * edge as usize,
            Move::Materialize { node } => 2 * node as usize + 1,
        }
    }
}

impl Move {
    /// The node this move re-parents and its new plan entry.
    pub(crate) fn entry(self, g: &VersionGraph) -> (usize, Parent) {
        match self {
            Move::Materialize { node } => (node as usize, Parent::Materialized),
            Move::Reparent { edge } => (
                g.edge(EdgeId(edge)).dst.index(),
                Parent::Delta(EdgeId(edge)),
            ),
        }
    }
}

/// Diagnostics of an LMG-All run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LmgAllStats {
    /// Number of moves applied.
    pub moves: usize,
    /// Of which, materializations.
    pub materializations: usize,
    /// Total retrieval of the final plan as tracked by the greedy's own
    /// view (no extra costing pass).
    pub total_retrieval: Cost,
    /// Total storage of the final plan, likewise tracked by the view.
    pub storage: Cost,
}

/// Run LMG-All under a storage budget. Returns `None` when the
/// minimum-storage plan already exceeds the budget.
pub fn lmg_all(g: &VersionGraph, storage_budget: Cost) -> Option<StoragePlan> {
    lmg_all_with_stats(g, storage_budget).map(|(p, _)| p)
}

/// [`lmg_all`] plus run diagnostics.
pub fn lmg_all_with_stats(
    g: &VersionGraph,
    storage_budget: Cost,
) -> Option<(StoragePlan, LmgAllStats)> {
    run_incremental(g, min_storage_plan(g), storage_budget, |_, _| {})
}

/// [`lmg_all_with_stats`] from `start`, which must be
/// [`min_storage_plan`]`(g)` computed earlier: the sharded solver keeps
/// each shard's arborescence across budgets and hands it in here.
pub(crate) fn lmg_all_from(
    g: &VersionGraph,
    start: StoragePlan,
    storage_budget: Cost,
) -> Option<(StoragePlan, LmgAllStats)> {
    run_incremental(g, start, storage_budget, |_, _| {})
}

/// Score one candidate move against the current incremental state.
/// Mirrors the oracle's candidate evaluation exactly, with the budget
/// test split out as [`Scored::Park`]. Shared with the online planner
/// (`crate::online`), which runs the same greedy loop over a mutating
/// graph.
pub(crate) fn score(
    g: &VersionGraph,
    plan: &StoragePlan,
    view: &mut IncrementalPlanView,
    storage_budget: Cost,
    mv: Move,
) -> Scored {
    let (dr, paid, new_cost) = match mv {
        Move::Reparent { edge } => {
            let e = g.edge(EdgeId(edge));
            let (u, v) = (e.src.index(), e.dst.index());
            if plan.parent[v] == Parent::Delta(EdgeId(edge)) {
                return Scored::Skip; // already stored
            }
            if view.is_ancestor(v, u) {
                return Scored::Skip; // cycle guard
            }
            let Some(new_r) = view.r[u].checked_add(e.retrieval) else {
                return Scored::Skip;
            };
            let old_r = view.r[v];
            if new_r > old_r {
                return Scored::Skip; // retrieval must not grow
            }
            let dr = (old_r - new_r) as u128 * view.size[v] as u128;
            (dr, view.paid[v], e.storage)
        }
        Move::Materialize { node } => {
            let v = node as usize;
            if matches!(plan.parent[v], Parent::Materialized) {
                return Scored::Skip;
            }
            let dr = view.r[v] as u128 * view.size[v] as u128;
            (dr, view.paid[v], g.node_storage(NodeId::new(v)))
        }
    };
    if new_cost <= paid {
        let ds = (paid - new_cost) as u128;
        if dr == 0 && ds == 0 {
            return Scored::Skip;
        }
        Scored::Push(Ratio::Infinite { dr, ds })
    } else {
        let ds = new_cost - paid;
        if dr == 0 {
            return Scored::Skip;
        }
        match storage_budget.checked_sub(ds) {
            // ds alone exceeds the budget: infeasible at any storage.
            None => Scored::Skip,
            Some(max_storage) if view.storage() > max_storage => Scored::Park {
                max_storage: max_storage as u128,
            },
            Some(_) => Scored::Push(Ratio::Finite { dr, ds: ds as u128 }),
        }
    }
}

/// Incremental greedy behind [`lmg_all_with_stats`]: starting from
/// `plan` (the minimum-storage arborescence of `g`), score all candidates
/// once, then per move re-score only the dirty region and let the
/// candidate heap pick the maximum. `observe` sees every applied move and
/// the plan right after it (exposed to tests as
/// [`super::oracle::lmg_all_traced`]).
pub(super) fn run_incremental(
    g: &VersionGraph,
    mut plan: StoragePlan,
    storage_budget: Cost,
    mut observe: impl FnMut(Move, &StoragePlan),
) -> Option<(StoragePlan, LmgAllStats)> {
    if plan.storage_cost(g) > storage_budget {
        return None;
    }
    let mut stats = LmgAllStats::default();
    let mut view = IncrementalPlanView::new(g, &plan);
    let mut cands = CandidateHeap::with_capacity(2 * g.m().max(g.n()));

    for mv in all_moves(g) {
        let sc = score(g, &plan, &mut view, storage_budget, mv);
        cands.update(sc, mv);
    }

    loop {
        let chosen = {
            let storage_now = view.storage();
            let mut rescore = |mv: Move| score(g, &plan, &mut view, storage_budget, mv);
            cands.revive(storage_now, &mut rescore);
            cands.select(&mut rescore)
        };
        let Some(mv) = chosen else {
            stats.total_retrieval = view.total_retrieval();
            stats.storage = view.storage();
            return Some((plan, stats));
        };

        if matches!(mv, Move::Materialize { .. }) {
            stats.materializations += 1;
        }
        stats.moves += 1;
        let (v, new_parent) = mv.entry(g);
        let effect = view.apply(g, &mut plan, v, new_parent);
        observe(mv, &plan);
        for_each_dirty(g, &effect, |mv| {
            let sc = score(g, &plan, &mut view, storage_budget, mv);
            cands.update(sc, mv);
        });
    }
}

/// Every candidate move of `g`, edges first: the seeding order of the
/// candidate heap. Shared with the online planner.
pub(crate) fn all_moves(g: &VersionGraph) -> impl Iterator<Item = Move> {
    let (m, n) = (g.m() as u32, g.n() as u32);
    (0..m)
        .map(|edge| Move::Reparent { edge })
        .chain((0..n).map(|node| Move::Materialize { node }))
}

/// Visit exactly the candidates whose evaluation inputs a move touched
/// (see the dirty-region invariants in the module docs): all edges
/// incident to the moved subtree plus its nodes' materializations, and the
/// in-edges + materializations of the ancestor-path nodes whose subtree
/// size changed. Shared with the online planner.
pub(crate) fn for_each_dirty(g: &VersionGraph, effect: &MoveEffect, mut visit: impl FnMut(Move)) {
    for &x in &effect.subtree {
        visit(Move::Materialize { node: x });
        let xv = NodeId(x);
        for &e in g.in_edges(xv).iter().chain(g.out_edges(xv)) {
            visit(Move::Reparent { edge: e.0 });
        }
    }
    for &x in &effect.path {
        visit(Move::Materialize { node: x });
        for &e in g.in_edges(NodeId(x)) {
            visit(Move::Reparent { edge: e.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use crate::heuristics::lmg::lmg;
    use crate::heuristics::oracle::{lmg_all_scratch, lmg_all_traced};
    use dsv_vgraph::generators::{
        bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
    };

    #[test]
    fn feasibility_mirror_of_lmg() {
        let g = random_tree(12, &CostModel::default(), 1);
        assert!(lmg_all(&g, 0).is_none());
        let smin = min_storage_value(&g);
        let plan = lmg_all(&g, smin).expect("feasible at the minimum");
        plan.validate(&g).expect("valid");
        assert!(plan.storage_cost(&g) <= smin);
    }

    #[test]
    fn never_worse_than_starting_plan_and_within_budget() {
        let g = erdos_renyi_bidirectional(24, 0.3, &CostModel::default(), 2);
        let smin = min_storage_value(&g);
        let base = crate::baselines::min_storage_plan(&g).costs(&g);
        for budget in [smin, smin * 2, smin * 4] {
            let plan = lmg_all(&g, budget).expect("feasible");
            plan.validate(&g).expect("valid");
            let c = plan.costs(&g);
            assert!(c.storage <= budget);
            assert!(c.total_retrieval <= base.total_retrieval);
        }
    }

    #[test]
    fn incremental_and_scratch_agree_move_by_move() {
        for seed in 0..6u64 {
            let g = erdos_renyi_bidirectional(20, 0.3, &CostModel::default(), seed);
            let smin = min_storage_value(&g);
            for budget in [smin, smin * 2, smin * 5] {
                let mut scratch_moves = Vec::new();
                let scratch = lmg_all_scratch(&g, budget, |mv, _| scratch_moves.push(mv));
                let mut inc_moves = Vec::new();
                let inc = lmg_all_traced(&g, budget, |mv, _| inc_moves.push(mv));
                assert_eq!(scratch_moves, inc_moves, "seed {seed} budget {budget}");
                assert_eq!(scratch, inc, "seed {seed} budget {budget}");
            }
        }
    }

    #[test]
    fn stats_track_final_costs() {
        let g = erdos_renyi_bidirectional(16, 0.3, &CostModel::default(), 4);
        let budget = min_storage_value(&g) * 3;
        let (plan, stats) = lmg_all_with_stats(&g, budget).expect("feasible");
        let costs = plan.costs(&g);
        assert_eq!(stats.total_retrieval, costs.total_retrieval);
        assert_eq!(stats.storage, costs.storage);
    }

    #[test]
    fn theorem1_chain_traps_greedy_but_not_the_optimum() {
        // The adversarial chain of Figure 2 (Theorem 1): nodes A, B, C with
        // storages a, b, c; edges (A,B) and (B,C) with costs (1-eps)b and
        // (1-eps)c, eps = b/c. With budget in [a + (1-eps)b + c, a + b + c)
        // the greedy ratio prefers materializing B (rho = 2/eps - 1) over C
        // (rho = 1/eps - eps), after which C no longer fits: both LMG and
        // LMG-All end at (1-eps)c although (1-eps)b is achievable — the gap
        // c/b is unbounded.
        let (b, c) = (100u64, 10_000u64); // eps = 0.01
        let eb = b - b * b / c; // (1 - b/c) * b = 99
        let ec = c - b; // (1 - b/c) * c = 9900
        let a = 1_000_000u64;
        let mut g = VersionGraph::new();
        let va = g.add_node(a);
        let vb = g.add_node(b);
        let vc = g.add_node(c);
        let e_ab = g.add_edge(va, vb, eb, eb);
        g.add_edge(vb, vc, ec, ec);
        let budget = a + eb + c; // within the adversarial window
        let lmg_cost = lmg(&g, budget).expect("feasible").costs(&g).total_retrieval;
        let all_plan = lmg_all(&g, budget).expect("feasible");
        let all_cost = all_plan.costs(&g).total_retrieval;
        assert!(all_cost <= lmg_cost);
        // Both greedies fall into the Theorem-1 trap...
        assert_eq!(lmg_cost, ec);
        assert_eq!(all_cost, ec);
        // ...while the optimum materializes C instead and fits the budget.
        let opt = StoragePlan {
            parent: vec![
                Parent::Materialized,
                Parent::Delta(e_ab),
                Parent::Materialized,
            ],
        };
        opt.validate(&g).expect("valid");
        let oc = opt.costs(&g);
        assert!(oc.storage <= budget);
        assert_eq!(oc.total_retrieval, eb);
        assert_eq!(lmg_cost / oc.total_retrieval, 100, "gap is 1/eps");
    }

    #[test]
    fn typically_at_least_as_good_as_lmg_on_random_graphs() {
        let mut lmg_wins = 0;
        for seed in 0..12 {
            let g = erdos_renyi_bidirectional(18, 0.25, &CostModel::default(), seed);
            let smin = min_storage_value(&g);
            let budget = smin * 2;
            let a = lmg(&g, budget).expect("feasible").costs(&g).total_retrieval;
            let b = lmg_all(&g, budget)
                .expect("feasible")
                .costs(&g)
                .total_retrieval;
            if a < b {
                lmg_wins += 1;
            }
        }
        // Greedy means no dominance guarantee, but LMG should essentially
        // never beat LMG-All (paper: "LMG-All consistently outperforms").
        assert!(lmg_wins <= 2, "LMG won {lmg_wins}/12 times");
    }

    #[test]
    fn unlimited_budget_drives_retrieval_to_zero() {
        let g = bidirectional_path(12, &CostModel::default(), 7);
        let plan = lmg_all(&g, u64::MAX / 8).expect("feasible");
        assert_eq!(plan.costs(&g).total_retrieval, 0);
    }
}
