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
//! matches. Budget-blocked candidates are *parked* keyed by their need,
//! the storage the move adds, and revived once it fits the budget.
//! Amortized cost per move is `O(Δ·deg·log m)` instead of `O(n + m)`.
//!
//! # Resuming a run at a larger budget
//!
//! A run's choices depend on the budget only through parking, so runs at
//! budgets `B` and `B' = B + Δ` pick the same moves until `B` leaves a
//! candidate parked whose need fits under `B'`. Each run therefore logs,
//! per selection, its *slack*: `storage + least parked need − B` right
//! after the selection (`Cost::MAX` when nothing is parked). At the first
//! selection `t*` whose slack is at most `Δ`, the two runs may part; before
//! it every candidate that outranks the chosen one is parked under both
//! budgets. An [`LmgAllRun`] at `B` thus answers `B'`:
//!
//! * with no `t*`, its plan is the answer;
//! * with `t*` at the last selection, `B'` continues from its final plan;
//! * otherwise `B'` replays the first `t*` moves (view updates only, no
//!   scoring) and continues from there.
//!
//! A continuation seeds a fresh heap at the state it reached. That picks
//! what the cold run picks: both select the best candidate feasible at the
//! current state, since every heap entry holds its candidate's current
//! score except for feasibility, which selection re-checks. A budget
//! below the run's runs cold. A cold run is the same loop with no
//! previous run, so every path returns the cold run's plan and stats.
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
    run_incremental(g, &min_storage_plan(g), storage_budget, None, |_, _| {})
        .map(|run| (run.plan, run.stats))
}

/// One finished LMG-All run, with what a later run at a larger budget
/// needs to continue it (see the module docs).
#[derive(Debug)]
pub(crate) struct LmgAllRun {
    /// The budget the run was made at.
    budget: Cost,
    /// The applied moves, in order.
    moves: Vec<Move>,
    /// One slack per selection, the terminating one included:
    /// `moves.len() + 1` entries.
    slack: Vec<Cost>,
    /// The final plan.
    pub(crate) plan: StoragePlan,
    /// The run's diagnostics, equal to a cold run's.
    pub(crate) stats: LmgAllStats,
    /// How many of `moves` were taken from the previous run, kept or
    /// replayed, instead of being selected again.
    pub(crate) resumed: usize,
}

impl LmgAllRun {
    /// Bytes of the move and slack logs and the final plan, by length.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.moves.len() * size_of::<Move>()
            + self.slack.len() * size_of::<Cost>()
            + self.plan.parent.len() * size_of::<Parent>()
    }
}

/// LMG-All on `g` at `storage_budget`, continuing `prev` where it applies:
/// `start` must be [`min_storage_plan`]`(g)` computed earlier, and `prev`
/// a run on the same `g` and `start`. The sharded solver keeps each
/// shard's arborescence and last run across budgets and hands them in
/// here. The result equals a cold run's in plan and stats.
pub(crate) fn lmg_all_resume(
    g: &VersionGraph,
    start: &StoragePlan,
    storage_budget: Cost,
    prev: Option<LmgAllRun>,
) -> Option<LmgAllRun> {
    run_incremental(g, start, storage_budget, prev, |_, _| {})
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
        let ds = (new_cost - paid) as u128;
        if dr == 0 {
            return Scored::Skip;
        }
        // Parked even when `ds` alone exceeds the budget: a larger budget
        // continuing this run may take it.
        if view.storage() as u128 + ds > storage_budget as u128 {
            return Scored::Park { need: ds };
        }
        Scored::Push(Ratio::Finite { dr, ds })
    }
}

/// Incremental greedy behind [`lmg_all_with_stats`] and
/// [`lmg_all_resume`]: take what applies of `prev` (see the module docs),
/// score all candidates once at the state that leaves, then per move
/// re-score only the dirty region and let the candidate heap pick the
/// maximum. `start` is the minimum-storage arborescence of `g`; `observe`
/// sees every move the loop selects and the plan right after it (exposed
/// to tests as [`super::oracle::lmg_all_traced`]).
pub(super) fn run_incremental(
    g: &VersionGraph,
    start: &StoragePlan,
    storage_budget: Cost,
    prev: Option<LmgAllRun>,
    mut observe: impl FnMut(Move, &StoragePlan),
) -> Option<LmgAllRun> {
    // The plan to continue from, the moves the run keeps, and how many of
    // those, from the front, still have to be applied to the plan.
    let (mut plan, mut moves, mut slack, replay) = match prev {
        Some(mut run) if storage_budget >= run.budget => {
            let raise = storage_budget - run.budget;
            let parted = run.slack.iter().position(|&s| s <= raise);
            let kept = parted.unwrap_or(run.slack.len());
            // Up to `parted` both budgets park the same entries.
            for s in &mut run.slack[..kept] {
                *s -= raise;
            }
            run.slack.truncate(kept);
            match parted {
                None => {
                    run.budget = storage_budget;
                    run.resumed = run.moves.len();
                    return Some(run);
                }
                Some(t) if t == run.moves.len() => (run.plan, run.moves, run.slack, 0),
                Some(t) => {
                    run.moves.truncate(t);
                    (start.clone(), run.moves, run.slack, t)
                }
            }
        }
        _ => (start.clone(), Vec::new(), Vec::new(), 0),
    };
    if plan.storage_cost(g) > storage_budget {
        return None;
    }
    let mut view = IncrementalPlanView::new(g, &plan);
    for &mv in &moves[..replay] {
        let (v, new_parent) = mv.entry(g);
        view.apply(g, &mut plan, v, new_parent);
    }
    let resumed = moves.len();
    let mut stats = LmgAllStats {
        moves: resumed,
        materializations: moves
            .iter()
            .filter(|mv| matches!(mv, Move::Materialize { .. }))
            .count(),
        ..LmgAllStats::default()
    };
    let mut cands = CandidateHeap::with_capacity(2 * g.m().max(g.n()));

    for mv in all_moves(g) {
        let sc = score(g, &plan, &mut view, storage_budget, mv);
        cands.update(sc, mv);
    }

    loop {
        let chosen = {
            let storage_now = view.storage();
            let mut rescore = |mv: Move| score(g, &plan, &mut view, storage_budget, mv);
            cands.revive(storage_now, storage_budget, &mut rescore);
            let chosen = cands.select(&mut rescore);
            let slack_now = cands.least_need().map_or(Cost::MAX, |need| {
                let over = (storage_now as u128 + need).saturating_sub(storage_budget as u128);
                over.min(Cost::MAX as u128) as Cost
            });
            slack.push(slack_now);
            chosen
        };
        let Some(mv) = chosen else {
            stats.total_retrieval = view.total_retrieval();
            stats.storage = view.storage();
            return Some(LmgAllRun {
                budget: storage_budget,
                moves,
                slack,
                plan,
                stats,
                resumed,
            });
        };

        if matches!(mv, Move::Materialize { .. }) {
            stats.materializations += 1;
        }
        stats.moves += 1;
        moves.push(mv);
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
    use crate::heuristics::IncrementalPlanView;
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

    /// A cold run with its log.
    fn cold(g: &VersionGraph, budget: Cost) -> Option<LmgAllRun> {
        run_incremental(g, &min_storage_plan(g), budget, None, |_, _| {})
    }

    /// Which way a run at `from` answers `to`: 0 = cold, 1 = kept,
    /// 2 = continued from its final plan, 3 = replayed a prefix.
    fn path(prev: &LmgAllRun, to: Cost) -> usize {
        if to < prev.budget {
            return 0;
        }
        match prev.slack.iter().position(|&s| s <= to - prev.budget) {
            None => 1,
            Some(t) if t == prev.moves.len() => 2,
            Some(_) => 3,
        }
    }

    fn fixtures() -> Vec<VersionGraph> {
        let m = CostModel::default();
        let mut gs: Vec<VersionGraph> = (0..3)
            .map(|seed| erdos_renyi_bidirectional(30, 0.2, &m, seed))
            .collect();
        gs.extend((0..2).map(|seed| random_tree(40, &m, seed)));
        gs.push(dsv_vgraph::generators::shard_forest(3, 25, 4, &m, 5));
        gs
    }

    #[test]
    fn resumed_runs_equal_cold_runs_over_budget_sweeps() {
        let mut paths = [0usize; 4];
        for g in fixtures() {
            let start = min_storage_plan(&g);
            let smin = min_storage_value(&g);
            let top = StoragePlan::materialize_all(&g).storage_cost(&g);
            let mut state = g.fingerprint() | 1;
            let mut jitter = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 1_000
            };
            // Rising in small and large steps, repeated, falling,
            // infeasible, rising again, past materialize-all.
            let mut budgets: Vec<Cost> = (0..12).map(|i| smin + i * 1_000 + jitter()).collect();
            budgets.extend([smin + 11_500, smin + 11_500, smin + 3_000, smin - 1]);
            budgets.extend((1..=4).map(|i| smin + (top - smin) * i / 4));
            budgets.extend([top * 2, smin + 2_000]);
            let mut prev: Option<LmgAllRun> = None;
            for &b in &budgets {
                if let Some(p) = &prev {
                    paths[path(p, b)] += 1;
                }
                let want = cold(&g, b);
                let got = lmg_all_resume(&g, &start, b, prev.take());
                match (&want, &got) {
                    (Some(w), Some(r)) => {
                        assert_eq!(w.moves, r.moves, "budget {b}");
                        assert_eq!(w.plan, r.plan, "budget {b}");
                        assert_eq!(w.stats, r.stats, "budget {b}");
                        assert_eq!(r.slack.len(), r.moves.len() + 1);
                        assert!(r.slack.iter().all(|&s| s > 0), "budget {b}");
                    }
                    (None, None) => {}
                    _ => panic!("budget {b}: cold {want:?} vs resumed {got:?}"),
                }
                prev = got;
            }
        }
        assert!(paths.iter().all(|&n| n > 0), "every path taken: {paths:?}");
    }

    #[test]
    fn a_raise_of_exactly_the_slack_parts_at_that_selection() {
        let mut replayed = 0;
        for g in fixtures() {
            let start = min_storage_plan(&g);
            let budget = min_storage_value(&g) + 5_000;
            let base = cold(&g, budget).expect("feasible");
            for t in 0..base.slack.len() {
                let s = base.slack[t];
                if s == Cost::MAX || base.slack[..t].iter().any(|&e| e <= s) {
                    continue; // only a prefix minimum parts exactly at `t`
                }
                for raise in [s - 1, s] {
                    let prev = cold(&g, budget).expect("feasible");
                    let b = budget + raise;
                    let parted = prev.slack.iter().position(|&e| e <= raise);
                    assert_eq!(parted == Some(t), raise == s, "t {t} raise {raise}");
                    replayed += usize::from(parted.is_some_and(|p| p < prev.moves.len()));
                    let got = lmg_all_resume(&g, &start, b, Some(prev)).expect("feasible");
                    let want = cold(&g, b).expect("feasible");
                    assert_eq!(want.moves, got.moves, "budget {b}");
                    assert_eq!(want.plan, got.plan, "budget {b}");
                    assert_eq!(want.stats, got.stats, "budget {b}");
                }
            }
        }
        assert!(replayed > 0, "some raise replays a prefix");
    }

    #[test]
    fn a_fresh_heap_at_any_reached_state_continues_like_the_cold_run() {
        for g in fixtures() {
            let start = min_storage_plan(&g);
            let budget = min_storage_value(&g) * 3 / 2;
            let base = cold(&g, budget).expect("feasible");
            for t in 0..=base.moves.len() {
                // A log that parts at `t` under a raise of 0: replay the
                // first `t` moves, seed a fresh heap there, continue.
                let mut slack = vec![Cost::MAX; base.slack.len()];
                slack[t] = 0;
                let prev = LmgAllRun {
                    budget,
                    moves: base.moves.clone(),
                    slack,
                    plan: base.plan.clone(),
                    stats: base.stats.clone(),
                    resumed: 0,
                };
                let got = lmg_all_resume(&g, &start, budget, Some(prev)).expect("feasible");
                assert_eq!(got.resumed, t);
                assert_eq!(got.moves, base.moves, "continued from move {t}");
                assert_eq!(got.plan, base.plan);
                assert_eq!(got.stats, base.stats);
            }
        }
    }

    #[test]
    fn a_move_larger_than_the_budget_is_parked_and_taken_on_resume() {
        // `b` is stored as a delta of `a`; materializing it adds 999,
        // more than the whole budget of 500.
        let mut g = VersionGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(1_000);
        g.add_edge(a, b, 1, 5);
        let start = min_storage_plan(&g);
        let mut view = IncrementalPlanView::new(&g, &start);
        let mat_b = Move::Materialize { node: b.0 };
        assert!(matches!(
            score(&g, &start, &mut view, 500, mat_b),
            Scored::Park { need: 999 }
        ));
        let run = cold(&g, 500).expect("feasible");
        assert!(run.moves.is_empty());
        assert_eq!(run.slack, [11 + 999 - 500]);
        let resumed = lmg_all_resume(&g, &start, 11 + 999, Some(run)).expect("feasible");
        assert_eq!(resumed.moves, [mat_b]);
        assert_eq!(resumed.resumed, 0);
        assert_eq!(Some(resumed.plan), lmg_all(&g, 11 + 999));
    }

    #[test]
    fn unlimited_budget_drives_retrieval_to_zero() {
        let g = bidirectional_path(12, &CostModel::default(), 7);
        let plan = lmg_all(&g, u64::MAX / 8).expect("feasible");
        assert_eq!(plan.costs(&g).total_retrieval, 0);
    }
}
