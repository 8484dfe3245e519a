//! Local Move Greedy (LMG), Algorithm 1 of the paper.
//!
//! The prior state-of-the-art heuristic for MinSum Retrieval from
//! Bhattacherjee et al. [VLDB'15]: start from the minimum-storage
//! arborescence and repeatedly *materialize* the version with the best
//! ratio of retrieval-cost reduction to storage increase, while the budget
//! allows. Theorem 1 of the paper shows this can be arbitrarily bad (see
//! `examples/lmg_worst_case.rs`); LMG-All closes much of that gap.
//!
//! Materializing `v` sets `R(v) = 0` and shortens the retrieval of all
//! versions below `v` in the stored-delta forest by exactly `R(v)`, so the
//! reduction `Δ` of Algorithm 1 line 16 equals `R(v) · |subtree(v)|`.
//!
//! Like LMG-All, the inner loop is **incremental**: an
//! `IncrementalPlanView` absorbs each materialization with
//! subtree-local updates, and a `CandidateHeap` with one entry per node
//! re-scores only the candidates the move dirtied (the moved subtree and
//! its old ancestor path) — `O(Δ·log n)` amortized per move instead of
//! the from-scratch `O(n + m)` rebuild-and-rescan, which is kept as the
//! differential oracle
//! ([`oracle::lmg_scratch`](super::oracle::lmg_scratch)). Both loops pick
//! byte-identical move sequences; ties break to the **lowest** node id
//! (the oracle scans ids in order and replaces only on strict
//! improvement).

use super::{Candidate, CandidateHeap, IncrementalPlanView, Ratio, Scored};
use crate::baselines::min_storage_plan;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use std::cmp::Reverse;

/// Diagnostics of an LMG run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LmgStats {
    /// Number of materialization moves applied.
    pub moves: usize,
    /// Total retrieval of the final plan as tracked by the greedy's own
    /// view (no extra costing pass).
    pub total_retrieval: Cost,
    /// Total storage of the final plan, likewise tracked by the view.
    pub storage: Cost,
}

/// Run LMG under a storage budget. Returns `None` when even the
/// minimum-storage plan exceeds the budget (the instance is infeasible).
pub fn lmg(g: &VersionGraph, storage_budget: Cost) -> Option<StoragePlan> {
    lmg_with_stats(g, storage_budget).map(|(p, _)| p)
}

/// [`lmg`] plus run diagnostics.
pub fn lmg_with_stats(g: &VersionGraph, storage_budget: Cost) -> Option<(StoragePlan, LmgStats)> {
    run_incremental(g, storage_budget, |_, _| {})
}

/// LMG's candidates are nodes; the slot is the node id.
impl Candidate for Reverse<u32> {
    fn slot(self) -> usize {
        self.0 as usize
    }
}

/// Score materializing `v` against current state, mirroring the oracle's
/// scan body with the budget test split out for parking. The need is
/// exact because `paid[v]` cannot change while `v` is eligible (only
/// `v`'s own materialization would change it).
fn score(
    g: &VersionGraph,
    view: &mut IncrementalPlanView,
    eligible: &[bool],
    storage_budget: Cost,
    v: usize,
) -> Scored {
    if !eligible[v] {
        return Scored::Skip;
    }
    let dr = view.r[v] as u128 * view.size[v] as u128;
    if dr == 0 {
        return Scored::Skip;
    }
    let sv = g.node_storage(NodeId::new(v));
    let paid = view.paid[v];
    if sv <= paid {
        return Scored::Push(Ratio::Infinite {
            dr,
            ds: (paid - sv) as u128,
        });
    }
    let need = (sv - paid) as u128;
    // Feasible iff storage - paid + sv <= budget.
    if view.storage() as u128 + need > storage_budget as u128 {
        return Scored::Park { need };
    }
    Scored::Push(Ratio::Finite { dr, ds: need })
}

/// The incremental greedy loop behind [`lmg_with_stats`], invoking
/// `observe` with every materialized node and the plan right after the
/// move (exposed to tests as [`super::oracle::lmg_traced`]).
pub(super) fn run_incremental(
    g: &VersionGraph,
    storage_budget: Cost,
    mut observe: impl FnMut(u32, &StoragePlan),
) -> Option<(StoragePlan, LmgStats)> {
    let mut plan = min_storage_plan(g);
    if plan.storage_cost(g) > storage_budget {
        return None;
    }
    let mut stats = LmgStats::default();
    let mut view = IncrementalPlanView::new(g, &plan);
    let mut eligible: Vec<bool> = plan
        .parent
        .iter()
        .map(|p| matches!(p, Parent::Delta(_)))
        .collect();
    // Payload `Reverse(node)`: ties break to the lowest id, matching the
    // oracle's ascending scan with strict-improvement replacement.
    let mut cands = CandidateHeap::with_capacity(g.n());
    for v in 0..g.n() as u32 {
        let sc = score(g, &mut view, &eligible, storage_budget, v as usize);
        cands.update(sc, Reverse(v));
    }

    loop {
        let chosen = {
            let storage_now = view.storage();
            let mut rescore = |Reverse(v): Reverse<u32>| {
                score(g, &mut view, &eligible, storage_budget, v as usize)
            };
            cands.revive(storage_now, storage_budget, &mut rescore);
            cands.select(&mut rescore)
        };
        let Some(Reverse(v)) = chosen else {
            stats.total_retrieval = view.total_retrieval();
            stats.storage = view.storage();
            return Some((plan, stats));
        };

        let effect = view.apply(g, &mut plan, v as usize, Parent::Materialized);
        eligible[v as usize] = false;
        stats.moves += 1;
        observe(v, &plan);

        // Dirty region: the subtree's `r` changed and the old ancestor
        // path's `size` changed (materialization has no new parent path).
        for &x in effect.subtree.iter().chain(effect.path.iter()) {
            let sc = score(g, &mut view, &eligible, storage_budget, x as usize);
            cands.update(sc, Reverse(x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use crate::heuristics::oracle::{lmg_scratch, lmg_traced};
    use dsv_vgraph::generators::{
        bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
    };

    #[test]
    fn infeasible_budget_returns_none() {
        let g = random_tree(10, &CostModel::default(), 1);
        assert!(lmg(&g, 0).is_none());
        let min = min_storage_value(&g);
        assert!(lmg(&g, min).is_some());
    }

    #[test]
    fn respects_budget_and_improves_retrieval() {
        let g = bidirectional_path(40, &CostModel::default(), 2);
        let smin = min_storage_value(&g);
        let base_retrieval = crate::baselines::min_storage_plan(&g)
            .costs(&g)
            .total_retrieval;
        for budget in [smin, smin * 3 / 2, smin * 3, smin * 10] {
            let plan = lmg(&g, budget).expect("feasible");
            plan.validate(&g).expect("valid");
            let c = plan.costs(&g);
            assert!(
                c.storage <= budget,
                "storage {} > budget {budget}",
                c.storage
            );
            assert!(c.total_retrieval <= base_retrieval);
        }
    }

    #[test]
    fn retrieval_is_monotone_in_budget() {
        let g = bidirectional_path(30, &CostModel::default(), 3);
        let smin = min_storage_value(&g);
        let mut last = u64::MAX;
        for mult in [10, 15, 20, 30, 50] {
            let plan = lmg(&g, smin * mult / 10).expect("feasible");
            let c = plan.costs(&g);
            assert!(c.total_retrieval <= last);
            last = c.total_retrieval;
        }
    }

    #[test]
    fn unlimited_budget_materializes_everything_useful() {
        let g = bidirectional_path(10, &CostModel::default(), 4);
        let plan = lmg(&g, u64::MAX / 8).expect("feasible");
        // With unlimited storage every version is materialized: retrieval 0.
        assert_eq!(plan.costs(&g).total_retrieval, 0);
        assert_eq!(plan.materialized_count(), g.n());
    }

    #[test]
    fn stats_count_moves() {
        let g = bidirectional_path(10, &CostModel::default(), 5);
        let smin = min_storage_value(&g);
        let (_, stats) = lmg_with_stats(&g, smin * 2).expect("feasible");
        assert!(stats.moves >= 1);
    }

    #[test]
    fn incremental_and_scratch_agree_move_by_move() {
        for seed in 0..6u64 {
            let g = erdos_renyi_bidirectional(20, 0.3, &CostModel::default(), seed);
            let smin = min_storage_value(&g);
            for budget in [smin, smin * 2, smin * 5] {
                let mut scratch_moves = Vec::new();
                let scratch = lmg_scratch(&g, budget, |v, _| scratch_moves.push(v));
                let mut inc_moves = Vec::new();
                let inc = lmg_traced(&g, budget, |v, _| inc_moves.push(v));
                assert_eq!(scratch_moves, inc_moves, "seed {seed} budget {budget}");
                assert_eq!(scratch, inc, "seed {seed} budget {budget}");
            }
        }
    }
}
