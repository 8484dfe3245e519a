//! DP-MSR — the practical MinSum Retrieval heuristic of Section 6.2.
//!
//! Pipeline: extract a bidirectional tree from the minimum `s+r`
//! arborescence (step 1–2) and run the tree MSR engine with the practical
//! configuration (step 3 plus the three speed-ups the paper lists):
//! storage-indexed geometric Pareto frontiers, geometric discretization,
//! and pruning of partial solutions above a storage threshold.
//!
//! One engine run yields the *entire* storage/retrieval frontier, which is
//! why Figure 11/12 draw DP-MSR's runtime as a single horizontal line: a
//! whole sweep costs one DP.

use super::extract::{extract_tree, BidirTree};
use super::msr_engine::{run_tree_msr, Pair, TreeDpConfig, TreeMsrDp};
use crate::cancel::CancelToken;
use crate::plan::{PlanCosts, StoragePlan};
use dsv_vgraph::{Cost, NodeId, VersionGraph};

/// The DP state plus the tree it was computed on.
pub struct DpMsr<'a> {
    /// The underlying engine state.
    pub dp: TreeMsrDp<'a>,
}

impl<'a> DpMsr<'a> {
    /// The full `(storage, retrieval)` frontier (estimates; plans
    /// re-evaluate to at most these retrieval values).
    pub fn frontier(&self) -> Vec<Pair> {
        self.dp.frontier()
    }

    /// Reconstruct and exactly re-cost a plan for one budget.
    pub fn plan_under(&self, g: &VersionGraph, budget: Cost) -> Option<(StoragePlan, PlanCosts)> {
        let (plan, _) = self.dp.plan_under(budget)?;
        let costs = plan.costs(g);
        Some((plan, costs))
    }

    /// Total DP state count of this run (see
    /// [`TreeMsrDp::state_count`]).
    pub fn state_count(&self) -> usize {
        self.dp.state_count()
    }
}

/// Run DP-MSR ([`TreeDpConfig::heuristic`]) on a pre-extracted tree,
/// pruning partial solutions above `storage_prune` (the largest queried
/// budget; the paper uses 2×–10× the minimum storage). Returns `None` iff
/// `cancel` fired before the pass completed.
pub fn dp_msr<'a>(
    g: &'a VersionGraph,
    t: &'a BidirTree,
    storage_prune: Cost,
    cancel: &CancelToken,
) -> Option<DpMsr<'a>> {
    let cfg = TreeDpConfig::heuristic(g, Some(storage_prune));
    Some(DpMsr {
        dp: run_tree_msr(g, t, cfg, cancel)?,
    })
}

/// Full pipeline for a single budget: extract the tree rooted at `root`,
/// run the DP pruned at `budget`, reconstruct the plan. `None` when the
/// graph is not spanning-reachable from `root`, the budget is below the
/// tree's minimum storage, or `cancel` fired mid-run.
pub fn dp_msr_on_graph(
    g: &VersionGraph,
    root: NodeId,
    budget: Cost,
    cancel: &CancelToken,
) -> Option<(StoragePlan, PlanCosts)> {
    let t = extract_tree(g, root)?;
    let state = dp_msr(g, &t, budget, cancel)?;
    state.plan_under(g, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use crate::engine::{Engine, SolveOptions};
    use crate::exact::brute::brute_force;
    use crate::heuristics::{lmg, lmg_all};
    use crate::problem::ProblemKind;
    use dsv_vgraph::generators::{bidirectional_path, caterpillar, random_tree, CostModel};

    #[test]
    fn near_optimal_on_small_trees() {
        for seed in 0..8 {
            let g = random_tree(7, &CostModel::default(), seed);
            let smin = min_storage_value(&g);
            for budget in [smin, smin * 2, smin * 4] {
                let problem = ProblemKind::Msr {
                    storage_budget: budget,
                };
                let opt = brute_force(&g, problem, &CancelToken::inert())
                    .expect("feasible")
                    .costs
                    .total_retrieval;
                let (plan, costs) = dp_msr_on_graph(&g, NodeId(0), budget, &CancelToken::inert())
                    .expect("feasible");
                plan.validate(&g).expect("valid");
                assert!(costs.storage <= budget);
                // Heuristic discretization is coarse but must stay close on
                // tiny instances.
                assert!(
                    costs.total_retrieval as f64 <= opt as f64 * 1.25 + 1.0,
                    "seed {seed} budget {budget}: {} vs opt {opt}",
                    costs.total_retrieval
                );
            }
        }
    }

    #[test]
    fn dominates_lmg_on_tree_instances() {
        // Paper Figure 10: on tree-like natural graphs DP-MSR beats LMG,
        // usually by a lot. Discretization allows tiny pointwise slack, but
        // in aggregate the DP must win clearly.
        let mut dp_total = 0u64;
        let mut greedy_total = 0u64;
        for seed in 0..5 {
            let g = caterpillar(12, 2, &CostModel::default(), seed);
            let smin = min_storage_value(&g);
            for budget in [smin * 5 / 4, smin * 2] {
                let dp = dp_msr_on_graph(&g, NodeId(0), budget, &CancelToken::inert())
                    .expect("feasible")
                    .1
                    .total_retrieval;
                let l = lmg(&g, budget).expect("feasible").costs(&g).total_retrieval;
                let la = lmg_all(&g, budget)
                    .expect("feasible")
                    .costs(&g)
                    .total_retrieval;
                let best_greedy = l.min(la);
                assert!(
                    dp as f64 <= best_greedy as f64 * 1.02 + 1.0,
                    "seed {seed} budget {budget}: dp {dp} vs lmg {l} / lmg-all {la}"
                );
                dp_total += dp;
                greedy_total += best_greedy;
            }
        }
        assert!(
            (dp_total as f64) < greedy_total as f64 * 0.9,
            "aggregate: dp {dp_total} should clearly beat greedy {greedy_total}"
        );
    }

    #[test]
    fn sweep_is_consistent_with_single_runs() {
        let g = bidirectional_path(20, &CostModel::default(), 3);
        let smin = min_storage_value(&g);
        let budgets = vec![smin, smin * 3 / 2, smin * 2, smin * 3];
        let sweep = Engine::default()
            .solve_sweep(&g, &budgets, &SolveOptions::default())
            .expect("connected");
        assert_eq!(sweep.len(), budgets.len());
        let costs: Vec<PlanCosts> = sweep
            .iter()
            .map(|s| s.as_ref().expect("feasible").costs)
            .collect();
        // Retrieval decreases along increasing budgets.
        for w in costs.windows(2) {
            assert!(w[1].total_retrieval <= w[0].total_retrieval);
        }
        // Each sweep point stays within budget.
        for (c, &b) in costs.iter().zip(&budgets) {
            assert!(c.storage <= b);
        }
    }

    #[test]
    fn infeasible_and_unreachable_cases() {
        let g = bidirectional_path(5, &CostModel::default(), 4);
        assert!(dp_msr_on_graph(&g, NodeId(0), 0, &CancelToken::inert()).is_none());
        let mut g2 = VersionGraph::with_nodes(2);
        g2.set_node_storage(NodeId(0), 1);
        g2.set_node_storage(NodeId(1), 1);
        assert!(dp_msr_on_graph(&g2, NodeId(0), 100, &CancelToken::inert()).is_none());
    }

    #[test]
    fn scales_to_medium_trees() {
        let g = random_tree(250, &CostModel::default(), 5);
        let smin = min_storage_value(&g);
        let budgets: Vec<u64> = (0..6).map(|i| smin + smin * i / 4).collect();
        let sweep = Engine::default()
            .solve_sweep(&g, &budgets, &SolveOptions::default())
            .expect("connected");
        assert!(sweep.iter().all(|c| c.is_some()));
    }
}
