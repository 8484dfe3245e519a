//! Lemma-7 reductions between the bounded and the min problems.
//!
//! "Suppose we want to solve a MSR (resp. MMR) instance with storage
//! constraint S. We can use [a BSR/BMR algorithm] as a subroutine and
//! conduct binary search for the minimum retrieval constraint R* under
//! which BSR (resp. BMR) has optimal objective at most S."
//!
//! * [`mmr_via_bmr`] — MinMax Retrieval on trees through binary search over
//!   [`fn@crate::tree::dp_bmr`] (exact on the extracted tree).
//! * [`bsr_via_msr`] — BoundedSum Retrieval through the DP-MSR frontier: a
//!   single DP run already contains every `(storage, retrieval)` trade-off
//!   point, so the "binary search" degenerates into a frontier lookup,
//!   giving the `(1, 1+ε)` bicriteria guarantee of Table 3.

use crate::cancel::CancelToken;
use crate::plan::StoragePlan;
use crate::tree::dp_msr::DpMsr;
use crate::tree::extract::extract_tree;
use crate::tree::{dp_bmr, run_tree_msr, BidirTree, TreeDpConfig};
use dsv_vgraph::{Cost, NodeId, VersionGraph};

/// MinMax Retrieval on the extracted tree: the smallest max-retrieval bound
/// `R*` whose exact BMR storage optimum fits `storage_budget`, plus the
/// realizing plan. `None` when even `R = ∞` cannot fit (budget below the
/// tree's minimum storage), or when `cancel`, threaded through every
/// DP-BMR probe of the binary search, fired.
pub fn mmr_via_bmr(
    g: &VersionGraph,
    t: &BidirTree,
    storage_budget: Cost,
    cancel: &CancelToken,
) -> Option<(StoragePlan, Cost)> {
    // Upper limit: the largest finite path retrieval is at most n * r_max.
    let hi_limit = (g.n() as u64).saturating_mul(g.max_edge_retrieval());
    if dp_bmr(g, t, hi_limit, cancel)?.storage > storage_budget {
        return None;
    }
    let (mut lo, mut hi) = (0u64, hi_limit);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if dp_bmr(g, t, mid, cancel)?.storage <= storage_budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let result = dp_bmr(g, t, lo, cancel)?;
    debug_assert!(result.storage <= storage_budget);
    Some((result.plan, lo))
}

/// BoundedSum Retrieval through the frontier of one tree-MSR run under
/// `cfg` (the engine runs DP-MSR, `TreeDpConfig::heuristic(g, None)`):
/// minimum storage whose total retrieval estimate fits `retrieval_budget`.
/// Returns the plan and its exact storage. `None` when no frontier point
/// fits or `cancel` fired mid-run.
pub fn bsr_via_msr(
    g: &VersionGraph,
    root: NodeId,
    retrieval_budget: Cost,
    cfg: TreeDpConfig,
    cancel: &CancelToken,
) -> Option<(StoragePlan, Cost)> {
    let t = extract_tree(g, root)?;
    let state = DpMsr {
        dp: run_tree_msr(g, &t, cfg, cancel)?,
    };
    let (s, _) = state
        .frontier()
        .into_iter()
        .filter(|&(_, r)| r <= retrieval_budget)
        .min_by_key(|&(s, _)| s)?;
    let (plan, costs) = state.plan_under(g, s)?;
    debug_assert!(costs.total_retrieval <= retrieval_budget);
    Some((plan, costs.storage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::brute_force;
    use crate::problem::ProblemKind;
    use dsv_vgraph::generators::{bidirectional_path, random_tree, CostModel};

    /// MMR on the tree rooted at `NodeId(0)`, as the engine runs it.
    fn mmr(g: &VersionGraph, storage_budget: Cost) -> Option<(StoragePlan, Cost)> {
        let t = extract_tree(g, NodeId(0)).expect("connected");
        mmr_via_bmr(g, &t, storage_budget, &CancelToken::inert())
    }

    #[test]
    fn mmr_matches_brute_force_on_small_trees() {
        for seed in 0..6 {
            let g = random_tree(6, &CostModel::default(), seed);
            let smin = crate::baselines::min_storage_value(&g);
            for budget in [smin, smin * 2, smin * 8] {
                let want = brute_force(
                    &g,
                    ProblemKind::Mmr {
                        storage_budget: budget,
                    },
                    &CancelToken::inert(),
                )
                .expect("feasible")
                .costs
                .max_retrieval;
                let (plan, got) = mmr(&g, budget).expect("feasible");
                plan.validate(&g).expect("valid");
                let c = plan.costs(&g);
                assert!(c.storage <= budget);
                assert_eq!(c.max_retrieval, got);
                assert_eq!(got, want, "seed {seed} budget {budget}");
            }
        }
    }

    #[test]
    fn mmr_infeasible_when_budget_below_min_storage() {
        let g = bidirectional_path(5, &CostModel::default(), 1);
        assert!(mmr(&g, 1).is_none());
    }

    #[test]
    fn mmr_objective_monotone_in_budget() {
        let g = random_tree(25, &CostModel::default(), 7);
        let smin = crate::baselines::min_storage_value(&g);
        let mut last = u64::MAX;
        for mult in [1u64, 2, 3, 6, 12] {
            let (_, r) = mmr(&g, smin * mult).expect("feasible");
            assert!(r <= last);
            last = r;
        }
    }

    #[test]
    fn bsr_respects_budget_and_tracks_brute_force() {
        for seed in 0..5 {
            let g = random_tree(6, &CostModel::default(), seed + 50);
            // A generous retrieval budget: half the worst chain cost.
            let budget = g.max_edge_retrieval() * 3;
            let want = brute_force(
                &g,
                ProblemKind::Bsr {
                    retrieval_budget: budget,
                },
                &CancelToken::inert(),
            )
            .expect("feasible")
            .costs
            .storage;
            let (plan, storage) = bsr_via_msr(
                &g,
                NodeId(0),
                budget,
                TreeDpConfig::exact(),
                &CancelToken::inert(),
            )
            .expect("feasible");
            plan.validate(&g).expect("valid");
            assert!(plan.costs(&g).total_retrieval <= budget);
            assert_eq!(storage, want, "seed {}", seed);
        }
    }

    #[test]
    fn bsr_zero_budget_materializes_all() {
        let g = bidirectional_path(4, &CostModel::default(), 9);
        let (plan, storage) = bsr_via_msr(
            &g,
            NodeId(0),
            0,
            TreeDpConfig::heuristic(&g, None),
            &CancelToken::inert(),
        )
        .expect("feasible");
        assert_eq!(storage, g.total_node_storage());
        assert_eq!(plan.materialized_count(), 4);
    }
}
