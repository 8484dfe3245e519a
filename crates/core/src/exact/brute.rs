//! Exhaustive search over all storage plans.
//!
//! Every version independently picks "materialize" or one incoming delta;
//! a choice vector is a valid plan iff the stored deltas are acyclic. The
//! search space is `∏_v (indeg(v) + 1)`, so this is strictly a tiny-instance
//! tool — it exists to give the property tests exact optima for all four
//! problems at once.

use crate::cancel::CancelToken;
use crate::plan::{Parent, PlanCosts, StoragePlan};
use crate::problem::ProblemKind;
use dsv_vgraph::{NodeId, VersionGraph};

/// Exact optima of all four problems under the given budgets.
#[derive(Clone, Debug)]
pub struct BruteForceResult {
    /// Optimal plan and objective for the requested problem.
    pub plan: StoragePlan,
    /// Its full cost vector.
    pub costs: PlanCosts,
}

/// Upper bound on the number of plans the enumerator will visit.
pub const ENUMERATION_LIMIT: u128 = 20_000_000;

/// Size of the enumeration space `∏_v (indeg(v) + 1)` — what
/// [`for_each_plan`] would visit, saturating at `u128::MAX` (large graphs
/// overflow any integer width long before they are enumerable). The engine
/// uses this to refuse intractable instances instead of panicking.
pub fn enumeration_space(g: &VersionGraph) -> u128 {
    (0..g.n())
        .map(|v| g.in_degree(NodeId::new(v)) as u128 + 1)
        .fold(1u128, |acc, d| acc.saturating_mul(d))
}

/// How many visited assignments pass between cancellation polls.
const CANCEL_POLL_STRIDE: u64 = 4_096;

/// Enumerate every valid plan, calling `f` with each plan and its costs,
/// and poll `cancel` every `CANCEL_POLL_STRIDE` (4096) visited
/// assignments. Returns `true` iff the enumeration ran to completion
/// (`false` = preempted mid-way, so any aggregate the callback built is
/// partial and must be discarded).
pub fn for_each_plan(
    g: &VersionGraph,
    mut f: impl FnMut(&StoragePlan, &PlanCosts),
    cancel: &CancelToken,
) -> bool {
    let n = g.n();
    let space: u128 = enumeration_space(g);
    assert!(
        space <= ENUMERATION_LIMIT,
        "brute force space {space} exceeds limit; use it only on tiny instances"
    );
    let mut plan = StoragePlan {
        parent: vec![Parent::Materialized; n],
    };
    let mut visited = 0u64;
    fn rec(
        g: &VersionGraph,
        v: usize,
        plan: &mut StoragePlan,
        cancel: &CancelToken,
        visited: &mut u64,
        f: &mut impl FnMut(&StoragePlan, &PlanCosts),
    ) -> bool {
        if v == g.n() {
            *visited += 1;
            if (*visited).is_multiple_of(CANCEL_POLL_STRIDE) && cancel.is_cancelled() {
                return false;
            }
            if plan.validate(g).is_ok() {
                let costs = plan.costs(g);
                f(plan, &costs);
            }
            return true;
        }
        plan.parent[v] = Parent::Materialized;
        if !rec(g, v + 1, plan, cancel, visited, f) {
            return false;
        }
        for &e in g.in_edges(NodeId::new(v)) {
            plan.parent[v] = Parent::Delta(e);
            if !rec(g, v + 1, plan, cancel, visited, f) {
                return false;
            }
        }
        plan.parent[v] = Parent::Materialized;
        true
    }
    rec(g, 0, &mut plan, cancel, &mut visited, &mut f)
}

/// Solve one of the four problems exactly. Returns `None` when no plan
/// satisfies the constraint, or when `cancel` fired mid-enumeration (never
/// a partial best, so results stay deterministic); callers distinguish the
/// two by re-checking the token.
pub fn brute_force(
    g: &VersionGraph,
    problem: ProblemKind,
    cancel: &CancelToken,
) -> Option<BruteForceResult> {
    let mut best: Option<BruteForceResult> = None;
    let consider = |plan: &StoragePlan, costs: &PlanCosts| {
        let (feasible, objective) = match problem {
            ProblemKind::Msr { storage_budget } => {
                (costs.storage <= storage_budget, costs.total_retrieval)
            }
            ProblemKind::Mmr { storage_budget } => {
                (costs.storage <= storage_budget, costs.max_retrieval)
            }
            ProblemKind::Bsr { retrieval_budget } => {
                (costs.total_retrieval <= retrieval_budget, costs.storage)
            }
            ProblemKind::Bmr { retrieval_budget } => {
                (costs.max_retrieval <= retrieval_budget, costs.storage)
            }
        };
        if !feasible {
            return;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                let b_obj = match problem {
                    ProblemKind::Msr { .. } => b.costs.total_retrieval,
                    ProblemKind::Mmr { .. } => b.costs.max_retrieval,
                    ProblemKind::Bsr { .. } | ProblemKind::Bmr { .. } => b.costs.storage,
                };
                objective < b_obj
            }
        };
        if better {
            best = Some(BruteForceResult {
                plan: plan.clone(),
                costs: *costs,
            });
        }
    };
    let complete = for_each_plan(g, consider, cancel);
    if complete {
        best
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{bidirectional_path, CostModel};

    #[test]
    fn enumerates_chain_plans() {
        // 3-node directed path: node 0 has no in-edge (always materialized),
        // nodes 1,2 have one each: 1*2*2 = 4 plans, all acyclic.
        let mut g = VersionGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(11);
        let c = g.add_node(12);
        g.add_edge(a, b, 1, 1);
        g.add_edge(b, c, 1, 1);
        let mut count = 0;
        for_each_plan(&g, |_, _| count += 1, &CancelToken::inert());
        assert_eq!(count, 4);
    }

    #[test]
    fn bidirectional_pair_skips_cyclic_assignment() {
        let mut g = VersionGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(11);
        g.add_bidirectional_edge(a, b, 1, 1);
        // 2*2 = 4 assignments, 1 cyclic (both delta) -> 3 valid plans.
        let mut count = 0;
        for_each_plan(&g, |_, _| count += 1, &CancelToken::inert());
        assert_eq!(count, 3);
    }

    #[test]
    fn msr_extremes() {
        let g = bidirectional_path(5, &CostModel::default(), 1);
        // Unlimited budget: all materialized, zero retrieval.
        let r = brute_force(
            &g,
            ProblemKind::Msr {
                storage_budget: u64::MAX / 8,
            },
            &CancelToken::inert(),
        )
        .expect("feasible");
        assert_eq!(r.costs.total_retrieval, 0);
        // Below minimum storage: infeasible.
        assert!(brute_force(
            &g,
            ProblemKind::Msr { storage_budget: 1 },
            &CancelToken::inert()
        )
        .is_none());
    }

    #[test]
    fn bmr_zero_budget_forces_full_materialization() {
        let g = bidirectional_path(4, &CostModel::default(), 2);
        let r = brute_force(
            &g,
            ProblemKind::Bmr {
                retrieval_budget: 0,
            },
            &CancelToken::inert(),
        )
        .expect("feasible");
        assert_eq!(r.costs.storage, g.total_node_storage());
        assert_eq!(r.plan.materialized_count(), 4);
    }

    #[test]
    fn objectives_are_consistent_across_problems() {
        let g = bidirectional_path(5, &CostModel::single_weight(), 3);
        let smin = crate::baselines::min_storage_value(&g);
        let budget = smin * 2;
        let msr = brute_force(
            &g,
            ProblemKind::Msr {
                storage_budget: budget,
            },
            &CancelToken::inert(),
        )
        .expect("ok");
        let mmr = brute_force(
            &g,
            ProblemKind::Mmr {
                storage_budget: budget,
            },
            &CancelToken::inert(),
        )
        .expect("ok");
        // Max retrieval of the MSR optimum is an upper bound for MMR's
        // optimum; totals relate the other way.
        assert!(mmr.costs.max_retrieval <= msr.costs.max_retrieval);
        assert!(msr.costs.total_retrieval <= mmr.costs.total_retrieval);
        // MSR optimum must satisfy its own budget.
        assert!(msr.costs.storage <= budget);
    }
}
