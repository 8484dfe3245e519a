//! Exact and FPTAS front ends of the tree MSR engine (Section 5.1).
//!
//! * [`msr_tree_exact`] — no discretization: the exact optimum over plans
//!   restricted to the bidirectional tree. Worst-case exponential state
//!   (it is NP-hard even on arborescences, Theorem 6), fine on the small
//!   instances used for ground truth.
//! * [`msr_tree_fptas`] — the Section-5.1 scheme with root-retrieval values
//!   rounded to ticks of `l = ε·r_max/n²`, a `(1+ε)`-style approximation in
//!   the additive `ε·r_max` form of Lemma 9.

use super::extract::BidirTree;
use super::msr_engine::{run_tree_msr, TreeDpConfig, TreeMsrDp};
use crate::cancel::CancelToken;
use dsv_vgraph::VersionGraph;

/// Exact MSR over tree plans (ground truth for tests; small trees only).
pub fn msr_tree_exact<'a>(g: &'a VersionGraph, t: &'a BidirTree) -> TreeMsrDp<'a> {
    run_tree_msr(g, t, TreeDpConfig::exact(), &CancelToken::inert())
        .expect("inert token never cancels")
}

/// The Section-5.1 FPTAS with parameter `ε`.
pub fn msr_tree_fptas<'a>(g: &'a VersionGraph, t: &'a BidirTree, epsilon: f64) -> TreeMsrDp<'a> {
    run_tree_msr(g, t, TreeDpConfig::fptas(g, epsilon), &CancelToken::inert())
        .expect("inert token never cancels")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::msr_optimum;
    use crate::tree::extract::extract_tree;
    use dsv_vgraph::generators::{bidirectional_path, caterpillar, random_tree, star, CostModel};
    use dsv_vgraph::NodeId;

    fn check_exact_matches_brute(g: &VersionGraph, budgets: &[u64]) {
        let t = extract_tree(g, NodeId(0)).expect("connected");
        let dp = msr_tree_exact(g, &t);
        for &budget in budgets {
            let want = msr_optimum(g, budget);
            let got = dp.best_under(budget).map(|(_, r)| r);
            assert_eq!(got, want, "budget {budget}");
            if let Some((plan, pair)) = dp.plan_under(budget) {
                plan.validate(g).expect("valid plan");
                let c = plan.costs(g);
                assert_eq!(c.storage, pair.0, "plan storage must match frontier");
                assert_eq!(
                    c.total_retrieval, pair.1,
                    "exact mode: plan retrieval must match frontier"
                );
                assert!(c.storage <= budget);
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_on_paths() {
        let g = bidirectional_path(6, &CostModel::default(), 1);
        let smin = crate::baselines::min_storage_value(&g);
        check_exact_matches_brute(&g, &[smin - 1, smin, smin * 3 / 2, smin * 2, smin * 5]);
    }

    #[test]
    fn exact_matches_brute_force_on_random_trees() {
        for seed in 0..10 {
            let g = random_tree(7, &CostModel::default(), seed);
            let smin = crate::baselines::min_storage_value(&g);
            check_exact_matches_brute(&g, &[smin, smin * 2, smin * 4]);
        }
    }

    #[test]
    fn exact_matches_brute_force_on_stars_and_caterpillars() {
        let g = star(7, &CostModel::single_weight(), 2);
        let smin = crate::baselines::min_storage_value(&g);
        check_exact_matches_brute(&g, &[smin, smin * 2]);
        let g = caterpillar(3, 1, &CostModel::default(), 3);
        let smin = crate::baselines::min_storage_value(&g);
        check_exact_matches_brute(&g, &[smin, smin * 3 / 2, smin * 3]);
    }

    #[test]
    fn fptas_brackets_the_optimum() {
        for seed in 0..6 {
            let g = random_tree(8, &CostModel::default(), seed + 100);
            let t = extract_tree(&g, NodeId(0)).expect("connected");
            let exact = msr_tree_exact(&g, &t);
            for eps in [0.1, 0.5, 2.0] {
                let approx = msr_tree_fptas(&g, &t, eps);
                let smin = crate::baselines::min_storage_value(&g);
                for budget in [smin, smin * 2, smin * 4] {
                    let opt = exact.best_under(budget).expect("feasible").1;
                    let got = approx.best_under(budget).expect("feasible").1;
                    // Estimates only ever round up...
                    assert!(got >= opt);
                    // ...by at most the Lemma-9 additive bound ε·r_max
                    // (γ-rounding compounds along chains; the engine's bound
                    // is Σ_v depth_v · l ≤ n² · l = ε·r_max).
                    let slack = (eps * g.max_edge_retrieval() as f64).ceil() as u64;
                    assert!(
                        got <= opt + slack.max(1),
                        "eps {eps} budget {budget}: {got} > {opt} + {slack}"
                    );
                }
            }
        }
    }

    #[test]
    fn fptas_plans_are_still_exactly_costed() {
        // Even with coarse ticks, reconstructed plans re-evaluate to at most
        // the frontier estimate (rounding is always upward).
        let g = random_tree(12, &CostModel::default(), 42);
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        let dp = msr_tree_fptas(&g, &t, 1.0);
        let smin = crate::baselines::min_storage_value(&g);
        let (plan, pair) = dp.plan_under(smin * 2).expect("feasible");
        plan.validate(&g).expect("valid");
        let c = plan.costs(&g);
        assert_eq!(c.storage, pair.0);
        assert!(c.total_retrieval <= pair.1);
    }

    #[test]
    fn infeasible_budget_gives_none() {
        let g = bidirectional_path(5, &CostModel::default(), 9);
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        let dp = msr_tree_exact(&g, &t);
        assert!(dp.best_under(0).is_none());
        assert!(dp.plan_under(0).is_none());
    }
}
