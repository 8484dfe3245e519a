//! Differential suite for the **constructive** DP-BTW (the acceptance
//! gate of the provenance-arena refactor):
//!
//! * on every seeded small graph (ER, path, tree × budget sweeps) the
//!   reconstructed plan validates, fits the budget, and its total
//!   retrieval equals **both** the DP certificate and `brute_force`'s
//!   exact optimum;
//! * through the engine, `DP-BTW` solutions carry `proven_optimal == true`
//!   with `lower_bound == reported_objective == costs.total_retrieval` —
//!   there is no heuristic witness fallback on this path;
//! * a `max_states`-exceeded instance still degrades gracefully to `None`
//!   (a typed `ResourceLimit` through the engine), never to a wrong plan.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, series_parallel, CostModel,
};
use dsv_core::exact::brute::msr_optimum;

/// Budget sweep for one graph: just-infeasible, minimum, and a spread of
/// slacker budgets (the interesting regime where delta choices matter).
fn budget_sweep(g: &VersionGraph) -> Vec<Cost> {
    let smin = min_storage_value(g);
    vec![
        smin.saturating_sub(1),
        smin,
        smin + smin / 4,
        smin * 3 / 2,
        smin * 2,
        smin * 4,
    ]
}

/// The core differential check: certificate == reconstructed plan ==
/// brute-force optimum, at every budget in the sweep.
fn assert_constructive_exact(g: &VersionGraph, tag: &str) {
    for budget in budget_sweep(g) {
        let want = msr_optimum(g, budget);
        let cfg = BtwConfig {
            storage_prune: Some(budget),
            ..Default::default()
        };
        let result =
            btw_msr(g, &cfg, &CancelToken::inert()).expect("small graphs stay within max_states");
        let certificate = result.best_under(budget);
        assert_eq!(
            certificate, want,
            "{tag} @ {budget}: certificate disagrees with brute force"
        );
        match result.plan_under(g, budget) {
            None => assert_eq!(
                want, None,
                "{tag} @ {budget}: DP found no plan on a feasible instance"
            ),
            Some((plan, (s, rho))) => {
                plan.validate(g)
                    .unwrap_or_else(|e| panic!("{tag} @ {budget}: invalid plan: {e}"));
                let costs = plan.costs(g);
                assert!(
                    costs.storage <= budget,
                    "{tag} @ {budget}: plan over budget ({})",
                    costs.storage
                );
                assert_eq!(
                    (costs.storage, costs.total_retrieval),
                    (s, rho),
                    "{tag} @ {budget}: frontier entry does not price its own plan"
                );
                assert_eq!(
                    Some(rho),
                    certificate,
                    "{tag} @ {budget}: reconstructed plan misses the certificate"
                );
            }
        }
    }
}

#[test]
fn constructive_exact_on_paths() {
    for n in [2usize, 3, 5, 7] {
        let g = bidirectional_path(n, &CostModel::default(), n as u64);
        assert_constructive_exact(&g, &format!("path-{n}"));
    }
}

#[test]
fn constructive_exact_on_random_trees() {
    for seed in 0..6 {
        let g = random_tree(7, &CostModel::default(), seed);
        assert_constructive_exact(&g, &format!("tree-{seed}"));
    }
}

#[test]
fn constructive_exact_on_er_graphs() {
    for seed in 0..8 {
        let g = erdos_renyi_bidirectional(6, 0.4, &CostModel::default(), seed);
        assert_constructive_exact(&g, &format!("er-{seed}"));
    }
}

#[test]
fn constructive_exact_on_series_parallel() {
    // Treewidth-2 but not trees: the class where DP-BTW is the only exact
    // polynomial solver in the registry.
    for seed in 0..6 {
        let g = series_parallel(4, &CostModel::default(), seed);
        if g.n() > 7 {
            continue; // keep brute force tractable
        }
        assert_constructive_exact(&g, &format!("sp-{seed}"));
    }
}

/// Through the engine: `proven_optimal` is unconditional on DP success and
/// the plan realizes the certificate — asserted across graph classes.
#[test]
fn engine_btw_solutions_are_proven_optimal() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for seed in 0..4u64 {
        let graphs = [
            random_tree(8, &CostModel::default(), seed),
            erdos_renyi_bidirectional(7, 0.4, &CostModel::default(), seed + 100),
        ];
        for g in graphs {
            let smin = min_storage_value(&g);
            for budget in [smin, smin * 2] {
                let problem = ProblemKind::Msr {
                    storage_budget: budget,
                };
                let sol = engine
                    .solve_with("DP-BTW", &g, problem, &opts)
                    .expect("feasible");
                assert!(sol.meta.proven_optimal, "seed {seed} budget {budget}");
                assert_eq!(sol.meta.lower_bound, Some(sol.costs.total_retrieval));
                assert_eq!(sol.meta.reported_objective, Some(sol.costs.total_retrieval));
                assert_eq!(
                    Some(sol.costs.total_retrieval),
                    msr_optimum(&g, budget),
                    "seed {seed} budget {budget}: engine plan is not optimal"
                );
            }
        }
    }
}

/// Exceeding `max_states` must degrade gracefully: `None` from the free
/// function, a typed `ResourceLimit` from the engine — never a plan.
#[test]
fn max_states_exceeded_degrades_gracefully() {
    let g = erdos_renyi_bidirectional(16, 0.9, &CostModel::default(), 3);
    let budget = min_storage_value(&g) * 2;
    let cfg = BtwConfig {
        max_states: 50,
        storage_prune: Some(budget),
    };
    assert!(btw_msr(&g, &cfg, &CancelToken::inert()).is_none());

    let engine = Engine::with_default_solvers();
    let opts = SolveOptions {
        btw: BtwConfig {
            max_states: 50,
            ..Default::default()
        },
        ..Default::default()
    };
    let err = engine
        .solve_with(
            "DP-BTW",
            &g,
            ProblemKind::Msr {
                storage_budget: budget,
            },
            &opts,
        )
        .expect_err("state explosion must not produce a plan");
    assert!(
        matches!(
            err,
            SolveError::ResourceLimit {
                solver: "DP-BTW",
                ..
            }
        ),
        "{err}"
    );
}

/// A budget below the minimum-storage plan is infeasible: the constructive
/// path reports it exactly like the value path.
#[test]
fn infeasible_budgets_reconstruct_nothing() {
    let g = bidirectional_path(5, &CostModel::default(), 11);
    let smin = min_storage_value(&g);
    let cfg = BtwConfig {
        storage_prune: Some(smin - 1),
        ..Default::default()
    };
    let r = btw_msr(&g, &cfg, &CancelToken::inert()).expect("tiny width");
    assert_eq!(r.best_under(smin - 1), None);
    assert!(r.plan_under(&g, smin - 1).is_none());

    let engine = Engine::with_default_solvers();
    let err = engine
        .solve_with(
            "DP-BTW",
            &g,
            ProblemKind::Msr {
                storage_budget: smin - 1,
            },
            &SolveOptions::default(),
        )
        .expect_err("below minimum storage");
    assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
}
