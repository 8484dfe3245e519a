//! Engine integration tests: the parity suite (engine-dispatched solvers
//! must return byte-identical plans and costs to their direct
//! free-function calls) and a seeded property loop (every `Solution` the
//! engine hands out validates and respects its `ProblemKind` budget).

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
};

fn test_graphs() -> Vec<(String, VersionGraph)> {
    let mut graphs = Vec::new();
    for seed in 0..3 {
        graphs.push((
            format!("tree-{seed}"),
            random_tree(10, &CostModel::default(), seed),
        ));
        graphs.push((
            format!("er-{seed}"),
            erdos_renyi_bidirectional(12, 0.3, &CostModel::default(), seed),
        ));
    }
    graphs.push((
        "path".into(),
        bidirectional_path(14, &CostModel::default(), 9),
    ));
    graphs
}

/// Engine dispatch must add validation and metadata — never change the
/// plan. Byte-identical plans and costs for every deterministic solver.
#[test]
fn parity_lmg_and_lmg_all() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for (name, g) in test_graphs() {
        let smin = min_storage_value(&g);
        for budget in [smin, smin * 3 / 2, smin * 3] {
            let problem = ProblemKind::Msr {
                storage_budget: budget,
            };
            for (solver, direct) in [
                ("LMG", lmg(&g, budget).expect("feasible")),
                ("LMG-All", lmg_all(&g, budget).expect("feasible")),
            ] {
                let sol = engine
                    .solve_with(solver, &g, problem, &opts)
                    .expect("feasible");
                assert_eq!(sol.plan, direct, "{solver} plan differs on {name}");
                assert_eq!(sol.costs, direct.costs(&g), "{solver} costs on {name}");
                // The solver's internally tracked objective must agree with
                // the exact re-evaluation (PlanView::total_retrieval).
                assert_eq!(
                    sol.meta.reported_objective,
                    Some(sol.costs.total_retrieval),
                    "{solver} reported objective on {name}"
                );
            }
        }
    }
}

#[test]
fn parity_modified_prims() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for (name, g) in test_graphs() {
        for budget in [0, g.max_edge_retrieval(), g.max_edge_retrieval() * 3] {
            let problem = ProblemKind::Bmr {
                retrieval_budget: budget,
            };
            let direct = modified_prims(&g, budget);
            let sol = engine
                .solve_with("MP", &g, problem, &opts)
                .expect("MP is always feasible");
            assert_eq!(sol.plan, direct, "MP plan differs on {name}");
            assert_eq!(sol.costs, direct.costs(&g), "MP costs on {name}");
        }
    }
}

#[test]
fn parity_dp_msr_and_bsr_reduction() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for (name, g) in test_graphs() {
        let smin = min_storage_value(&g);
        let budget = smin * 2;
        let direct =
            dp_msr_on_graph(&g, NodeId(0), budget, &CancelToken::inert()).expect("feasible");
        let sol = engine
            .solve_with(
                "DP-MSR",
                &g,
                ProblemKind::Msr {
                    storage_budget: budget,
                },
                &opts,
            )
            .expect("feasible");
        assert_eq!(sol.plan, direct.0, "DP-MSR plan differs on {name}");
        assert_eq!(sol.costs, direct.1, "DP-MSR costs on {name}");

        // BSR through the same solver (Lemma-7 frontier lookup).
        let r_budget = g.max_edge_retrieval() * g.n() as u64;
        let (bsr_plan, bsr_storage) = bsr_via_msr(
            &g,
            NodeId(0),
            r_budget,
            TreeDpConfig::heuristic(&g, None),
            &CancelToken::inert(),
        )
        .expect("feasible");
        let sol = engine
            .solve_with(
                "DP-MSR",
                &g,
                ProblemKind::Bsr {
                    retrieval_budget: r_budget,
                },
                &opts,
            )
            .expect("feasible");
        assert_eq!(sol.plan, bsr_plan, "BSR plan differs on {name}");
        assert_eq!(sol.costs.storage, bsr_storage, "BSR storage on {name}");
    }
}

#[test]
fn parity_dp_bmr_and_mmr_reduction() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for (name, g) in test_graphs() {
        let r_budget = g.max_edge_retrieval();
        let direct =
            dp_bmr_on_graph(&g, NodeId(0), r_budget, &CancelToken::inert()).expect("connected");
        let sol = engine
            .solve_with(
                "DP-BMR",
                &g,
                ProblemKind::Bmr {
                    retrieval_budget: r_budget,
                },
                &opts,
            )
            .expect("feasible");
        assert_eq!(sol.plan, direct.plan, "DP-BMR plan differs on {name}");
        assert_eq!(
            sol.costs.storage, direct.storage,
            "DP-BMR storage on {name}"
        );

        // MMR through the same solver (Lemma-7 binary search).
        let smin = min_storage_value(&g);
        let (mmr_plan, mmr_value) =
            mmr_on_graph(&g, NodeId(0), smin * 2, &CancelToken::inert()).expect("feasible");
        let sol = engine
            .solve_with(
                "DP-BMR",
                &g,
                ProblemKind::Mmr {
                    storage_budget: smin * 2,
                },
                &opts,
            )
            .expect("feasible");
        assert_eq!(sol.plan, mmr_plan, "MMR plan differs on {name}");
        assert_eq!(sol.costs.max_retrieval, mmr_value, "MMR value on {name}");
        assert_eq!(sol.meta.reported_objective, Some(mmr_value));
    }
}

#[test]
fn parity_exact_solvers() {
    let engine = Engine::with_default_solvers();
    let g = bidirectional_path(6, &CostModel::default(), 4);
    let smin = min_storage_value(&g);
    let budget = smin * 2;
    let problem = ProblemKind::Msr {
        storage_budget: budget,
    };
    let opts = SolveOptions::default();

    // Brute force: deterministic enumeration, identical plan.
    let direct = brute_force(&g, problem, &CancelToken::inert()).expect("feasible");
    let sol = engine
        .solve_with("BruteForce", &g, problem, &opts)
        .expect("feasible");
    assert_eq!(sol.plan, direct.plan);
    assert_eq!(sol.costs, direct.costs);
    assert!(sol.meta.proven_optimal);

    // DP-BTW: constructive exact — the reconstructed plan realizes the
    // direct frontier value, byte-identically to the free function.
    let direct_value = btw_msr_value(&g, budget).expect("feasible");
    let (direct_plan, _) = btw_msr_plan(&g, budget).expect("feasible");
    let sol = engine
        .solve_with("DP-BTW", &g, problem, &opts)
        .expect("feasible");
    assert_eq!(sol.plan, direct_plan, "DP-BTW plan differs");
    assert_eq!(sol.costs.total_retrieval, direct_value);
    assert!(sol.meta.proven_optimal);
    assert_eq!(sol.meta.lower_bound, Some(direct_value));
    // Exact is exact: DP-BTW agrees with brute force.
    assert_eq!(
        sol.costs.total_retrieval,
        brute_force(&g, problem, &CancelToken::inert())
            .unwrap()
            .costs
            .total_retrieval
    );
}

/// Seeded property loop: every solution the engine returns — via plain
/// dispatch and via portfolio — validates structurally and respects its
/// problem's budget, across random trees and Erdős–Rényi graphs, all four
/// problem kinds, and a spread of budgets.
#[test]
fn property_every_solution_validates_and_respects_its_budget() {
    let engine = Engine::with_default_solvers();
    let mut solutions = 0usize;
    for seed in 0..10u64 {
        let g = if seed % 2 == 0 {
            random_tree(4 + (seed as usize * 3) % 9, &CostModel::default(), seed)
        } else {
            erdos_renyi_bidirectional(
                4 + (seed as usize * 5) % 8,
                0.35,
                &CostModel::default(),
                seed,
            )
        };
        let smin = min_storage_value(&g);
        let rmax = g.max_edge_retrieval();
        let opts = SolveOptions::default();
        let problems = [
            ProblemKind::Msr {
                storage_budget: smin + (seed % 4) * smin / 2,
            },
            ProblemKind::Mmr {
                storage_budget: smin + (seed % 3) * smin,
            },
            ProblemKind::Bsr {
                retrieval_budget: rmax * (1 + seed % 5) * g.n() as u64 / 2,
            },
            ProblemKind::Bmr {
                retrieval_budget: rmax * (seed % 3),
            },
        ];
        for problem in problems {
            match engine.solve(&g, problem, &opts) {
                Ok(sol) => {
                    sol.plan
                        .validate(&g)
                        .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", problem.name()));
                    assert!(
                        sol.constrained(problem) <= problem.budget(),
                        "seed {seed} {}: budget violated",
                        problem.name()
                    );
                    solutions += 1;
                }
                Err(SolveError::Infeasible { .. }) => {}
                Err(other) => panic!("seed {seed} {}: unexpected {other}", problem.name()),
            }
            // Portfolio on the small instances (it also runs the exact
            // solvers): the winner must beat-or-match plain dispatch.
            if g.n() <= 8 {
                if let Ok(p) = engine.portfolio(&g, problem, &opts) {
                    p.best.plan.validate(&g).expect("portfolio plan valid");
                    assert!(p.best.constrained(problem) <= problem.budget());
                    if let Ok(dispatched) = engine.solve(&g, problem, &opts) {
                        assert!(
                            p.best.objective(problem) <= dispatched.objective(problem),
                            "seed {seed} {}: portfolio worse than dispatch",
                            problem.name()
                        );
                    }
                    solutions += 1;
                }
            }
        }
    }
    assert!(
        solutions >= 30,
        "property loop exercised too few solutions ({solutions})"
    );
}

/// The objective accessor must match the problem's objective side, and the
/// constrained accessor the budget side, for all four kinds.
#[test]
fn objective_and_constraint_sides_are_consistent() {
    let engine = Engine::with_default_solvers();
    let g = random_tree(9, &CostModel::default(), 11);
    let opts = SolveOptions::default();
    let smin = min_storage_value(&g);
    let rmax = g.max_edge_retrieval();

    let msr = engine
        .solve(
            &g,
            ProblemKind::Msr {
                storage_budget: smin * 2,
            },
            &opts,
        )
        .expect("feasible");
    assert_eq!(
        msr.objective(ProblemKind::Msr {
            storage_budget: smin * 2
        }),
        msr.costs.total_retrieval
    );
    assert_eq!(
        msr.constrained(ProblemKind::Msr {
            storage_budget: smin * 2
        }),
        msr.costs.storage
    );

    let bmr = engine
        .solve(
            &g,
            ProblemKind::Bmr {
                retrieval_budget: rmax,
            },
            &opts,
        )
        .expect("feasible");
    assert_eq!(
        bmr.objective(ProblemKind::Bmr {
            retrieval_budget: rmax
        }),
        bmr.costs.storage
    );
    assert_eq!(
        bmr.constrained(ProblemKind::Bmr {
            retrieval_budget: rmax
        }),
        bmr.costs.max_retrieval
    );
}
