//! Engine integration tests: the parity suite (engine-dispatched solvers
//! must return byte-identical plans and costs to their direct
//! free-function calls) and a seeded property loop (every `Solution` the
//! engine hands out validates and respects its `ProblemKind` budget, and
//! no solver beats the exact ones), plus the dispatch contract of
//! `Engine::solve`: solvers run one at a time in preference order, none
//! runs after the first success, and none starts past the deadline.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        let direct = dp_bmr(&g, &t, r_budget, &CancelToken::inert()).expect("inert token");
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
            mmr_via_bmr(&g, &t, smin * 2, &CancelToken::inert()).expect("feasible");
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
    let cfg = BtwConfig {
        storage_prune: Some(budget),
        ..Default::default()
    };
    let (direct_plan, (_, direct_value)) = btw_msr(&g, &cfg, &CancelToken::inert())
        .and_then(|r| r.plan_under(&g, budget))
        .expect("feasible");
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
/// dispatch and, on the small instances, from every supporting solver by
/// name — validates structurally and respects its problem's budget, across
/// random trees and Erdős–Rényi graphs, all four problem kinds, and a
/// spread of budgets. On those small instances no solver's objective beats
/// an exact solver's (DP-BTW, brute force).
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
            // Every supporting solver on the small instances (this also
            // runs the exact solvers): each plan validates and fits its
            // budget, and the exact objectives are the smallest.
            if g.n() <= 8 {
                let mut objectives = Vec::new();
                for solver in engine.solvers_for(problem) {
                    let Ok(sol) = engine.solve_with(solver.name(), &g, problem, &opts) else {
                        continue;
                    };
                    let label = format!("seed {seed} {} {}", problem.name(), solver.name());
                    sol.plan
                        .validate(&g)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(
                        sol.constrained(problem) <= problem.budget(),
                        "{label}: budget violated"
                    );
                    objectives.push((solver.name(), sol.objective(problem)));
                    solutions += 1;
                }
                let best = objectives.iter().map(|&(_, o)| o).min();
                for &(solver, objective) in &objectives {
                    if matches!(solver, "DP-BTW" | "BruteForce") {
                        assert_eq!(
                            Some(objective),
                            best,
                            "seed {seed} {}: a solver beat exact {solver}",
                            problem.name()
                        );
                    }
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

/// A scripted MSR solver that counts its calls and sleeps for `sleep`
/// (long enough for a dispatcher that ran solvers concurrently to start
/// the next one), then either reports the instance infeasible or answers
/// with the materialize-all plan under its own name.
struct Scripted {
    name: &'static str,
    succeeds: bool,
    sleep: Duration,
    calls: Arc<AtomicUsize>,
}

/// The sleep of the dispatch-order tests' scripted solvers.
const SCRIPTED_SLEEP: Duration = Duration::from_millis(50);

impl Scripted {
    fn new(name: &'static str, succeeds: bool, sleep: Duration) -> (Self, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let solver = Scripted {
            name,
            succeeds,
            sleep,
            calls: Arc::clone(&calls),
        };
        (solver, calls)
    }
}

impl Solver for Scripted {
    fn name(&self) -> &'static str {
        self.name
    }
    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Msr { .. })
    }
    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        _opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.sleep);
        if !self.succeeds {
            return Err(SolveError::Infeasible {
                solver: self.name,
                detail: "scripted failure".into(),
            });
        }
        let meta = SolverMeta {
            solver: self.name,
            iterations: 0,
            wall_time: Duration::ZERO,
            proven_optimal: false,
            reported_objective: None,
            lower_bound: None,
            shard: None,
        };
        Solution::checked(
            g,
            problem,
            StoragePlan::materialize_all(g),
            meta,
            Instant::now(),
        )
    }
}

/// Run `f` on a pool of `threads` threads.
fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// The MSR instance of the dispatch tests: a budget that fits the
/// materialize-all plan.
fn dispatch_instance() -> (VersionGraph, ProblemKind) {
    let g = random_tree(8, &CostModel::default(), 4);
    let storage_budget = StoragePlan::materialize_all(&g).storage_cost(&g);
    (g, ProblemKind::Msr { storage_budget })
}

/// Once a solver succeeds, no lower-preference solver is ever started,
/// whatever the pool width.
#[test]
fn solve_never_runs_a_solver_after_the_first_success() {
    let (g, problem) = dispatch_instance();
    for threads in [1, 4] {
        let (first, first_calls) = Scripted::new("first", true, SCRIPTED_SLEEP);
        let (second, second_calls) = Scripted::new("second", true, SCRIPTED_SLEEP);
        let mut engine = Engine::new();
        engine.register(Box::new(first)).register(Box::new(second));
        let sol = on_pool(threads, || {
            engine.solve(&g, problem, &SolveOptions::default())
        })
        .expect("the first solver succeeds");
        assert_eq!(sol.meta.solver, "first", "{threads} threads");
        assert_eq!(first_calls.load(Ordering::SeqCst), 1, "{threads} threads");
        assert_eq!(
            second_calls.load(Ordering::SeqCst),
            0,
            "a solver ran after the first success on {threads} threads"
        );
    }
}

/// A failing preferred solver falls through to the next one: its plan is
/// returned, and each solver runs exactly once.
#[test]
fn solve_falls_through_a_failure_to_the_next_solver() {
    let (g, problem) = dispatch_instance();
    for threads in [1, 4] {
        let (failing, failing_calls) = Scripted::new("failing", false, SCRIPTED_SLEEP);
        let (second, second_calls) = Scripted::new("second", true, SCRIPTED_SLEEP);
        let mut engine = Engine::new();
        engine
            .register(Box::new(failing))
            .register(Box::new(second));
        let sol = on_pool(threads, || {
            engine.solve(&g, problem, &SolveOptions::default())
        })
        .expect("the second solver succeeds");
        assert_eq!(sol.meta.solver, "second", "{threads} threads");
        assert_eq!(sol.plan, StoragePlan::materialize_all(&g));
        assert_eq!(failing_calls.load(Ordering::SeqCst), 1, "{threads} threads");
        assert_eq!(second_calls.load(Ordering::SeqCst), 1, "{threads} threads");
    }
}

/// A solver is never started once the call's deadline has passed: the
/// first solver sleeps past a 30 ms limit and then fails, and the solver
/// registered after it is skipped — zero calls — so its failure is the
/// call's answer.
#[test]
fn solve_starts_no_solver_past_the_deadline() {
    let (g, problem) = dispatch_instance();
    let (slow, slow_calls) = Scripted::new("slow", false, Duration::from_millis(80));
    let (next, next_calls) = Scripted::new("next", true, Duration::ZERO);
    let mut engine = Engine::new();
    engine.register(Box::new(slow)).register(Box::new(next));
    let opts = SolveOptions {
        time_limit: Some(Duration::from_millis(30)),
        ..Default::default()
    };
    let err = engine
        .solve(&g, problem, &opts)
        .expect_err("the only solver that ran failed");
    assert!(
        matches!(err, SolveError::Infeasible { solver: "slow", .. }),
        "expected the slow solver's failure, got {err}"
    );
    assert_eq!(slow_calls.load(Ordering::SeqCst), 1);
    assert_eq!(
        next_calls.load(Ordering::SeqCst),
        0,
        "a solver started past the deadline"
    );
}
