//! Determinism and semantics of the parallel engine paths.
//!
//! The engine's contract is that parallel dispatch is an *implementation*
//! detail: racing/portfolio runs must return byte-identical plans and
//! equivalent scoreboards to the sequential path (taken on a one-thread
//! pool), whatever the pool width. These tests pin that contract
//! across seeded random graphs, plus the amortization guarantee of
//! `Engine::solve_sweep` (one DP run per sweep) and the skipped-attempt
//! marking for deadline-starved portfolios.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
};
use std::time::{Duration, Instant};

fn graphs() -> Vec<(String, VersionGraph)> {
    let mut out = Vec::new();
    for seed in 0..3 {
        out.push((
            format!("tree-{seed}"),
            random_tree(7 + seed as usize, &CostModel::default(), seed),
        ));
        out.push((
            format!("er-{seed}"),
            erdos_renyi_bidirectional(8, 0.3, &CostModel::default(), seed + 100),
        ));
    }
    out
}

/// Run `f` on a one-thread pool, where the engine dispatches one solver at
/// a time.
fn sequential<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(f)
}

fn problems(g: &VersionGraph) -> Vec<ProblemKind> {
    let smin = min_storage_value(g);
    let rmax = g.max_edge_retrieval();
    vec![
        ProblemKind::Msr {
            storage_budget: smin * 2,
        },
        ProblemKind::Mmr {
            storage_budget: smin * 2,
        },
        ProblemKind::Bmr {
            retrieval_budget: rmax,
        },
        ProblemKind::Bsr {
            retrieval_budget: rmax.saturating_mul(g.n() as u64),
        },
    ]
}

/// Portfolio: the parallel path must return a byte-identical best plan and
/// the same per-solver outcomes as the sequential path.
#[test]
fn parallel_portfolio_is_byte_identical_to_sequential() {
    let engine = Engine::with_default_solvers();
    for (name, g) in graphs() {
        for problem in problems(&g) {
            let par = engine.portfolio(&g, problem, &SolveOptions::default());
            let seq = sequential(|| engine.portfolio(&g, problem, &SolveOptions::default()));
            match (par, seq) {
                (Ok(par), Ok(seq)) => {
                    assert_eq!(
                        par.best.plan,
                        seq.best.plan,
                        "{name}/{}: best plan differs",
                        problem.name()
                    );
                    assert_eq!(par.best.costs, seq.best.costs);
                    assert_eq!(par.best.meta.solver, seq.best.meta.solver);
                    assert_eq!(par.attempts.len(), seq.attempts.len());
                    for (a, b) in par.attempts.iter().zip(&seq.attempts) {
                        assert_eq!(a.solver, b.solver, "{name}: registry order differs");
                        match (&a.outcome, &b.outcome) {
                            (AttemptOutcome::Solved(ca), AttemptOutcome::Solved(cb)) => {
                                assert_eq!(ca, cb, "{name}/{}: {}", problem.name(), a.solver)
                            }
                            (AttemptOutcome::Failed(_), AttemptOutcome::Failed(_)) => {}
                            (pa, pb) => panic!(
                                "{name}/{}: {} outcome kind differs: {pa:?} vs {pb:?}",
                                problem.name(),
                                a.solver
                            ),
                        }
                    }
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        std::mem::discriminant(&ea),
                        std::mem::discriminant(&eb),
                        "{name}/{}: error kind differs",
                        problem.name()
                    );
                }
                (par, seq) => panic!(
                    "{name}/{}: feasibility differs: parallel {:?} vs sequential {:?}",
                    problem.name(),
                    par.map(|p| p.best.costs),
                    seq.map(|p| p.best.costs),
                ),
            }
        }
    }
}

/// Racing solve: first-feasible short-circuiting must preserve sequential
/// first-success semantics exactly.
#[test]
fn parallel_solve_matches_sequential_dispatch() {
    let engine = Engine::with_default_solvers();
    for (name, g) in graphs() {
        for problem in problems(&g) {
            let par = engine.solve(&g, problem, &SolveOptions::default());
            let seq = sequential(|| engine.solve(&g, problem, &SolveOptions::default()));
            match (par, seq) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.plan, b.plan, "{name}/{}: plan differs", problem.name());
                    assert_eq!(a.meta.solver, b.meta.solver, "{name}/{}", problem.name());
                    assert_eq!(a.costs, b.costs);
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(std::mem::discriminant(&ea), std::mem::discriminant(&eb));
                }
                (a, b) => panic!(
                    "{name}/{}: feasibility differs: {a:?} vs {b:?}",
                    problem.name(),
                    a = a.map(|s| s.costs),
                    b = b.map(|s| s.costs),
                ),
            }
        }
    }
}

/// `solve_sweep` answers N budgets from exactly one DP-MSR run, asserted
/// via the surfaced run count and the identical per-solution iteration
/// metadata, and agrees with the free-function sweep it wraps.
#[test]
fn solve_sweep_performs_exactly_one_dp_run() {
    let engine = Engine::with_default_solvers();
    let g = bidirectional_path(24, &CostModel::default(), 7);
    let smin = min_storage_value(&g);
    let budgets: Vec<Cost> = (0..16).map(|i| smin + smin * i / 8).collect();

    let sweep = engine
        .solve_sweep(&g, &budgets, &SolveOptions::default())
        .expect("connected graph");
    assert_eq!(sweep.dp_runs, 1, "a sweep must cost exactly one DP run");
    assert_eq!(sweep.solutions.len(), budgets.len());

    let iteration_counts: Vec<usize> = sweep
        .solutions
        .iter()
        .flatten()
        .map(|s| s.meta.iterations)
        .collect();
    assert!(!iteration_counts.is_empty());
    assert!(
        iteration_counts.windows(2).all(|w| w[0] == w[1]),
        "all sweep solutions must report the single shared DP's state count"
    );

    // Parity with the algorithm-layer sweep (identical costs per budget).
    let direct =
        dp_msr_sweep(&g, NodeId(0), &budgets, &CancelToken::inert()).expect("connected graph");
    for ((b, sol), direct) in budgets.iter().zip(&sweep.solutions).zip(direct) {
        match (sol, direct) {
            (Some(sol), Some(costs)) => {
                sol.plan.validate(&g).expect("sweep plan valid");
                assert!(sol.costs.storage <= *b, "budget {b} violated");
                assert_eq!(sol.costs, costs, "budget {b}: engine vs direct sweep");
                assert_eq!(sol.meta.solver, "DP-MSR");
            }
            (None, None) => {}
            (sol, direct) => {
                panic!("budget {b}: feasibility differs: {sol:?} vs {direct:?}")
            }
        }
    }

    // Retrieval is non-increasing along growing budgets.
    let retrievals: Vec<Cost> = sweep
        .solutions
        .iter()
        .flatten()
        .map(|s| s.costs.total_retrieval)
        .collect();
    assert!(retrievals.windows(2).all(|w| w[1] <= w[0]));
}

/// A solver that sleeps, then delegates to LMG — used to burn through the
/// deadline deterministically.
struct SleepyLmg(Duration);

impl Solver for SleepyLmg {
    fn name(&self) -> &'static str {
        "sleepy"
    }
    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Msr { .. })
    }
    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        std::thread::sleep(self.0);
        let engine = Engine::with_default_solvers();
        engine.solve_with("LMG", g, problem, opts)
    }
}

/// Deadline-starved portfolio attempts are marked `Skipped` (never a
/// zero-duration timeout): the first solver finishes in time, the second
/// burns past the deadline, the third is skipped without starting.
#[test]
fn deadline_starved_attempts_are_skipped_not_zero_duration_timeouts() {
    let g = random_tree(8, &CostModel::default(), 3);
    let smin = min_storage_value(&g);
    let problem = ProblemKind::Msr {
        storage_budget: smin * 2,
    };
    let mut engine = Engine::new();
    engine
        .register(Box::new(SleepyLmg(Duration::ZERO)))
        .register(Box::new(SleepyLmg(Duration::from_millis(80))))
        .register(Box::new(SleepyLmg(Duration::ZERO)));
    let solve_opts = SolveOptions {
        time_limit: Some(Duration::from_millis(30)),
        ..Default::default()
    };
    // Sequential dispatch: a deterministic ordering for the deadline walk.
    let portfolio = sequential(|| engine.portfolio(&g, problem, &solve_opts))
        .expect("first solver finishes before the deadline");
    assert_eq!(portfolio.attempts.len(), 3);
    assert!(portfolio.attempts[0].outcome.is_ok());
    // The second ran (started before the deadline), whatever its outcome.
    assert!(!portfolio.attempts[1].outcome.is_skipped());
    // The third was never started: explicitly skipped, not a fake timeout.
    assert!(
        portfolio.attempts[2].outcome.is_skipped(),
        "expected Skipped, got {:?}",
        portfolio.attempts[2].outcome
    );
    assert_eq!(portfolio.attempts[2].wall_time, Duration::ZERO);
}

/// Reusing one `SolveOptions` (and thus one `SharedWork` memo) across
/// *different* graphs must never serve a cached plan from the wrong graph
/// — the engine re-validates the memo's graph fingerprint on every entry
/// point, `solve_with` included.
#[test]
fn shared_work_memo_never_leaks_across_graphs() {
    let g1 = random_tree(9, &CostModel::default(), 21);
    let g2 = random_tree(9, &CostModel::default(), 22);
    // One budget feasible on both graphs → identical memo key on purpose.
    let budget = min_storage_value(&g1).max(min_storage_value(&g2)) * 2;
    let problem = ProblemKind::Msr {
        storage_budget: budget,
    };
    let engine = Engine::with_default_solvers();
    let shared_opts = SolveOptions::default();
    for g in [&g1, &g2] {
        let sol = engine
            .solve_with("LMG-All", g, problem, &shared_opts)
            .expect("feasible");
        sol.plan.validate(g).expect("plan belongs to this graph");
        let direct = lmg_all(g, budget).expect("feasible");
        assert_eq!(sol.plan, direct, "cached plan leaked across graphs");
    }
}

/// An externally fired token preempts the whole call up front.
#[test]
fn pre_fired_cancel_token_skips_everything() {
    let g = random_tree(8, &CostModel::default(), 5);
    let smin = min_storage_value(&g);
    let problem = ProblemKind::Msr {
        storage_budget: smin * 2,
    };
    let engine = Engine::with_default_solvers();
    let cancel = CancelToken::new();
    cancel.cancel();
    let solve_opts = SolveOptions {
        cancel,
        ..Default::default()
    };
    let err = engine
        .solve(&g, problem, &solve_opts)
        .expect_err("cancelled before start");
    assert!(
        matches!(err, SolveError::Cancelled { .. }),
        "expected Cancelled, got {err}"
    );
}

/// The cooperative deadline preempts a *running* DP mid-run (not just
/// between solvers): a zero deadline makes the DP-MSR solver abort from
/// inside its per-node polling loop.
#[test]
fn running_solvers_poll_the_deadline_token() {
    let g = random_tree(60, &CostModel::default(), 11);
    let smin = min_storage_value(&g);
    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions {
        time_limit: Some(Duration::ZERO),
        ..Default::default()
    };
    let t0 = Instant::now();
    let err = engine
        .solve_sweep(&g, &[smin * 2], &solve_opts)
        .expect_err("zero deadline");
    assert!(
        matches!(err, SolveError::Timeout { .. }),
        "expected Timeout, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "preemption must abort promptly"
    );
}
