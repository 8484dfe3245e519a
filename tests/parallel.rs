//! Determinism and semantics of the engine under a parallel pool.
//!
//! The engine's contract is that the pool width is an *implementation*
//! detail: `solve` runs one solver at a time and lends it the pool, and
//! every registered solver must return byte-identical plans to a
//! one-thread pool, whatever the width. These tests pin that contract
//! across seeded random graphs, plus the amortization guarantee of
//! `Engine::solve_sweep` (one DP run per sweep), shared-work isolation
//! across graphs and cooperative preemption.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
};
use dsv_core::tree::dp_msr::dp_msr;
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

/// Run `f` on a one-thread pool, where every parallel step inside a solver
/// runs sequentially.
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

/// Every registered solver, run by name through `solve_with`, must return
/// the same plan and costs (or the same error kind) at the ambient pool
/// width as on a one-thread pool — not only the one `solve` dispatches to.
#[test]
fn every_solver_is_byte_identical_to_sequential() {
    let engine = Engine::with_default_solvers();
    for (name, g) in graphs() {
        for problem in problems(&g) {
            for solver in engine.solvers_for(problem) {
                let solver = solver.name();
                let run = || engine.solve_with(solver, &g, problem, &SolveOptions::default());
                let (par, seq) = (run(), sequential(run));
                match (par, seq) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.plan, b.plan, "{name}/{}/{solver}: plan", problem.name());
                        assert_eq!(a.costs, b.costs, "{name}/{}/{solver}", problem.name());
                    }
                    (Err(ea), Err(eb)) => assert_eq!(
                        std::mem::discriminant(&ea),
                        std::mem::discriminant(&eb),
                        "{name}/{}/{solver}: error kind differs: {ea} vs {eb}",
                        problem.name()
                    ),
                    (a, b) => panic!(
                        "{name}/{}/{solver}: feasibility differs: {a:?} vs {b:?}",
                        problem.name(),
                        a = a.map(|s| s.costs),
                        b = b.map(|s| s.costs),
                    ),
                }
            }
        }
    }
}

/// `solve` returns the most-preferred success, and the running solver's own
/// parallelism must not change it: the same plan, costs and solver at the
/// ambient pool width as on a one-thread pool.
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
/// via the identical per-solution iteration metadata, and agrees with the
/// free-function sweep it wraps.
#[test]
fn solve_sweep_performs_exactly_one_dp_run() {
    let engine = Engine::with_default_solvers();
    let g = bidirectional_path(24, &CostModel::default(), 7);
    let smin = min_storage_value(&g);
    let budgets: Vec<Cost> = (0..16).map(|i| smin + smin * i / 8).collect();

    let sweep = engine
        .solve_sweep(&g, &budgets, &SolveOptions::default())
        .expect("connected graph");
    assert_eq!(sweep.len(), budgets.len());

    let iteration_counts: Vec<usize> = sweep.iter().flatten().map(|s| s.meta.iterations).collect();
    assert!(!iteration_counts.is_empty());
    assert!(
        iteration_counts.windows(2).all(|w| w[0] == w[1]),
        "all sweep solutions must report the single shared DP's state count"
    );

    // Parity with the algorithm layer: one DP pruned at the largest
    // budget, read at every budget (identical costs per budget).
    let t = extract_tree(&g, NodeId(0)).expect("connected graph");
    let max_budget = *budgets.iter().max().expect("non-empty");
    let dp = dp_msr(&g, &t, max_budget, &CancelToken::inert()).expect("inert token");
    for (b, sol) in budgets.iter().zip(&sweep) {
        match (sol, dp.plan_under(&g, *b)) {
            (Some(sol), Some((_, costs))) => {
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
        .iter()
        .flatten()
        .map(|s| s.costs.total_retrieval)
        .collect();
    assert!(retrievals.windows(2).all(|w| w[1] <= w[0]));
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
