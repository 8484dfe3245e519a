//! Constraint sweeps: run a set of algorithms over a range of budgets,
//! recording objective values and wall-clock times — the data behind every
//! performance/runtime figure pair in Section 7.
//!
//! Every heuristic solve dispatches through the [`Engine`] — including the
//! DP-MSR budget sweep, which goes through the batched
//! [`Engine::solve_sweep`] entry point: one DP run covers the whole sweep
//! (which is how the paper reports DP-MSR's runtime), with every
//! per-budget plan validated and budget-checked like any other engine
//! output. OPT likewise comes from one DP-BTW run per graph
//! ([`opt_sweep`]), read at every budget of its exact frontier.

use dsv_core::baselines::min_storage_value;
use dsv_core::btw::{btw_msr, BtwConfig};
use dsv_core::cancel::CancelToken;
use dsv_core::engine::{Engine, SolveOptions};
use dsv_core::problem::ProblemKind;
use dsv_vgraph::{Cost, VersionGraph};
use std::time::Instant;

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Algorithm label ("LMG", "LMG-All", "DP-MSR", "MP", "DP-BMR", "OPT").
    pub algorithm: &'static str,
    /// The constraint value (storage budget for MSR, retrieval for BMR).
    pub budget: Cost,
    /// Objective achieved (total retrieval for MSR, storage for BMR);
    /// `None` when infeasible for this algorithm.
    pub objective: Option<Cost>,
    /// Wall-clock milliseconds for this point (for DP-MSR the single DP run
    /// is amortized over the sweep, matching how the paper reports it).
    pub time_ms: f64,
}

/// Budgets `S = factor × S_min` over the paper's sweep range.
pub fn msr_budgets(g: &VersionGraph, points: usize) -> Vec<Cost> {
    let smin = min_storage_value(g);
    let lo = 1.05_f64;
    let hi = 2.5_f64;
    (0..points)
        .map(|i| {
            let f = lo + (hi - lo) * i as f64 / (points.max(2) - 1) as f64;
            (smin as f64 * f) as Cost
        })
        .collect()
}

/// Retrieval budgets for BMR sweeps: `0 .. 1.5 × avg r_e`.
pub fn bmr_budgets(g: &VersionGraph, points: usize) -> Vec<Cost> {
    let avg_r = g
        .edges()
        .iter()
        .map(|e| e.retrieval)
        .sum::<u64>()
        .checked_div(g.m() as u64)
        .unwrap_or(0);
    let hi = (avg_r as f64 * 1.5) as Cost;
    (0..points)
        .map(|i| hi * i as u64 / (points.max(2) - 1) as u64)
        .collect()
}

/// Run the three MSR algorithms (and DP-MSR as a single amortized run)
/// across `budgets`, dispatching the per-budget solves through the engine.
pub fn msr_sweep(g: &VersionGraph, budgets: &[Cost]) -> Vec<SweepPoint> {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let mut out = Vec::new();
    for &b in budgets {
        let problem = ProblemKind::Msr { storage_budget: b };
        for algorithm in ["LMG", "LMG-All"] {
            let t0 = Instant::now();
            let obj = engine
                .solve_with(algorithm, g, problem, &opts)
                .ok()
                .map(|s| s.costs.total_retrieval);
            out.push(SweepPoint {
                algorithm,
                budget: b,
                objective: obj,
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    // DP-MSR: one engine sweep call — a single DP run — for all budgets.
    let t0 = Instant::now();
    let sweep = engine.solve_sweep(g, budgets, &opts);
    let dp_ms = t0.elapsed().as_secs_f64() * 1e3;
    match sweep {
        Ok(sweep) => {
            debug_assert_eq!(sweep.dp_runs, 1, "sweep amortization regressed");
            for (&b, sol) in budgets.iter().zip(&sweep.solutions) {
                out.push(SweepPoint {
                    algorithm: "DP-MSR",
                    budget: b,
                    objective: sol.as_ref().map(|s| s.costs.total_retrieval),
                    time_ms: dp_ms,
                });
            }
        }
        Err(_) => {
            for &b in budgets {
                out.push(SweepPoint {
                    algorithm: "DP-MSR",
                    budget: b,
                    objective: None,
                    time_ms: dp_ms,
                });
            }
        }
    }
    out
}

/// Run the two BMR algorithms across `budgets` through the engine.
pub fn bmr_sweep(g: &VersionGraph, budgets: &[Cost]) -> Vec<SweepPoint> {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let mut out = Vec::new();
    for &b in budgets {
        let problem = ProblemKind::Bmr {
            retrieval_budget: b,
        };
        for algorithm in ["MP", "DP-BMR"] {
            let t0 = Instant::now();
            let obj = engine
                .solve_with(algorithm, g, problem, &opts)
                .ok()
                .map(|s| s.costs.storage);
            out.push(SweepPoint {
                algorithm,
                budget: b,
                objective: obj,
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    out
}

/// OPT points: DP-BTW's proven optimum at every budget (call on small,
/// low-width graphs, as the paper does for `datasharing`).
///
/// One DP run, pruned at the largest budget (lossless for every smaller
/// one), yields the exact frontier the whole sweep reads from; its wall
/// time is reported at every point, as for DP-MSR. When the DP exceeds
/// its state limit there are no points at all: an OPT point is always a
/// proven optimum, never a heuristic stand-in.
pub fn opt_sweep(g: &VersionGraph, budgets: &[Cost]) -> Vec<SweepPoint> {
    let cfg = BtwConfig {
        storage_prune: budgets.iter().max().copied(),
        ..Default::default()
    };
    let t0 = Instant::now();
    let Some(dp) = btw_msr(g, &cfg, &CancelToken::inert()) else {
        return Vec::new();
    };
    let time_ms = t0.elapsed().as_secs_f64() * 1e3;
    budgets
        .iter()
        .map(|&b| SweepPoint {
            algorithm: "OPT",
            budget: b,
            objective: dp.best_under(b),
            time_ms,
        })
        .collect()
}

/// One measured point of a [`portfolio_sweep`].
#[derive(Clone, Debug)]
pub struct PortfolioPoint {
    /// The problem solved.
    pub problem: ProblemKind,
    /// Winning solver and its objective, or `None` when no registered
    /// solver found a feasible plan.
    pub winner: Option<(&'static str, Cost)>,
    /// Solvers that produced a feasible plan.
    pub feasible: usize,
    /// Solvers attempted (supporting the problem).
    pub attempted: usize,
    /// Wall-clock milliseconds for the whole portfolio.
    pub time_ms: f64,
}

/// Engine-portfolio sweep: for each problem, run every registered solver
/// that supports it and report the best feasible objective plus the
/// winning solver — the "one request, best answer" serving mode.
pub fn portfolio_sweep(g: &VersionGraph, problems: &[ProblemKind]) -> Vec<PortfolioPoint> {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    problems
        .iter()
        .map(|&problem| {
            let t0 = Instant::now();
            let (winner, feasible, attempted) = match engine.portfolio(g, problem, &opts) {
                Ok(p) => (
                    Some((p.best.meta.solver, p.best.objective(problem))),
                    p.attempts.iter().filter(|a| a.outcome.is_ok()).count(),
                    p.attempts.len(),
                ),
                Err(_) => (None, 0, 0),
            };
            PortfolioPoint {
                problem,
                winner,
                feasible,
                attempted,
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{bidirectional_path, CostModel};

    #[test]
    fn budget_generators_are_monotone() {
        let g = bidirectional_path(20, &CostModel::default(), 1);
        let b = msr_budgets(&g, 8);
        assert_eq!(b.len(), 8);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        let r = bmr_budgets(&g, 6);
        assert_eq!(r.len(), 6);
        assert_eq!(r[0], 0);
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn msr_sweep_produces_all_algorithms() {
        let g = bidirectional_path(15, &CostModel::default(), 2);
        let budgets = msr_budgets(&g, 4);
        let points = msr_sweep(&g, &budgets);
        assert_eq!(points.len(), 3 * 4);
        for p in &points {
            assert!(p.objective.is_some(), "{} at {}", p.algorithm, p.budget);
        }
        // DP-MSR never worse than LMG on a tree-shaped graph.
        for &b in &budgets {
            let get = |alg: &str| {
                points
                    .iter()
                    .find(|p| p.algorithm == alg && p.budget == b)
                    .and_then(|p| p.objective)
                    .expect("feasible")
            };
            assert!(get("DP-MSR") <= get("LMG"));
        }
    }

    #[test]
    fn opt_sweep_is_the_brute_force_optimum_at_every_budget() {
        let g = bidirectional_path(6, &CostModel::default(), 4);
        let budgets = msr_budgets(&g, 4);
        let points = opt_sweep(&g, &budgets);
        assert_eq!(points.len(), budgets.len());
        for (p, &b) in points.iter().zip(&budgets) {
            assert_eq!((p.algorithm, p.budget), ("OPT", b));
            assert_eq!(p.objective, dsv_core::exact::brute::msr_optimum(&g, b));
        }
    }

    #[test]
    fn portfolio_sweep_finds_winners_for_all_problems() {
        let g = bidirectional_path(10, &CostModel::default(), 5);
        let smin = min_storage_value(&g);
        let problems = [
            ProblemKind::Msr {
                storage_budget: smin * 2,
            },
            ProblemKind::Mmr {
                storage_budget: smin * 2,
            },
            ProblemKind::Bmr {
                retrieval_budget: g.max_edge_retrieval(),
            },
        ];
        let points = portfolio_sweep(&g, &problems);
        assert_eq!(points.len(), problems.len());
        for p in &points {
            let (solver, _) = p.winner.expect("feasible");
            assert!(!solver.is_empty());
        }
    }

    #[test]
    fn bmr_sweep_dp_never_loses_on_trees() {
        let g = bidirectional_path(15, &CostModel::default(), 3);
        let budgets = bmr_budgets(&g, 5);
        let points = bmr_sweep(&g, &budgets);
        for &b in &budgets {
            let mp = points
                .iter()
                .find(|p| p.algorithm == "MP" && p.budget == b)
                .and_then(|p| p.objective)
                .expect("always feasible");
            let dp = points
                .iter()
                .find(|p| p.algorithm == "DP-BMR" && p.budget == b)
                .and_then(|p| p.objective)
                .expect("always feasible");
            assert!(dp <= mp, "budget {b}: dp {dp} vs mp {mp}");
        }
    }
}
