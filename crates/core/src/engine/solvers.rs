//! Built-in [`Solver`] implementations wrapping the legacy free functions.
//!
//! Problem coverage of the default registry:
//!
//! | solver | MSR | MMR | BSR | BMR | notes |
//! |--------|-----|-----|-----|-----|-------|
//! | [`DpMsrSolver`] | ✓ | | ✓ | | BSR via the DP frontier (Lemma 7) |
//! | [`DpBmrSolver`] | | ✓ | | ✓ | MMR via binary search over BMR (Lemma 7) |
//! | [`LmgAllSolver`] | ✓ | | | | Algorithm 7 |
//! | [`LmgSolver`] | ✓ | | | | Algorithm 1 (prior work) |
//! | [`ModifiedPrimsSolver`] | | | | ✓ | Section-7 BMR baseline |
//! | [`BtwSolver`] | ✓ | | | | constructive exact on bounded-width graphs (provenance-arena DP) |
//! | [`BruteForceSolver`] | ✓ | ✓ | ✓ | ✓ | tiny instances only |

use super::{Solution, SolveError, SolveOptions, Solver, SolverMeta};
use crate::exact::brute::{brute_force, enumeration_space, ENUMERATION_LIMIT};
use crate::heuristics::lmg::lmg_with_stats;
use crate::heuristics::mp::modified_prims;
use crate::problem::ProblemKind;
use crate::reductions::{bsr_via_msr, mmr_via_bmr};
use crate::tree::{dp_bmr, extract_tree, TreeDpConfig};
use dsv_vgraph::{NodeId, VersionGraph};
use std::time::Instant;

/// Local Move Greedy (Algorithm 1) for MSR.
pub struct LmgSolver;

impl Solver for LmgSolver {
    fn name(&self) -> &'static str {
        "LMG"
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
        let started = Instant::now();
        let ProblemKind::Msr { storage_budget } = problem else {
            return Err(unsupported(self.name(), problem));
        };
        let (plan, stats) =
            lmg_with_stats(g, storage_budget).ok_or_else(|| below_min_storage(self.name()))?;
        let mut meta = SolverMeta::new(self.name());
        meta.iterations = stats.moves;
        meta.reported_objective = Some(stats.total_retrieval);
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// LMG-All (Algorithm 7) for MSR. The plan is produced through the
/// [`SharedWork`](super::SharedWork) memo, so repeated calls on one graph
/// and budget compute it once.
pub struct LmgAllSolver;

impl Solver for LmgAllSolver {
    fn name(&self) -> &'static str {
        "LMG-All"
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
        let started = Instant::now();
        let ProblemKind::Msr { storage_budget } = problem else {
            return Err(unsupported(self.name(), problem));
        };
        let (plan, stats) = opts
            .shared
            .lmg_all(g, storage_budget, &opts.cancel)
            .ok_or_else(|| cancelled(self.name(), opts))?
            .ok_or_else(|| below_min_storage(self.name()))?;
        let mut meta = SolverMeta::new(self.name());
        meta.iterations = stats.moves;
        meta.reported_objective = Some(stats.total_retrieval);
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// Modified Prim's for BMR (always feasible: materialization is the
/// fallback for every version).
pub struct ModifiedPrimsSolver;

impl Solver for ModifiedPrimsSolver {
    fn name(&self) -> &'static str {
        "MP"
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Bmr { .. })
    }

    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        _opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let started = Instant::now();
        let ProblemKind::Bmr { retrieval_budget } = problem else {
            return Err(unsupported(self.name(), problem));
        };
        let plan = modified_prims(g, retrieval_budget);
        let mut meta = SolverMeta::new(self.name());
        meta.iterations = g.n();
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// The Section-6.2 DP-MSR pipeline for MSR, and BSR through the DP's
/// storage/retrieval frontier (the Lemma-7 reduction degenerates into a
/// frontier lookup).
pub struct DpMsrSolver;

impl Solver for DpMsrSolver {
    fn name(&self) -> &'static str {
        "DP-MSR"
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Msr { .. } | ProblemKind::Bsr { .. })
    }

    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let started = Instant::now();
        if extract_tree(g, NodeId(0)).is_none() {
            return Err(not_reachable(self.name()));
        }
        let mut meta = SolverMeta::new(self.name());
        let plan = match problem {
            ProblemKind::Msr { storage_budget } => {
                let (plan, costs) = opts
                    .shared
                    .dp_msr(g, storage_budget, &opts.cancel)
                    .ok_or_else(|| cancelled(self.name(), opts))?
                    .ok_or_else(|| below_min_storage(self.name()))?;
                meta.reported_objective = Some(costs.total_retrieval);
                plan
            }
            ProblemKind::Bsr { retrieval_budget } => {
                let cfg = TreeDpConfig::heuristic(g, None);
                let found = bsr_via_msr(g, NodeId(0), retrieval_budget, cfg, &opts.cancel);
                let (plan, storage) = found.ok_or_else(|| {
                    cancelled_or(self.name(), opts, || SolveError::Infeasible {
                        solver: self.name(),
                        detail: "no frontier point fits the retrieval budget".into(),
                    })
                })?;
                meta.reported_objective = Some(storage);
                plan
            }
            other => return Err(unsupported(self.name(), other)),
        };
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// The Section-4 exact tree DP for BMR, and MMR through Lemma 7's binary
/// search over BMR. Exact over plans restricted to the extracted tree;
/// heuristic on general graphs (hence no optimality claim).
pub struct DpBmrSolver;

impl Solver for DpBmrSolver {
    fn name(&self) -> &'static str {
        "DP-BMR"
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Bmr { .. } | ProblemKind::Mmr { .. })
    }

    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let started = Instant::now();
        let mut meta = SolverMeta::new(self.name());
        // One extraction serves both classification (unreachable is an
        // error distinct from cancellation) and the DP itself.
        let Some(t) = extract_tree(g, NodeId(0)) else {
            return Err(not_reachable(self.name()));
        };
        let plan = match problem {
            ProblemKind::Bmr { retrieval_budget } => {
                let r = dp_bmr(g, &t, retrieval_budget, &opts.cancel)
                    .ok_or_else(|| cancelled(self.name(), opts))?;
                meta.reported_objective = Some(r.storage);
                r.plan
            }
            ProblemKind::Mmr { storage_budget } => {
                let (plan, max_r) =
                    mmr_via_bmr(g, &t, storage_budget, &opts.cancel).ok_or_else(|| {
                        cancelled_or(self.name(), opts, || below_min_storage(self.name()))
                    })?;
                meta.reported_objective = Some(max_r);
                plan
            }
            other => return Err(unsupported(self.name(), other)),
        };
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// The bounded-width DP for MSR — **constructive exact**: the DP threads a
/// provenance arena through its frontier, so on success the returned plan
/// is reconstructed from the certificate itself and `proven_optimal` holds
/// unconditionally ([`SolverMeta::lower_bound`] carries the same value as
/// a genuine bound for gap computations). Instances whose state space
/// exceeds [`SolveOptions::btw`]'s `max_states` get a
/// [`SolveError::ResourceLimit`] instead of an inexact answer.
pub struct BtwSolver;

impl Solver for BtwSolver {
    fn name(&self) -> &'static str {
        "DP-BTW"
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
        let started = Instant::now();
        let ProblemKind::Msr { storage_budget } = problem else {
            return Err(unsupported(self.name(), problem));
        };
        let mut cfg = opts.btw.clone();
        // Prune at exactly the budget: dropping states above it is lossless
        // for MSR, while any tighter caller-supplied prune would truncate
        // the plan set and break the optimality certificate.
        cfg.storage_prune = Some(storage_budget);
        let result = crate::btw::btw_msr(g, &cfg, &opts.cancel).ok_or_else(|| {
            cancelled_or(self.name(), opts, || SolveError::ResourceLimit {
                solver: self.name(),
                detail: format!("state count exceeded max_states = {}", cfg.max_states),
            })
        })?;
        // Reconstruct the optimal plan from the winning frontier entry's
        // decision chain — no heuristic witness, no re-costing pass.
        let (plan, (_, retrieval)) = result
            .plan_under(g, storage_budget)
            .ok_or_else(|| below_min_storage(self.name()))?;

        let mut meta = SolverMeta::new(self.name());
        meta.iterations = result.peak_states;
        meta.reported_objective = Some(retrieval);
        // The DP completed, so the reconstructed plan *is* the optimum; the
        // certified value doubles as the lower bound.
        meta.lower_bound = Some(retrieval);
        meta.proven_optimal = true;
        Solution::checked(g, problem, plan, meta, started)
    }
}

/// Exhaustive enumeration — ground truth for all four problems on tiny
/// instances; refuses anything larger.
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn supports(&self, _problem: ProblemKind) -> bool {
        true
    }

    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let started = Instant::now();
        let space = enumeration_space(g);
        if space > ENUMERATION_LIMIT {
            return Err(SolveError::ResourceLimit {
                solver: self.name(),
                detail: format!("enumeration space {space} exceeds {ENUMERATION_LIMIT}"),
            });
        }
        let result = brute_force(g, problem, &opts.cancel).ok_or_else(|| {
            cancelled_or(self.name(), opts, || SolveError::Infeasible {
                solver: self.name(),
                detail: "no plan satisfies the constraint".into(),
            })
        })?;
        let mut meta = SolverMeta::new(self.name());
        meta.iterations = usize::try_from(space).unwrap_or(usize::MAX);
        meta.proven_optimal = true;
        let objective = super::objective_cost(&result.costs, problem);
        meta.reported_objective = Some(objective);
        meta.lower_bound = Some(objective);
        Solution::checked(g, problem, result.plan, meta, started)
    }
}

fn unsupported(solver: &'static str, problem: ProblemKind) -> SolveError {
    SolveError::UnsupportedProblem {
        solver,
        problem: problem.name(),
    }
}

/// The error for a solve preempted through [`SolveOptions::cancel`]: a
/// [`SolveError::Timeout`] when the cooperative deadline fired, otherwise a
/// [`SolveError::Cancelled`] (the caller fired the token).
fn cancelled(solver: &'static str, opts: &SolveOptions) -> SolveError {
    match opts.time_limit {
        Some(limit) if opts.cancel.deadline_exceeded() => SolveError::Timeout { solver, limit },
        _ => SolveError::Cancelled { solver },
    }
}

/// Classify a `None` from a cancellable algorithm: preemption if the token
/// fired, otherwise the algorithm-specific `fallback` error.
fn cancelled_or(
    solver: &'static str,
    opts: &SolveOptions,
    fallback: impl FnOnce() -> SolveError,
) -> SolveError {
    if opts.cancel.is_cancelled() {
        cancelled(solver, opts)
    } else {
        fallback()
    }
}

fn below_min_storage(solver: &'static str) -> SolveError {
    SolveError::Infeasible {
        solver,
        detail: "budget below the instance's minimum".into(),
    }
}

fn not_reachable(solver: &'static str) -> SolveError {
    SolveError::Infeasible {
        solver,
        detail: format!("graph is not spanning-reachable from root {}", NodeId(0)),
    }
}
