//! The unified solver engine: one request/response layer over every
//! algorithm in this crate.
//!
//! The paper defines four constrained problems (MSR/MMR/BSR/BMR, Table 1)
//! and roughly a dozen algorithms that each attack a subset of them with
//! different trade-offs. The engine normalizes all of them behind a single
//! API:
//!
//! * [`Solver`] — the uniform interface: `solve(graph, problem, options)`
//!   returns a [`Solution`] or a typed [`SolveError`];
//! * [`Solution`] — the storage plan, its exactly re-evaluated
//!   [`PlanCosts`], and [`SolverMeta`] (name, iterations, wall time,
//!   optimality/lower-bound certificates, the solver's own running
//!   objective);
//! * [`Engine`] — a registry dispatching a [`ProblemKind`] to registered
//!   solvers: [`Engine::solve`] in preference order, [`Engine::solve_with`]
//!   to one named solver, and a batched [`Engine::solve_sweep`] that
//!   answers a whole MSR budget sweep from **one** DP-MSR run (the paper's
//!   "whole spectrum of solutions at once").
//!
//! Every solution handed out is validated ([`StoragePlan::validate`]) and
//! budget-checked against its problem before it leaves the engine, so a
//! buggy or heuristic solver can never silently return an infeasible plan
//! — it becomes a [`SolveError::BudgetExceeded`] instead.
//!
//! ## Dispatch, preemption, and shared work
//!
//! [`Engine::solve`] tries the supporting solvers one at a time in
//! preference order, so the solver that runs has the whole thread pool
//! (see the `rayon` shim; width from `DSV_NUM_THREADS`) for its own
//! parallelism — the sharded path solves its shards on it. Every call
//! derives one [`CancelToken`] from [`SolveOptions::cancel`] and
//! [`SolveOptions::time_limit`], which long DPs poll mid-run (cooperative
//! preemption inside running solvers, not just between them). Results are
//! **deterministic**: every combination step is order-stable, so plans are
//! byte-identical at any pool width.
//!
//! Tree-extraction based solvers (DP-MSR, DP-BMR, the MMR/BSR reductions)
//! and [`Engine::solve_sweep`] root their tree at version `NodeId(0)`.
//!
//! Heuristic results (LMG-All plans, DP-MSR frontier plans) are memoized
//! in a [`SharedWork`] keyed by graph fingerprint and budget, and the
//! sharded solver's budget-independent prep by graph fingerprint and
//! shard size, so callers that reuse one [`SolveOptions`] on the same
//! graph compute each once.
//!
//! The algorithms themselves are free functions
//! ([`fn@crate::heuristics::lmg`], [`crate::tree::dp_msr_on_graph`],
//! [`fn@crate::tree::dp_bmr`], [`crate::btw::btw_msr`], …), one entry point
//! each, and are what the built-in solvers call. Only the solvers turn
//! their plans into a [`Solution`]: the engine adds dispatch, validation,
//! and metadata, not new algorithms.
//!
//! ```
//! use dsv_core::engine::{Engine, SolveOptions};
//! use dsv_core::problem::ProblemKind;
//! use dsv_vgraph::VersionGraph;
//!
//! let mut g = VersionGraph::new();
//! let a = g.add_node(1_000);
//! let b = g.add_node(1_100);
//! g.add_bidirectional_edge(a, b, 40, 35);
//!
//! let engine = Engine::with_default_solvers();
//! let sol = engine
//!     .solve(&g, ProblemKind::Msr { storage_budget: 1_100 }, &SolveOptions::default())
//!     .expect("feasible");
//! assert!(sol.costs.storage <= 1_100);
//! ```

pub mod sharded;
pub mod shared;
pub mod solvers;

pub use sharded::{sharded_msr, ShardConfig, ShardStats, ShardedSolver, SHARD_REGRET_BOUND};
pub use shared::SharedWork;

use crate::cancel::CancelToken;
use crate::plan::{PlanCosts, StoragePlan};
use crate::problem::{Objective, ProblemKind};
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use std::time::{Duration, Instant};

/// Options shared by every solver invocation.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Wall-clock limit, enforced cooperatively: solvers are not *started*
    /// past the deadline, and running DPs and searches poll a deadline
    /// token mid-run and abort early.
    pub time_limit: Option<Duration>,
    /// Configuration for the bounded-width DP.
    pub btw: crate::btw::BtwConfig,
    /// External cooperative cancellation. The engine derives a per-call
    /// child token from this, so firing it preempts everything
    /// downstream; solvers invoked directly poll it too. Inert by default.
    pub cancel: CancelToken,
    /// Memo of heuristic results (LMG-All plans, DP-MSR frontier plans),
    /// keyed by budget, and of the sharded solver's budget-independent
    /// prep. The engine validates it against the graph's
    /// fingerprint and swaps in a fresh memo on mismatch, so a
    /// default value is always safe — and reusing one `SolveOptions`
    /// across calls on the *same* graph carries the warm cache forward.
    pub shared: SharedWork,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: None,
            btw: crate::btw::BtwConfig::default(),
            cancel: CancelToken::inert(),
            shared: SharedWork::default(),
        }
    }
}

/// Typed failure modes of a solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// No plan satisfies the constraint (e.g. the storage budget lies below
    /// the minimum-storage plan, or the graph is not reachable from
    /// version `NodeId(0)`, the root of every engine tree).
    Infeasible {
        /// The reporting solver.
        solver: &'static str,
        /// What made the instance infeasible for this solver.
        detail: String,
    },
    /// The solver does not handle this [`ProblemKind`].
    UnsupportedProblem {
        /// The refusing solver.
        solver: &'static str,
        /// Short problem name (`"MSR"`, …).
        problem: &'static str,
    },
    /// The solver produced a plan that violates the problem's budget — a
    /// heuristic overshoot, surfaced instead of silently returned.
    BudgetExceeded {
        /// The offending solver.
        solver: &'static str,
        /// The constraint value requested.
        budget: Cost,
        /// The constrained quantity the plan actually reached.
        achieved: Cost,
    },
    /// The wall-clock limit in [`SolveOptions::time_limit`] expired before
    /// this solver could start.
    Timeout {
        /// The solver that was not run (or `"engine"`).
        solver: &'static str,
        /// The configured limit.
        limit: Duration,
    },
    /// The solver was preempted mid-run through [`SolveOptions::cancel`] —
    /// by the cooperative deadline or an external caller firing the token.
    Cancelled {
        /// The preempted solver.
        solver: &'static str,
    },
    /// The solver gave up within its resource bounds (state-count caps,
    /// enumeration-space limits).
    ResourceLimit {
        /// The reporting solver.
        solver: &'static str,
        /// Which bound was hit.
        detail: String,
    },
    /// The solver returned a structurally invalid plan — always a bug, but
    /// reported as data so [`Engine::solve`] can fall through to the next
    /// solver.
    InvalidPlan {
        /// The offending solver.
        solver: &'static str,
        /// The validation failure.
        reason: String,
    },
    /// No registered solver supports the problem.
    NoSolver {
        /// Short problem name (`"MSR"`, …).
        problem: &'static str,
    },
    /// [`Engine::solve_with`] was given a name no registered solver has.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible { solver, detail } => {
                write!(f, "{solver}: infeasible: {detail}")
            }
            SolveError::UnsupportedProblem { solver, problem } => {
                write!(f, "{solver} does not support {problem}")
            }
            SolveError::BudgetExceeded {
                solver,
                budget,
                achieved,
            } => write!(f, "{solver} exceeded the budget: {achieved} > {budget}"),
            SolveError::Timeout { solver, limit } => {
                write!(f, "{solver}: time limit {limit:?} expired")
            }
            SolveError::Cancelled { solver } => {
                write!(f, "{solver}: cancelled mid-run")
            }
            SolveError::ResourceLimit { solver, detail } => {
                write!(f, "{solver}: resource limit: {detail}")
            }
            SolveError::InvalidPlan { solver, reason } => {
                write!(f, "{solver} returned an invalid plan: {reason}")
            }
            SolveError::NoSolver { problem } => {
                write!(f, "no registered solver supports {problem}")
            }
            SolveError::UnknownSolver { name } => {
                write!(f, "no solver named `{name}` is registered")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Metadata about how a [`Solution`] was produced.
#[derive(Clone, Debug)]
pub struct SolverMeta {
    /// Name of the producing solver.
    pub solver: &'static str,
    /// Solver-specific work counter: greedy moves, DP peak states,
    /// enumerated plans.
    pub iterations: usize,
    /// Wall-clock time of the solve call.
    pub wall_time: Duration,
    /// Whether the solver proved its objective optimal (exact DPs on their
    /// native graph class, brute force).
    pub proven_optimal: bool,
    /// The objective value as tracked by the solver's own bookkeeping
    /// (e.g. the greedy [`PlanView`](crate::heuristics)'s running total
    /// retrieval). Always re-checked against the exact re-evaluation in
    /// [`Solution::costs`] by the parity tests.
    pub reported_objective: Option<Cost>,
    /// A certified lower bound on the optimum objective, when the solver
    /// produces one (exact DPs on their native class, brute force). For
    /// solvers with `proven_optimal` this equals
    /// [`SolverMeta::reported_objective`]; it stays a *bound* — callers
    /// use it to compute optimality gaps for heuristic plans.
    pub lower_bound: Option<Cost>,
    /// Counters and stage timings (partition, shard solves, stitch) when
    /// the sharded pipeline produced the solution.
    pub shard: Option<ShardStats>,
}

impl SolverMeta {
    pub(crate) fn new(solver: &'static str) -> Self {
        SolverMeta {
            solver,
            iterations: 0,
            wall_time: Duration::ZERO,
            proven_optimal: false,
            reported_objective: None,
            lower_bound: None,
            shard: None,
        }
    }
}

/// A validated solution: plan, exact costs, and provenance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The storage plan.
    pub plan: StoragePlan,
    /// Exactly re-evaluated costs of [`Solution::plan`].
    pub costs: PlanCosts,
    /// Provenance and certificates.
    pub meta: SolverMeta,
}

/// The objective side of `costs` under `problem` — the single source of
/// truth for the `ProblemKind` → cost mapping (used by [`Solution`], the
/// budget check in [`Solution::checked`], and the built-in solvers).
pub fn objective_cost(costs: &PlanCosts, problem: ProblemKind) -> Cost {
    match problem.objective() {
        Objective::SumRetrieval => costs.total_retrieval,
        Objective::MaxRetrieval => costs.max_retrieval,
        Objective::Storage => costs.storage,
    }
}

/// The constrained (budgeted) side of `costs` under `problem`.
pub fn constrained_cost(costs: &PlanCosts, problem: ProblemKind) -> Cost {
    match problem {
        ProblemKind::Msr { .. } | ProblemKind::Mmr { .. } => costs.storage,
        ProblemKind::Bsr { .. } => costs.total_retrieval,
        ProblemKind::Bmr { .. } => costs.max_retrieval,
    }
}

impl Solution {
    /// The objective value of this solution under `problem`.
    pub fn objective(&self, problem: ProblemKind) -> Cost {
        objective_cost(&self.costs, problem)
    }

    /// The constrained quantity of this solution under `problem` (the side
    /// the budget applies to).
    pub fn constrained(&self, problem: ProblemKind) -> Cost {
        constrained_cost(&self.costs, problem)
    }

    /// Total retrieval cost (exact re-evaluation).
    pub fn total_retrieval(&self) -> Cost {
        self.costs.total_retrieval
    }

    /// Build a solution from a raw plan: validate, cost, budget-check.
    /// Every built-in solver funnels through here, so no infeasible or
    /// invalid plan can leave the engine.
    pub fn checked(
        g: &VersionGraph,
        problem: ProblemKind,
        plan: StoragePlan,
        mut meta: SolverMeta,
        started: Instant,
    ) -> Result<Self, SolveError> {
        if let Err(reason) = plan.validate(g) {
            return Err(SolveError::InvalidPlan {
                solver: meta.solver,
                reason,
            });
        }
        let costs = plan.costs(g);
        let achieved = constrained_cost(&costs, problem);
        if achieved > problem.budget() {
            return Err(SolveError::BudgetExceeded {
                solver: meta.solver,
                budget: problem.budget(),
                achieved,
            });
        }
        meta.wall_time = started.elapsed();
        Ok(Solution { plan, costs, meta })
    }
}

/// The uniform solver interface.
pub trait Solver: Send + Sync {
    /// Display name, also the registry key (`"LMG"`, `"DP-MSR"`, …).
    fn name(&self) -> &'static str;

    /// Whether this solver handles `problem`.
    fn supports(&self, problem: ProblemKind) -> bool;

    /// Solve `problem` on `g`. Implementations must return only validated,
    /// budget-respecting solutions (use [`Solution::checked`]).
    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError>;
}

/// Registry dispatching problems to solvers.
///
/// [`Engine::solve`] tries supporting solvers in registration order and
/// returns the first success — registration order is therefore the
/// preference order. [`Engine::solve_with`] runs one solver by name.
pub struct Engine {
    solvers: Vec<Box<dyn Solver>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_default_solvers()
    }
}

impl Engine {
    /// An empty registry.
    pub fn new() -> Self {
        Engine {
            solvers: Vec::new(),
        }
    }

    /// The standard registry, in preference order: the sharded hierarchical
    /// path first (it refuses everything below its scale threshold, so
    /// small-graph dispatch is unchanged), then scalable DPs, greedies as
    /// fallback, and exact solvers (bounded-width DP, brute force)
    /// last — they refuse instances beyond their resource limits.
    pub fn with_default_solvers() -> Self {
        let mut e = Engine::new();
        e.register(Box::new(sharded::ShardedSolver::default()))
            .register(Box::new(solvers::DpMsrSolver))
            .register(Box::new(solvers::DpBmrSolver))
            .register(Box::new(solvers::LmgAllSolver))
            .register(Box::new(solvers::LmgSolver))
            .register(Box::new(solvers::ModifiedPrimsSolver))
            .register(Box::new(solvers::BtwSolver))
            .register(Box::new(solvers::BruteForceSolver));
        e
    }

    /// Append a solver (lowest preference so far).
    pub fn register(&mut self, solver: Box<dyn Solver>) -> &mut Self {
        self.solvers.push(solver);
        self
    }

    /// Registered solvers supporting `problem`, in preference order.
    pub fn solvers_for(&self, problem: ProblemKind) -> Vec<&dyn Solver> {
        self.solvers
            .iter()
            .filter(|s| s.supports(problem))
            .map(|s| s.as_ref())
            .collect()
    }

    /// Solve with one specific solver by name. Goes through the same
    /// per-call preparation as [`Engine::solve`]: the shared-work memo is
    /// validated against the graph's fingerprint and the cooperative
    /// deadline token is derived from [`SolveOptions::time_limit`].
    pub fn solve_with(
        &self,
        name: &str,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let solver = self
            .solvers
            .iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| SolveError::UnknownSolver {
                name: name.to_string(),
            })?;
        if !solver.supports(problem) {
            return Err(SolveError::UnsupportedProblem {
                solver: solver.name(),
                problem: problem.name(),
            });
        }
        solver.solve(g, problem, &self.prepare_call(g, opts))
    }

    /// Effective per-call options: the shared-work memo claimed for this
    /// graph and a call-level token combining the caller's token with the
    /// cooperative deadline.
    fn prepare_call(&self, g: &VersionGraph, opts: &SolveOptions) -> SolveOptions {
        let mut eff = opts.clone();
        eff.shared = opts.shared.for_graph(g);
        if opts.time_limit.is_some() {
            eff.cancel = opts.cancel.child_with_deadline(opts.time_limit);
        }
        eff
    }

    /// Fold attempt errors into the most informative failure, mirroring
    /// the sequential engine's historical preference: an
    /// [`SolveError::Infeasible`] if any solver reported one, else the
    /// first error in preference order, else a timeout when everything was
    /// skipped past the deadline.
    fn aggregate_failure(
        problem: ProblemKind,
        opts: &SolveOptions,
        attempts: impl IntoIterator<Item = Option<SolveError>>,
    ) -> SolveError {
        let mut infeasible: Option<SolveError> = None;
        let mut first_err: Option<SolveError> = None;
        let mut any_skipped = false;
        for outcome in attempts {
            match outcome {
                Some(e) => {
                    if matches!(e, SolveError::Infeasible { .. }) && infeasible.is_none() {
                        infeasible = Some(e.clone());
                    }
                    first_err.get_or_insert(e);
                }
                None => any_skipped = true,
            }
        }
        infeasible
            .or(first_err)
            .unwrap_or_else(|| match (any_skipped, opts.time_limit) {
                (true, Some(limit)) => SolveError::Timeout {
                    solver: "engine",
                    limit,
                },
                (true, None) => SolveError::Cancelled { solver: "engine" },
                (false, _) => SolveError::NoSolver {
                    problem: problem.name(),
                },
            })
    }

    /// Solve `problem`: try the supporting solvers one at a time in
    /// preference order and return the first success. The running solver
    /// has the whole thread pool for its own parallelism (the sharded
    /// path solves its shards on it); solvers after a fired call token
    /// are skipped. On total failure, returns the most informative error (an
    /// [`SolveError::Infeasible`] if any solver reported one, otherwise
    /// the first error).
    pub fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let solvers = self.solvers_for(problem);
        if solvers.is_empty() {
            return Err(SolveError::NoSolver {
                problem: problem.name(),
            });
        }
        let eff = self.prepare_call(g, opts);
        let mut errors = Vec::with_capacity(solvers.len());
        for solver in solvers {
            // `None`: skipped, because the call token has already fired.
            if eff.cancel.is_cancelled() {
                errors.push(None);
                continue;
            }
            match solver.solve(g, problem, &eff) {
                Ok(sol) => return Ok(sol),
                Err(e) => errors.push(Some(e)),
            }
        }
        Err(Self::aggregate_failure(problem, opts, errors))
    }

    /// Answer a whole MSR budget sweep from **one** DP-MSR run: the DP's
    /// storage/retrieval frontier already contains every trade-off point,
    /// so an `N`-budget sweep costs one DP instead of `N` solves (how the
    /// paper reports DP-MSR's runtime in Figures 10–12).
    ///
    /// Returns one entry per budget, aligned with `budgets`. Every returned
    /// [`Solution`] is validated and budget-checked like any other engine
    /// output, and all carry the one run's state count in
    /// [`SolverMeta::iterations`]; `None` entries are budgets below the
    /// frontier. The deadline/cancellation in `opts` preempts the
    /// underlying DP.
    pub fn solve_sweep(
        &self,
        g: &VersionGraph,
        budgets: &[Cost],
        opts: &SolveOptions,
    ) -> Result<Vec<Option<Solution>>, SolveError> {
        const SOLVER: &str = "DP-MSR";
        let started = Instant::now();
        let eff = self.prepare_call(g, opts);
        let root = NodeId(0);
        let t = crate::tree::extract_tree(g, root).ok_or_else(|| SolveError::Infeasible {
            solver: SOLVER,
            detail: format!("graph is not spanning-reachable from root {root}"),
        })?;
        let max_budget = budgets.iter().copied().max().unwrap_or(0);
        let state =
            crate::tree::dp_msr::dp_msr(g, &t, max_budget, &eff.cancel).ok_or_else(|| {
                if eff.cancel.deadline_exceeded() {
                    SolveError::Timeout {
                        solver: SOLVER,
                        limit: opts.time_limit.unwrap_or_default(),
                    }
                } else {
                    SolveError::Cancelled { solver: SOLVER }
                }
            })?;
        let iterations = state.state_count();
        let mut solutions = Vec::with_capacity(budgets.len());
        for &budget in budgets {
            match state.plan_under(g, budget) {
                // A budget below the frontier is genuinely infeasible.
                None => solutions.push(None),
                Some((plan, costs)) => {
                    let mut meta = SolverMeta::new(SOLVER);
                    meta.iterations = iterations;
                    meta.reported_objective = Some(costs.total_retrieval);
                    let problem = ProblemKind::Msr {
                        storage_budget: budget,
                    };
                    // An invalid or over-budget reconstruction is a DP bug:
                    // surface it as an error, never as a fake infeasibility.
                    solutions.push(Some(Solution::checked(g, problem, plan, meta, started)?));
                }
            }
        }
        Ok(solutions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use crate::plan::Parent;
    use dsv_vgraph::generators::{bidirectional_path, random_tree, CostModel};

    fn graph() -> VersionGraph {
        random_tree(8, &CostModel::default(), 3)
    }

    #[test]
    fn engine_solves_all_four_problems() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let opts = SolveOptions::default();
        let smin = min_storage_value(&g);
        let rmax = g.max_edge_retrieval();

        for problem in [
            ProblemKind::Msr {
                storage_budget: smin * 2,
            },
            ProblemKind::Mmr {
                storage_budget: smin * 2,
            },
            ProblemKind::Bsr {
                retrieval_budget: rmax * g.n() as u64,
            },
            ProblemKind::Bmr {
                retrieval_budget: rmax * 2,
            },
        ] {
            let sol = engine.solve(&g, problem, &opts).expect("feasible");
            sol.plan.validate(&g).expect("valid");
            assert!(
                sol.constrained(problem) <= problem.budget(),
                "{}: budget violated",
                problem.name()
            );
            assert!(!sol.meta.solver.is_empty());
        }
    }

    #[test]
    fn solve_with_dispatches_by_name_and_rejects_mismatches() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let opts = SolveOptions::default();
        let smin = min_storage_value(&g);
        let msr = ProblemKind::Msr {
            storage_budget: smin * 2,
        };

        let sol = engine.solve_with("LMG", &g, msr, &opts).expect("feasible");
        assert_eq!(sol.meta.solver, "LMG");

        assert!(matches!(
            engine.solve_with("nope", &g, msr, &opts),
            Err(SolveError::UnknownSolver { .. })
        ));
        assert!(matches!(
            engine.solve_with("MP", &g, msr, &opts),
            Err(SolveError::UnsupportedProblem { solver: "MP", .. })
        ));
    }

    #[test]
    fn infeasible_budget_reports_infeasible() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let err = engine
            .solve(
                &g,
                ProblemKind::Msr { storage_budget: 0 },
                &SolveOptions::default(),
            )
            .expect_err("budget 0 is infeasible");
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn empty_engine_reports_no_solver() {
        let g = graph();
        let engine = Engine::new();
        let err = engine
            .solve(
                &g,
                ProblemKind::Msr { storage_budget: 1 },
                &SolveOptions::default(),
            )
            .expect_err("no solvers registered");
        assert!(matches!(err, SolveError::NoSolver { .. }));
    }

    #[test]
    fn expired_time_limit_reports_timeout() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let opts = SolveOptions {
            time_limit: Some(Duration::ZERO),
            ..Default::default()
        };
        let err = engine
            .solve(
                &g,
                ProblemKind::Msr {
                    storage_budget: u64::MAX / 8,
                },
                &opts,
            )
            .expect_err("zero time limit");
        assert!(matches!(err, SolveError::Timeout { .. }));
    }

    /// A deliberately broken solver: returns the minimum-storage plan no
    /// matter the budget — the engine must catch the overshoot.
    struct OvershootSolver;

    impl Solver for OvershootSolver {
        fn name(&self) -> &'static str {
            "overshoot"
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
            let plan = crate::baselines::min_storage_plan(g);
            Solution::checked(g, problem, plan, SolverMeta::new(self.name()), started)
        }
    }

    #[test]
    fn budget_violations_cannot_leave_the_engine() {
        let g = bidirectional_path(5, &CostModel::default(), 1);
        let mut engine = Engine::new();
        engine.register(Box::new(OvershootSolver));
        // A budget below minimum storage: the overshooting plan must be
        // rejected, not returned.
        let err = engine
            .solve(
                &g,
                ProblemKind::Msr { storage_budget: 1 },
                &SolveOptions::default(),
            )
            .expect_err("plan exceeds budget");
        assert!(matches!(err, SolveError::BudgetExceeded { .. }), "{err}");
    }

    /// A solver returning a structurally broken plan (delta edge entering
    /// the wrong node).
    struct InvalidPlanSolver;

    impl Solver for InvalidPlanSolver {
        fn name(&self) -> &'static str {
            "invalid"
        }
        fn supports(&self, _problem: ProblemKind) -> bool {
            true
        }
        fn solve(
            &self,
            g: &VersionGraph,
            problem: ProblemKind,
            _opts: &SolveOptions,
        ) -> Result<Solution, SolveError> {
            let started = Instant::now();
            let mut plan = StoragePlan::materialize_all(g);
            plan.parent[0] = Parent::Delta(dsv_vgraph::EdgeId(0));
            Solution::checked(g, problem, plan, SolverMeta::new(self.name()), started)
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut g = VersionGraph::new();
        let a = g.add_node(5);
        let b = g.add_node(5);
        g.add_edge(a, b, 1, 1); // edge 0 enters b, not a
        let mut engine = Engine::new();
        engine.register(Box::new(InvalidPlanSolver));
        let err = engine
            .solve(
                &g,
                ProblemKind::Msr {
                    storage_budget: u64::MAX / 8,
                },
                &SolveOptions::default(),
            )
            .expect_err("plan is invalid");
        assert!(matches!(err, SolveError::InvalidPlan { .. }), "{err}");
    }

    #[test]
    fn brute_force_dispatch_matches_direct_call() {
        let g = bidirectional_path(5, &CostModel::default(), 2);
        let engine = Engine::with_default_solvers();
        let smin = min_storage_value(&g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };
        let via_engine = engine
            .solve_with("BruteForce", &g, problem, &SolveOptions::default())
            .expect("feasible");
        let direct =
            crate::exact::brute::brute_force(&g, problem, &CancelToken::inert()).expect("feasible");
        assert_eq!(via_engine.plan, direct.plan);
        assert_eq!(via_engine.costs, direct.costs);
        assert!(via_engine.meta.proven_optimal);
    }

    #[test]
    fn greedy_metadata_reports_the_planview_objective() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let smin = min_storage_value(&g);
        for name in ["LMG", "LMG-All"] {
            let sol = engine
                .solve_with(
                    name,
                    &g,
                    ProblemKind::Msr {
                        storage_budget: smin * 2,
                    },
                    &SolveOptions::default(),
                )
                .expect("feasible");
            // The solver's own PlanView bookkeeping must agree with the
            // exact re-evaluation.
            assert_eq!(sol.meta.reported_objective, Some(sol.costs.total_retrieval));
        }
    }

    #[test]
    fn btw_solver_returns_the_certified_optimal_plan() {
        let g = bidirectional_path(6, &CostModel::default(), 5);
        let engine = Engine::with_default_solvers();
        let smin = min_storage_value(&g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };
        let sol = engine
            .solve_with("DP-BTW", &g, problem, &SolveOptions::default())
            .expect("feasible");
        // Constructive exact: whenever the DP completes, the returned plan
        // realizes the certificate — unconditionally.
        assert!(sol.meta.proven_optimal);
        let bound = sol.meta.lower_bound.expect("DP-BTW certifies");
        assert_eq!(bound, sol.costs.total_retrieval);
        assert_eq!(sol.meta.reported_objective, Some(bound));
        // And it matches the direct constructive entry point.
        let cfg = crate::btw::BtwConfig {
            storage_prune: Some(problem.budget()),
            ..Default::default()
        };
        let (plan, (_, r)) = crate::btw::btw_msr(&g, &cfg, &CancelToken::inert())
            .and_then(|dp| dp.plan_under(&g, problem.budget()))
            .expect("feasible");
        assert_eq!(plan, sol.plan);
        assert_eq!(r, sol.costs.total_retrieval);
    }
}
