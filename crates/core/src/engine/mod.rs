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
//!   solvers, in preference order, plus a [`Engine::portfolio`] mode that
//!   runs every applicable solver and returns the best feasible plan, and
//!   a batched [`Engine::solve_sweep`] that answers a whole MSR budget
//!   sweep from **one** DP-MSR run (the paper's "whole spectrum of
//!   solutions at once").
//!
//! Every solution handed out is validated ([`StoragePlan::validate`]) and
//! budget-checked against its problem before it leaves the engine, so a
//! buggy or heuristic solver can never silently return an infeasible plan
//! — it becomes a [`SolveError::BudgetExceeded`] instead.
//!
//! ## Parallel dispatch, preemption, and shared work
//!
//! [`Engine::solve`] tries the supporting solvers one at a time in
//! preference order, so the solver that runs has the whole thread pool
//! (see the `rayon` shim; width from `DSV_NUM_THREADS`) for its own
//! parallelism — the sharded path solves its shards on it. Only
//! [`Engine::portfolio`] fans solvers out across threads: its wall time
//! approaches the slowest single solver instead of the sum. Every call
//! derives one [`CancelToken`] from [`SolveOptions::cancel`] and
//! [`SolveOptions::time_limit`], which long DPs poll mid-run (cooperative
//! preemption inside running solvers, not just between them). Results are
//! **deterministic**: portfolio attempts are recorded in registry order
//! and every combination step is order-stable, so plans are byte-identical
//! at any pool width.
//!
//! Heuristic results (LMG-All plans, DP-MSR frontier plans) are memoized
//! in a [`SharedWork`] keyed by graph fingerprint and budget, and the
//! sharded solver's budget-independent prep by graph fingerprint and
//! shard size, so callers that reuse one [`SolveOptions`] on the same
//! graph compute each once.
//!
//! The legacy free functions ([`fn@crate::heuristics::lmg`],
//! [`crate::tree::dp_msr_on_graph`], …) remain available and are what the
//! built-in solvers call; the engine adds dispatch, validation, and
//! metadata, not new algorithms.
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options shared by every solver invocation.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Root used by tree-extraction based solvers (DP-MSR, DP-BMR, the
    /// MMR/BSR reductions).
    pub root: NodeId,
    /// Wall-clock limit, enforced cooperatively: solvers are not *started*
    /// past the deadline (recorded as skipped in portfolios), and running
    /// DPs and searches poll a deadline token mid-run and abort early.
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
            root: NodeId(0),
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
    /// the minimum-storage plan, or the graph is not reachable from the
    /// chosen root).
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
    /// this solver could start (or finish a portfolio).
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
    /// reported as data so a portfolio can route around it.
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

/// How one solver fared within a [`Portfolio`] run.
#[derive(Clone, Debug)]
pub enum AttemptOutcome {
    /// The solver produced a feasible validated plan with these costs.
    Solved(PlanCosts),
    /// The solver ran and failed with this error.
    Failed(SolveError),
    /// The solver was never started: the deadline had already expired (or
    /// the call was cancelled) before its turn.
    Skipped,
}

impl AttemptOutcome {
    /// Whether the attempt produced a feasible plan.
    pub fn is_ok(&self) -> bool {
        matches!(self, AttemptOutcome::Solved(_))
    }

    /// The plan costs on success.
    pub fn ok(&self) -> Option<&PlanCosts> {
        match self {
            AttemptOutcome::Solved(costs) => Some(costs),
            _ => None,
        }
    }

    /// The error of a failed attempt.
    pub fn err(&self) -> Option<&SolveError> {
        match self {
            AttemptOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the solver was skipped without being started.
    pub fn is_skipped(&self) -> bool {
        matches!(self, AttemptOutcome::Skipped)
    }
}

/// One solver's result within a [`Portfolio`] run.
#[derive(Clone, Debug)]
pub struct PortfolioAttempt {
    /// Which solver ran.
    pub solver: &'static str,
    /// Its costs on success, why it failed, or that it was skipped.
    pub outcome: AttemptOutcome,
    /// Wall-clock time of the attempt ([`Duration::ZERO`] for skipped
    /// attempts, which never ran).
    pub wall_time: Duration,
}

/// Result of [`Engine::portfolio`]: the winning solution plus the full
/// per-solver scoreboard.
#[derive(Clone, Debug)]
pub struct Portfolio {
    /// The best feasible solution across all attempted solvers.
    pub best: Solution,
    /// Every attempt, in registry order.
    pub attempts: Vec<PortfolioAttempt>,
}

/// One solver's outcome (`None`: skipped because the call token had
/// fired) and wall time.
type Attempt = (Option<Result<Solution, SolveError>>, Duration);

/// Registry dispatching problems to solvers.
///
/// [`Engine::solve`] tries supporting solvers in registration order and
/// returns the first success — registration order is therefore the
/// preference order. [`Engine::portfolio`] runs *all* supporting solvers
/// and keeps the best feasible plan.
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

    /// Names of all registered solvers, in preference order.
    pub fn solver_names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
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

    /// Run one solver unless the call token has already fired (`None`:
    /// skipped), timing the attempt.
    fn attempt(
        solver: &dyn Solver,
        g: &VersionGraph,
        problem: ProblemKind,
        eff: &SolveOptions,
    ) -> Attempt {
        if eff.cancel.is_cancelled() {
            return (None, Duration::ZERO);
        }
        let t0 = Instant::now();
        let result = solver.solve(g, problem, eff);
        (Some(result), t0.elapsed())
    }

    /// Run every one of `solvers` against `problem` for a portfolio,
    /// sequentially or fanned out on the thread pool, returning per-solver
    /// results **in input order**.
    fn run_attempts(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        solvers: &[&dyn Solver],
        eff: &SolveOptions,
    ) -> Vec<Attempt> {
        if solvers.len() <= 1 || rayon::current_num_threads() <= 1 {
            return solvers
                .iter()
                .map(|&solver| Self::attempt(solver, g, problem, eff))
                .collect();
        }
        // One task per solver; slots keep registry order.
        let slots: Vec<Mutex<Option<Attempt>>> = solvers.iter().map(|_| Mutex::new(None)).collect();
        rayon::scope(|scope| {
            for (&solver, slot) in solvers.iter().zip(&slots) {
                scope.spawn(move || {
                    *slot.lock().expect("attempt slot") =
                        Some(Self::attempt(solver, g, problem, eff));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("attempt slot")
                    .expect("every spawned attempt reports")
            })
            .collect()
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
            match Self::attempt(solver, g, problem, &eff).0 {
                Some(Ok(sol)) => return Ok(sol),
                Some(Err(e)) => errors.push(Some(e)),
                None => errors.push(None),
            }
        }
        Err(Self::aggregate_failure(problem, opts, errors))
    }

    /// Run every supporting solver — concurrently when the pool allows —
    /// and return the best feasible solution (minimum objective; ties
    /// broken by the smaller constrained cost), plus the full scoreboard
    /// in registry order. Solvers not started before the deadline are
    /// marked [`AttemptOutcome::Skipped`].
    pub fn portfolio(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Portfolio, SolveError> {
        let solvers = self.solvers_for(problem);
        if solvers.is_empty() {
            return Err(SolveError::NoSolver {
                problem: problem.name(),
            });
        }
        let eff = self.prepare_call(g, opts);
        let results = self.run_attempts(g, problem, &solvers, &eff);

        let mut attempts = Vec::with_capacity(results.len());
        let mut best: Option<Solution> = None;
        let mut errors = Vec::with_capacity(results.len());
        for (solver, (result, wall_time)) in solvers.iter().zip(results) {
            let outcome = match result {
                Some(Ok(sol)) => {
                    let costs = sol.costs;
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            let (o, bo) = (sol.objective(problem), b.objective(problem));
                            o < bo || (o == bo && sol.constrained(problem) < b.constrained(problem))
                        }
                    };
                    if better {
                        best = Some(sol);
                    }
                    AttemptOutcome::Solved(costs)
                }
                Some(Err(e)) => {
                    errors.push(Some(e.clone()));
                    AttemptOutcome::Failed(e)
                }
                None => {
                    errors.push(None);
                    AttemptOutcome::Skipped
                }
            };
            attempts.push(PortfolioAttempt {
                solver: solver.name(),
                outcome,
                wall_time,
            });
        }
        match best {
            Some(best) => Ok(Portfolio { best, attempts }),
            None => Err(Self::aggregate_failure(problem, opts, errors)),
        }
    }

    /// Answer a whole MSR budget sweep from **one** DP-MSR run: the DP's
    /// storage/retrieval frontier already contains every trade-off point,
    /// so an `N`-budget sweep costs one DP instead of `N` solves (how the
    /// paper reports DP-MSR's runtime in Figures 10–12).
    ///
    /// Every returned [`Solution`] is validated and budget-checked like any
    /// other engine output; `None` entries are budgets below the frontier.
    /// The deadline/cancellation in `opts` preempts the underlying DP.
    pub fn solve_sweep(
        &self,
        g: &VersionGraph,
        budgets: &[Cost],
        opts: &SolveOptions,
    ) -> Result<MsrSweep, SolveError> {
        const SOLVER: &str = "DP-MSR";
        let started = Instant::now();
        let eff = self.prepare_call(g, opts);
        let t = crate::tree::extract_tree(g, eff.root).ok_or_else(|| SolveError::Infeasible {
            solver: SOLVER,
            detail: format!("graph is not spanning-reachable from root {}", eff.root),
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
        Ok(MsrSweep {
            solutions,
            dp_runs: 1,
        })
    }
}

/// Result of [`Engine::solve_and_execute`]: the plan, where its bytes
/// live, and how the measured costs compare to the predictions.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The validated solution the engine produced.
    pub solution: Solution,
    /// The plan's objects in the store (release via
    /// [`PlanExecutor::release`](crate::executor::PlanExecutor::release)
    /// when retiring the plan).
    pub stored: crate::executor::StoredPlan,
    /// Hash-verification and measured-vs-predicted cost report.
    pub report: crate::executor::ExecutionReport,
}

/// Failure of the solve → store → verify chain.
#[derive(Clone, Debug)]
pub enum ExecuteError {
    /// No feasible plan was produced.
    Solve(SolveError),
    /// The plan could not be stored, reconstructed, or verified.
    Exec(crate::executor::ExecError),
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Solve(e) => write!(f, "solve failed: {e}"),
            ExecuteError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ExecuteError {}

impl From<SolveError> for ExecuteError {
    fn from(e: SolveError) -> Self {
        ExecuteError::Solve(e)
    }
}

impl From<crate::executor::ExecError> for ExecuteError {
    fn from(e: crate::executor::ExecError) -> Self {
        ExecuteError::Exec(e)
    }
}

impl Engine {
    /// Solve `problem`, then immediately execute the winning plan against
    /// `store`: ingest its objects, reconstruct every version from the
    /// stored bytes, hash-verify each reconstruction against `source`, and
    /// measure real storage/retrieval costs next to the predictions.
    ///
    /// This is the end-to-end pipeline the planning layers feed:
    /// solver → [`Solution`] → [`PlanExecutor`](crate::executor::PlanExecutor)
    /// → verified bytes. The stored objects stay referenced until the
    /// caller releases the returned [`Execution::stored`].
    pub fn solve_and_execute<S: dsv_delta::Store + Sync + ?Sized>(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
        store: &mut S,
        source: &dyn dsv_delta::VersionSource,
    ) -> Result<Execution, ExecuteError> {
        let solution = self.solve(g, problem, opts)?;
        let mut executor = crate::executor::PlanExecutor::new(store);
        let (stored, report) = executor.run(g, &solution.plan, source)?;
        Ok(Execution {
            solution,
            stored,
            report,
        })
    }
}

/// Result of [`Engine::solve_sweep`]: one validated solution per requested
/// budget, all answered from a single DP run.
#[derive(Clone, Debug)]
pub struct MsrSweep {
    /// Per-budget solutions, aligned with the input budgets (`None` =
    /// infeasible at that budget). All share one DP run: their
    /// [`SolverMeta::iterations`] carry the same single-run state count.
    pub solutions: Vec<Option<Solution>>,
    /// Number of DP-MSR runs the sweep performed — always `1`, surfaced so
    /// callers and tests can assert the amortization holds.
    pub dp_runs: usize,
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
    fn portfolio_returns_the_best_feasible_plan() {
        let g = graph();
        let engine = Engine::with_default_solvers();
        let opts = SolveOptions::default();
        let smin = min_storage_value(&g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };

        let portfolio = engine.portfolio(&g, problem, &opts).expect("feasible");
        let successes: Vec<Cost> = portfolio
            .attempts
            .iter()
            .filter_map(|a| a.outcome.ok())
            .map(|c| c.total_retrieval)
            .collect();
        assert!(
            successes.len() >= 3,
            "expected ≥ 3 feasible MSR solvers, got {successes:?}"
        );
        let best = portfolio.best.objective(problem);
        assert_eq!(best, successes.iter().copied().min().expect("non-empty"));
        portfolio.best.plan.validate(&g).expect("valid");
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
        let (plan, (_, r)) = crate::btw::btw_msr_plan(&g, problem.budget()).expect("feasible");
        assert_eq!(plan, sol.plan);
        assert_eq!(r, sol.costs.total_retrieval);
    }
}
