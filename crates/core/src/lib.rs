//! # dsv-core — cost-efficient dataset versioning algorithms
//!
//! Implementation of Guo, Li, Sukprasert, Khuller, Deshpande & Mukherjee,
//! *"To Store or Not to Store: a graph theoretical approach for Dataset
//! Versioning"* (IPPS 2024).
//!
//! Given a version graph (versions with materialization costs, deltas with
//! storage/retrieval costs), a [`plan::StoragePlan`] decides which versions
//! to materialize and which deltas to store. The four optimization problems
//! of the paper are declared in [`problem`]; the algorithms:
//!
//! | module | algorithm | paper |
//! |--------|-----------|-------|
//! | [`baselines`] | min-storage arborescence, SPT, checkpointing | Problems 1–2 |
//! | [`mod@heuristics::lmg`] | Local Move Greedy | Algorithm 1 (prior work) |
//! | [`mod@heuristics::lmg_all`] | LMG-All | Algorithm 7, Section 6.1 |
//! | [`heuristics::mp`] | Modified Prim's | BMR baseline of Section 7 |
//! | [`mod@tree::dp_bmr`] | exact BMR / MMR on bidirectional trees | Algorithm 2, Section 4 |
//! | [`tree::fptas`] | MSR FPTAS on bidirectional trees | Section 5.1 |
//! | [`tree::dp_msr`] | scalable DP-MSR heuristic | Section 6.2 |
//! | [`tree::extract`] | arborescence → bidirectional-tree extraction | Section 6.2 |
//! | [`btw`] | exact MSR DP over nice path decompositions (proven optima) | Section 5.3 |
//! | [`reductions`] | MSR↔BSR and MMR↔BMR binary searches | Lemma 7 |
//! | [`exact`] | brute-force enumeration (test ground truth) | — |
//!
//! All of the above are unified behind the [`engine`]: a [`engine::Solver`]
//! trait, an [`engine::Engine`] registry dispatching [`problem::ProblemKind`]
//! to solvers, and a portfolio mode returning the best feasible plan. New
//! code should go through the engine; the free functions remain as the
//! algorithm layer underneath it.
//!
//! Planning is no longer the end of the pipeline: the [`executor`] takes
//! any engine [`engine::Solution`] and materializes it against a
//! content-addressed store (`dsv_delta::store`), reconstructing and
//! hash-verifying every version and measuring real storage/retrieval costs
//! next to the plan's predictions —
//! [`Engine::solve_and_execute`](engine::Engine::solve_and_execute) runs
//! the whole solve → store → verify chain in one call. The [`checkout`]
//! module is the *serving* side of the same machinery: a shareable
//! (`&self`) batched reader that hydrates shared retrieval-chain prefixes
//! once, reconstructs independent subtrees in parallel, and keeps hot
//! payloads in a depth-aware LRU cache.

#![warn(missing_docs)]

pub mod baselines;
pub mod btw;
pub mod cancel;
pub mod checkout;
pub mod engine;
pub mod exact;
pub mod executor;
pub mod heuristics;
pub mod online;
pub mod plan;
pub mod problem;
pub mod reductions;
pub mod retry;
pub mod service;
pub mod tree;

pub use cancel::CancelToken;
pub use checkout::{
    CacheStats, Checkout, CheckoutCache, CheckoutOutcome, CheckoutStats, RepairStats, RepairTicket,
    ServeOutcome,
};
pub use engine::{
    sharded_msr, Engine, Portfolio, ShardConfig, ShardStats, ShardedSolver, Solution, SolveError,
    SolveOptions, Solver, SolverMeta, SHARD_REGRET_BOUND,
};
pub use executor::{ExecError, ExecutionReport, MigrationStats, PlanExecutor, StoredPlan};
pub use online::{OnlinePlanner, OnlineStats, ONLINE_REGRET_BOUND};
pub use plan::{Parent, StoragePlan};
pub use problem::{Objective, ProblemKind};
pub use retry::RetryPolicy;
pub use service::{
    Mutation, PlanId, Reply, Request, ServeTier, ServiceConfig, ServiceError, ServiceStats, Ticket,
    VersioningService,
};
