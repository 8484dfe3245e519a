//! # dataset-versioning
//!
//! A from-scratch Rust implementation of Guo, Li, Sukprasert, Khuller,
//! Deshpande & Mukherjee, *"To Store or Not to Store: a graph theoretical
//! approach for Dataset Versioning"* (IPPS 2024, arXiv:2402.11741).
//!
//! Given many versions of a dataset and the deltas between them, the
//! library decides which versions to **materialize** and which to rebuild
//! from **deltas**, optimizing the storage/retrieval trade-off:
//!
//! * **MSR** — minimize total retrieval cost under a storage budget;
//! * **MMR** — minimize the worst retrieval cost under a storage budget;
//! * **BSR/BMR** — minimize storage under retrieval budgets.
//!
//! All four problems are served by one entry point: the solver
//! [`core::engine::Engine`]. It dispatches a
//! [`ProblemKind`](core::problem::ProblemKind) to registered solvers (LMG,
//! LMG-All, Modified Prim's, DP-MSR, DP-BMR, DP-BTW, brute force),
//! validates and budget-checks every plan before returning it, and offers a
//! portfolio mode that runs every applicable solver and keeps the best
//! feasible answer. Racing/portfolio dispatch fans out across a
//! work-stealing thread pool (cooperatively preemptible via
//! [`CancelToken`](core::cancel::CancelToken), deterministic: byte-identical
//! results to sequential execution), and the batched
//! [`solve_sweep`](core::engine::Engine::solve_sweep) answers a whole MSR
//! budget sweep from a single DP run. Proven MSR optima come from DP-BTW,
//! the paper's Section 5.3 dynamic program, on low-width graphs (brute
//! force covers tiny ones).
//!
//! ## Planning vs execution
//!
//! Planning is the middle of the pipeline, not the end. A solver
//! [`Solution`](core::engine::Solution) is a *decision*; the
//! [`PlanExecutor`](core::executor::PlanExecutor) carries it out against a
//! content-addressed [`Store`](delta::store::Store):
//!
//! * **backends** — [`MemStore`](delta::MemStore) (in-memory) and
//!   [`PackStore`](delta::PackStore) (persistent: append-only pack with a
//!   fixed-width mmap-friendly index, hash-keyed loose files for large
//!   objects, reference-counted compacting GC);
//! * **ingest** — materialized versions become payload chunks, stored
//!   deltas become applyable encoded deltas; identical objects across
//!   plans are deduplicated by content address;
//! * **execute** — every version is reconstructed by walking the plan's
//!   retrieval forest, hash-verified against the source, and *measured*:
//!   storage/retrieval costs re-priced from the stored bytes must equal
//!   the plan's predictions exactly (asserted in tests and gated in CI by
//!   `repro --experiment store`).
//!
//! [`solve_and_execute`](core::engine::Engine::solve_and_execute) runs the
//! whole solve → store → verify chain in one call.
//!
//! Serving reads is its own layer: [`Checkout`](core::checkout::Checkout)
//! is a `&self`-shareable batched reader that plans the union of a
//! request batch's retrieval chains, hydrates shared prefixes once,
//! reconstructs independent subtrees in parallel over borrowed
//! (`Store::get_ref`) bytes, and keeps hot payloads in a depth-aware
//! LRU [`CheckoutCache`](core::checkout::CheckoutCache) — gated by
//! `repro --experiment checkout`.
//!
//! ## Serving a shared engine
//!
//! [`VersioningService`](core::service::VersioningService) turns the
//! engine + store into a multi-client service: `Solve`, `Checkout`, and
//! `Commit` requests flow through a **bounded** queue onto a
//! thread-per-core worker pool. Over capacity, requests are shed
//! immediately with a typed `Overloaded { retry_after_hint }` instead of
//! queueing forever; every admitted request carries a deadline that
//! becomes a chained [`CancelToken`](core::cancel::CancelToken) polled
//! inside the DPs, so expired work is preempted and surfaces as
//! `Cancelled` — never as a late result. Under deadline pressure a
//! `Solve` walks a degradation ladder (full portfolio → LMG-All
//! heuristic → cached plan from a previously-seen graph fingerprint),
//! each reply labeled with the tier that produced it; `Checkout`s go
//! through the self-healing batched reader, so injected store faults
//! heal instead of failing requests. Gated by `repro --experiment
//! service`.
//!
//! ## Online planning & live migration
//!
//! A commit stream does not re-solve: the
//! [`OnlinePlanner`](core::online::OnlinePlanner) absorbs graph mutations
//! (`add_version` / `add_edge` / `retire_version`) into a live LMG-All
//! plan by re-scoring only the dirtied candidates through the incremental
//! greedy machinery, with a declared regret bound
//! ([`ONLINE_REGRET_BOUND`](core::online::ONLINE_REGRET_BOUND)) against
//! the from-scratch solve
//! ([`resolve_scratch`](core::online::OnlinePlanner::resolve_scratch)
//! is the byte-identical oracle). The matching store-side primitive is
//! [`PlanExecutor::migrate`](core::executor::PlanExecutor::migrate):
//! diff two plans, write only the changed objects, retain-before-release
//! so no live version is ever unreadable. The service's
//! `Absorb` request chains both — mutate → absorb → migrate — per
//! commit, gated by `repro --experiment online`.
//!
//! ## Scale: sharded hierarchical solving
//!
//! Past a few tens of thousands of versions, one monolithic solve stops
//! scaling. [`ShardedSolver`](core::engine::sharded::ShardedSolver) —
//! registered first in the default engine — partitions the graph into
//! bounded-size shards ([`vgraph::partition`]: connected components, then
//! treewidth-separator cuts from [`treewidth::separator`]), solves the
//! shards in parallel under a deterministic budget split, and stitches the
//! local plans through a coarsened cross-shard solve. Results are
//! byte-identical at any thread count, exactly budget-safe, and gated
//! within a declared regret bound
//! ([`SHARD_REGRET_BOUND`](core::engine::sharded::SHARD_REGRET_BOUND)) of
//! whole-graph LMG-All by `repro --experiment shard`. Small graphs are refused deterministically, so everyday dispatch
//! is unchanged; setting
//! [`ShardConfig::min_graph_nodes`](core::engine::sharded::ShardConfig::min_graph_nodes)
//! to `usize::MAX` disables the path entirely.
//!
//! ## Quickstart
//!
//! ```
//! use dataset_versioning::prelude::*;
//!
//! // Build a version graph: nodes carry materialization costs, edges carry
//! // (storage, retrieval) delta costs.
//! let mut g = VersionGraph::new();
//! let v1 = g.add_node(10_000);
//! let v2 = g.add_node(10_100);
//! g.add_bidirectional_edge(v1, v2, 200, 200);
//!
//! // Budget: 1.2x the storage-minimal plan.
//! let smin = min_storage_value(&g);
//! let problem = ProblemKind::Msr { storage_budget: smin * 12 / 10 };
//!
//! // One engine serves every problem kind.
//! let engine = Engine::with_default_solvers();
//! let solution = engine
//!     .solve(&g, problem, &SolveOptions::default())
//!     .expect("feasible");
//! assert!(solution.costs.storage <= smin * 12 / 10);
//! println!("solved by {}", solution.meta.solver);
//!
//! // Portfolio mode: run all applicable solvers, keep the best plan.
//! let best = engine
//!     .portfolio(&g, problem, &SolveOptions::default())
//!     .expect("feasible");
//! assert!(best.best.costs.total_retrieval <= solution.costs.total_retrieval);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`dsv_vgraph`] | graph container + arborescences, Dijkstra, MST, generators |
//! | [`dsv_delta`] | Myers diff, chunk sketches, synthetic corpora (Table 4), and the content-addressed [`store`](delta::store) (Mem/Pack backends, codecs, GC) |
//! | [`dsv_treewidth`] | tree decompositions, nice decompositions |
//! | [`dsv_core`] | the [`Engine`](core::engine::Engine) + the algorithms under it: LMG, LMG-All, MP, DP-BMR, DP-MSR, FPTAS, DP-BTW (the exact MSR solver), reductions, brute force — and the [`executor`](core::executor) that materializes plans against a store |
//!
//! The free algorithm functions ([`fn@prelude::lmg_all`],
//! [`prelude::dp_msr_on_graph`], …) remain exported for direct use and for
//! benchmarking individual algorithms; the engine is a thin validated
//! dispatch layer over exactly those functions, as the parity tests in
//! `tests/engine.rs` verify.

#![warn(missing_docs)]

pub use dsv_core as core;
pub use dsv_delta as delta;
pub use dsv_treewidth as treewidth;
pub use dsv_vgraph as vgraph;

/// Everything a typical user needs in one import.
pub mod prelude {
    pub use dsv_core::baselines::{
        checkpoint_plan, min_storage_plan, min_storage_value, shortest_path_plan,
    };
    pub use dsv_core::btw::{btw_msr, btw_msr_plan, btw_msr_value, BtwConfig, BtwResult};
    pub use dsv_core::cancel::CancelToken;
    pub use dsv_core::checkout::{
        CacheStats, Checkout, CheckoutCache, CheckoutOutcome, CheckoutStats, RepairStats,
        RepairTicket, ServeOutcome,
    };
    pub use dsv_core::engine::{
        sharded_msr, AttemptOutcome, Engine, ExecuteError, Execution, MsrSweep, Portfolio,
        PortfolioAttempt, ShardConfig, ShardStats, ShardedSolver, SharedWork, Solution, SolveError,
        SolveOptions, Solver, SolverMeta, SHARD_REGRET_BOUND,
    };
    pub use dsv_core::exact::brute_force;
    pub use dsv_core::executor::{
        ExecError, ExecutionReport, MigrationStats, PlanExecutor, StoredPlan,
    };
    pub use dsv_core::heuristics::{lmg, lmg_all, modified_prims};
    pub use dsv_core::online::{OnlinePlanner, OnlineStats, ONLINE_REGRET_BOUND};
    pub use dsv_core::plan::{Parent, PlanCosts, StoragePlan};
    pub use dsv_core::problem::{Objective, ProblemKind};
    pub use dsv_core::reductions::{bsr_via_msr, mmr_on_graph};
    pub use dsv_core::retry::RetryPolicy;
    pub use dsv_core::service::{
        Mutation, PlanId, Reply, Request, ServeTier, ServiceConfig, ServiceError, ServiceStats,
        Ticket, VersioningService,
    };
    pub use dsv_core::tree::{
        dp_bmr_on_graph, dp_msr_on_graph, dp_msr_sweep, extract_tree, TreeDpConfig,
    };
    pub use dsv_delta::corpus::{corpus, corpus_with_content, CorpusName};
    pub use dsv_delta::store::{
        CorpusContent, CrashPoint, Durability, FaultOp, FaultPlan, FaultStats, FaultStore,
        MemStore, ObjectHasher, ObjectId, ObjectKind, PackOptions, PackStore, Store, StoreError,
        VersionSource,
    };
    pub use dsv_delta::transforms::{erdos_renyi_from_sketches, random_compression};
    pub use dsv_treewidth::split_component;
    pub use dsv_vgraph::{
        partition_graph, Components, Cost, EdgeId, NodeId, Partition, PartitionError, VersionGraph,
    };
}
