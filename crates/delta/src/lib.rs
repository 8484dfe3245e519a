//! # dsv-delta — delta engine, synthetic corpora, and the delta store
//!
//! The paper's experiments (Section 7) build version graphs from real GitHub
//! repositories: each commit is a node whose storage cost is its size in
//! bytes, and between each parent/child commit pair bidirectional delta
//! edges are created, with costs computed by `diff`.
//!
//! This crate rebuilds that pipeline from scratch — and, since the
//! planning/execution split, also provides the storage backends that
//! solver plans are *executed* against:
//!
//! ## Content and corpora (the planning inputs)
//!
//! * [`myers`] — a Myers `O(ND)` line diff, the delta engine;
//! * [`script`] — edit scripts with a byte-accurate cost model, apply and
//!   invert operations;
//! * [`dataset`] — versioned datasets as interned line sequences over
//!   multiple files;
//! * [`chunks`] — a chunk-sketch content model used for corpora too large to
//!   hold as text, and for deltas between *arbitrary* version pairs (the
//!   Erdős–Rényi construction);
//! * [`evolve`] — a commit-DAG evolution simulator (branches and merges;
//!   content drawn from per-commit seeded RNG streams, so corpora are
//!   byte-stable regardless of `DSV_NUM_THREADS`);
//! * [`mod@corpus`] — the named corpora of Table 4, regenerated synthetically
//!   at calibrated sizes, optionally with full per-version content;
//! * [`transforms`] — the "random compression" and "ER construction" graph
//!   transforms of Section 7.1.
//!
//! ## The store (the execution substrate)
//!
//! * [`store`] — the [`Store`] trait with two content-addressed,
//!   reference-counted backends: [`MemStore`] (the in-memory corpus behind
//!   the trait) and [`PackStore`] (persistent: an append-only pack with a
//!   fixed-width mmap-friendly index, plus hash-keyed loose files, and a
//!   compacting GC);
//! * [`store::codec`] — canonical payload/delta byte formats whose decoded
//!   *measured* costs are priced by exactly the models that priced the
//!   graph edges, so plan-predicted and store-measured costs must agree
//!   bit for bit;
//! * [`store::source`] — [`store::VersionSource`]: the bridge from
//!   retained corpus content to storable bytes.
//!
//! Plans produced by `dsv_core`'s engine are materialized against these
//! backends by `dsv_core::executor::PlanExecutor`; this crate deliberately
//! knows nothing about solvers — it stores, prices, and reconstructs bytes.
//!
//! Substitution note (also recorded in `DESIGN.md`): we cannot crawl GitHub,
//! so the corpora are synthesized. Small corpora carry real text and are
//! diffed with the real Myers engine; large corpora use the chunk-sketch
//! model. Both preserve what the algorithms actually consume — graph shape,
//! cost magnitudes, and the natural/unnatural delta cost ratio.

#![warn(missing_docs)]

pub mod chunks;
pub mod corpus;
pub mod dataset;
pub mod evolve;
pub mod myers;
pub mod script;
pub mod store;
pub mod transforms;

pub use chunks::ChunkSketch;
pub use corpus::{corpus, corpus_with_content, CorpusName, CorpusResult};
pub use script::EditScript;
pub use store::{
    CorpusContent, CrashPoint, Durability, FaultOp, FaultPlan, FaultStats, FaultStore, MemStore,
    ObjectHasher, ObjectId, ObjectKind, PackOptions, PackStore, Store, StoreError, VersionSource,
};
