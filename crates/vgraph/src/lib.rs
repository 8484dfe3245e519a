//! # dsv-vgraph — version-graph container and graph algorithms
//!
//! This crate is the graph substrate for the dataset-versioning system of
//! Guo et al., *"To Store or Not to Store: a graph theoretical approach for
//! Dataset Versioning"* (IPPS 2024).
//!
//! A [`VersionGraph`] is a directed multigraph whose vertices are dataset
//! versions (each with a materialization cost `s_v`) and whose edges are
//! deltas (each with a storage cost `s_e` and a retrieval cost `r_e`).
//! Adjacency is served from a lazily-built CSR index (contiguous
//! offset+arena slices per node and direction — see [`graph`]), so
//! incident-edge scans are cache-friendly linear passes.
//!
//! On top of the container the crate provides the algorithmic substrates the
//! versioning algorithms need:
//!
//! * [`arborescence`] — minimum spanning arborescence (directed MST), both a
//!   fast Gabow/Tarjan `O(E log V)` implementation and a naive Chu–Liu
//!   reference used for cross-checking,
//! * [`dijkstra`] — shortest-path arborescences (Problem 2 of the paper),
//! * [`traversal`], [`topo`] — Euler tours and forest post-orders of
//!   storage plans,
//! * [`unionfind`], [`skew_heap`], [`indexed_heap`] — data-structure
//!   substrates,
//! * [`partition`] — connected components and bounded-size shard
//!   partitioning (splitter-injected) for the sharded solve path,
//! * [`generators`] — synthetic graph families (paths, stars, caterpillars,
//!   series-parallel graphs, Erdős–Rényi digraphs, multi-component shard
//!   forests) used by tests and the experiment harness.
//!
//! Graphs and partitions live in memory only (corpora are synthesized and
//! the online planner mutates graphs in place), so the crate has no file
//! format.

#![warn(missing_docs)]

pub mod arborescence;
pub mod dijkstra;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod indexed_heap;
pub mod partition;
pub mod skew_heap;
pub mod topo;
pub mod traversal;
pub mod unionfind;

pub use graph::{EdgeData, VersionGraph};
pub use ids::{EdgeId, NodeId};
pub use partition::{partition_graph, Components, Partition, PartitionError};

/// Cost unit used throughout the system (bytes in the paper's experiments).
///
/// The paper assumes `s_v, s_e, r_e ∈ ℕ` ("there is usually a smallest unit
/// of cost in the real world"), so all costs are unsigned integers.
pub type Cost = u64;

/// A value larger than any cost that can arise in a valid instance, used as
/// "infinity" in dynamic programs. Chosen so that `INF + INF` does not wrap.
pub const INF: Cost = u64::MAX / 4;

/// Saturating add that also saturates at [`INF`], keeping "infinite" costs
/// absorbing in dynamic programs.
#[inline]
pub fn cost_add(a: Cost, b: Cost) -> Cost {
    let s = a.saturating_add(b);
    if s >= INF {
        INF
    } else {
        s
    }
}
