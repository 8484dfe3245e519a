//! # dsv-treewidth — tree decompositions for version graphs
//!
//! Section 5.3 of the paper generalizes the tree DP for MinSum Retrieval to
//! graphs of bounded treewidth via nice tree decompositions. This crate
//! provides the decomposition machinery the rest of the system uses; the
//! DP-BTW solver in `dsv-core` sweeps its own separation order (a path
//! decomposition) instead of consuming a nice decomposition, see
//! `DESIGN.md`:
//!
//! * [`elimination`] — min-degree / min-fill elimination orderings, the
//!   standard practical route to good tree decompositions;
//! * [`decomposition`] — building a [`TreeDecomposition`] from an
//!   elimination order, plus full validation of the three tree-decomposition
//!   conditions (Definition 11);
//! * [`separator`] — the balanced two-way splits the sharded solving
//!   pipeline cuts oversized components with: along their branch
//!   structure by a tree-decomposition separator (decomposition bags are
//!   separators) up to 768 nodes, by BFS-order bisection above that;
//! * [`width`] — treewidth upper-bound estimation for arbitrary
//!   [`dsv_vgraph::VersionGraph`]s (used to reproduce footnote 7: the
//!   GitHub-derived graphs all have low treewidth).

#![warn(missing_docs)]

pub mod decomposition;
pub mod elimination;
pub mod separator;
pub mod width;

pub use decomposition::TreeDecomposition;
pub use elimination::{elimination_order, EliminationHeuristic};
pub use separator::split_component;
pub use width::treewidth_upper_bound;
