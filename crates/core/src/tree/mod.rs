//! Tree algorithms: the Section-4 exact BMR DP, the Section-5.1 MSR FPTAS,
//! the Section-6.2 scalable DP-MSR heuristic, and the arborescence-based
//! tree extraction that lets all of them run on arbitrary version graphs.

pub mod dp_bmr;
pub mod dp_msr;
pub mod extract;
pub mod fptas;
pub mod msr_engine;

pub use dp_bmr::dp_bmr;
pub use dp_msr::dp_msr_on_graph;
pub use extract::{extract_tree, BidirTree};
pub use fptas::{msr_tree_exact, msr_tree_fptas};
pub use msr_engine::{run_tree_msr, TreeDpConfig, TreeMsrDp};
