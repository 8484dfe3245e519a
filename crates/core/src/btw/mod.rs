//! DP-BTW: bounded-width dynamic programming for MinSum Retrieval
//! (Section 5.3 of the paper). Constructive: the exact frontier carries a
//! provenance arena, so any certified point reconstructs an optimal plan
//! ([`BtwResult::plan_under`]).

pub mod dp;
pub mod order;

pub use dp::{btw_msr, BtwConfig, BtwResult};
pub use order::{separation_order, SeparationOrder};
