//! Exact solver: exhaustive enumeration for tiny instances, the ground
//! truth in tests. Proven optima beyond that size come from the
//! bounded-width DP ([`crate::btw`]).

pub mod brute;

pub use brute::{brute_force, brute_force_cancellable, BruteForceResult};
