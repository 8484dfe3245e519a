//! # dsv-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 7) and runs the gated benches of the solve → store → serve
//! path. Every entry of [`experiments::EXPERIMENTS`] returns a
//! [`report::Bench`]: typed [`report::Report`] tables plus named
//! [`report::Gate`]s. The `repro` binary renders the tables as Markdown
//! and CSV, writes `BENCH_<experiment>.json`, and exits 1 if a gate fails;
//! `repro --list` enumerates the experiments.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod sweep;

pub use report::{Bench, Gate, Report};
