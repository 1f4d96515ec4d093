//! # acd-bench — experiment harness reproducing the paper's evaluation
//!
//! Each experiment in [`experiments`] regenerates one figure, worked example
//! or analytic claim of the paper (see `DESIGN.md` for the experiment
//! index). Experiments produce [`Table`]s that are printed to stdout by the
//! `experiments` binary and optionally written as CSV files for
//! `EXPERIMENTS.md`.
//!
//! Wall-clock measurements for the timing-sensitive experiments also exist as
//! Criterion benches under `benches/`; the harness versions report the same
//! quantities in coarse form so that a single `cargo run -p acd-bench --bin
//! experiments --release` regenerates every table.
//!
//! The crate's second binary, `exact_gate`, is the CI perf gate: it reads the
//! stdout of the repository benchmark (`benchmark/`) and compares every count
//! the benchmark marks `exact` bit for bit against `perf/exact_counts.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;

/// Workload sizes used by the harness; `quick` keeps the full sweep structure
/// while shrinking the populations so the whole suite finishes in seconds
/// (used by integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Number of subscriptions for index-population experiments.
    pub subscriptions: usize,
    /// Number of query subscriptions per measurement point.
    pub queries: usize,
    /// Number of brokers in the overlay experiment.
    pub brokers: usize,
    /// Number of events published in the overlay experiment.
    pub events: usize,
}

impl RunScale {
    /// The full scale used to produce `EXPERIMENTS.md`.
    pub fn full() -> Self {
        RunScale {
            subscriptions: 20_000,
            queries: 400,
            brokers: 31,
            events: 500,
        }
    }

    /// A reduced scale for smoke tests.
    pub fn quick() -> Self {
        RunScale {
            subscriptions: 1_500,
            queries: 60,
            brokers: 15,
            events: 50,
        }
    }
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale::full()
    }
}
