//! # acd-workload — synthetic workloads for covering-detection experiments
//!
//! The paper evaluates covering detection on synthetic populations of
//! multi-attribute subscriptions. This crate generates those populations in a
//! reproducible (seeded) way:
//!
//! * [`SubscriptionWorkload`] draws subscriptions whose *centers* follow a
//!   configurable distribution (uniform, Zipf-skewed per attribute, or
//!   clustered around hot spots) and whose *widths* follow a configurable
//!   width model, including direct control of the aspect ratio that drives
//!   the paper's bounds.
//! * [`EventWorkload`] draws events matching the same distributions.
//! * [`ChurnWorkload`] interleaves the two into a mixed
//!   subscribe/unsubscribe/publish stream with configurable operation
//!   ratios — the dynamic workload the broker unsubscription path is
//!   built for.
//! * [`scenarios`] bundles named application scenarios (stock ticker, sensor
//!   network, churn) used by the examples and the broker experiments.
//!
//! ## Example
//!
//! ```
//! use acd_workload::{SubscriptionWorkload, WorkloadConfig, CenterDistribution, WidthModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = WorkloadConfig::builder()
//!     .attributes(3)
//!     .bits_per_attribute(10)
//!     .center_distribution(CenterDistribution::Uniform)
//!     .width_model(WidthModel::UniformFraction { min: 0.05, max: 0.4 })
//!     .seed(7)
//!     .build()?;
//! let mut workload = SubscriptionWorkload::new(&config)?;
//! let subs = workload.take(1000);
//! assert_eq!(subs.len(), 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![warn(missing_debug_implementations)]

pub mod churn;
pub mod config;
pub mod distributions;
mod error;
pub mod events;
pub mod scenarios;
pub mod subscriptions;

pub use churn::{ChurnConfig, ChurnOp, ChurnWorkload};
pub use config::{CenterDistribution, WidthModel, WorkloadConfig, WorkloadConfigBuilder};
pub use error::WorkloadError;
pub use events::EventWorkload;
pub use scenarios::Scenario;
pub use subscriptions::SubscriptionWorkload;

/// Convenience result alias used throughout the crate.
pub type Result<T, E = WorkloadError> = std::result::Result<T, E>;
