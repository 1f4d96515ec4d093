//! # acd — approximate covering detection among content-based subscriptions
//!
//! A from-scratch Rust implementation of the system described in
//! *"Approximate Covering Detection among Content-Based Subscriptions Using
//! Space Filling Curves"* (Shen & Tirthapura): content-based
//! publish/subscribe routers can skip propagating a subscription when an
//! already-known subscription *covers* it, and an ε-approximate
//! point-dominance search over a space-filling-curve index detects most such
//! covering relationships at a small fraction of the cost of an exhaustive
//! search.
//!
//! This crate is a facade: it re-exports the workspace's crates under short
//! module names and offers a [`prelude`] with the types most applications
//! need. See the individual crates for the full APIs:
//!
//! * [`sfc`] — space filling curves (Z-order, Hilbert, Gray-code), standard
//!   cubes, greedy decomposition, runs and the sorted key array;
//! * [`subscription`] — schemas, range predicates, subscriptions, events and
//!   the Edelsbrunner–Overmars transform to point dominance;
//! * [`covering`] — the covering-detection indexes (linear baseline,
//!   exhaustive SFC and ε-approximate SFC) and covering policies;
//! * [`broker`] — a Siena-style acyclic broker overlay simulator with
//!   covering-aware subscription propagation;
//! * [`workload`] — reproducible synthetic subscription and event workloads.
//!
//! ## Quick start
//!
//! ```
//! use acd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe the message schema.
//! let schema = Schema::builder()
//!     .attribute("volume", 0.0, 10_000.0)
//!     .attribute("price", 0.0, 500.0)
//!     .bits_per_attribute(10)
//!     .build()?;
//!
//! // 2. Build an approximate covering index (search >= 95% of the region).
//! let mut index = SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.05)?)?;
//!
//! // 3. Register subscriptions; ask whether each newcomer is covered.
//! let wide = SubscriptionBuilder::new(&schema)
//!     .at_least("volume", 500.0)
//!     .at_most("price", 95.0)
//!     .build(1)?;
//! index.insert(&wide)?;
//!
//! let narrow = SubscriptionBuilder::new(&schema)
//!     .range("volume", 1_000.0, 2_000.0)
//!     .range("price", 50.0, 90.0)
//!     .build(2)?;
//! let outcome = index.find_covering(&narrow)?;
//! assert_eq!(outcome.covering, Some(1)); // no need to propagate `narrow`
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]

pub use acd_broker as broker;
pub use acd_covering as covering;
pub use acd_sfc as sfc;
pub use acd_subscription as subscription;
pub use acd_workload as workload;

/// The types most applications need, importable with a single `use`.
pub mod prelude {
    pub use acd_broker::{BrokerConfig, BrokerNetwork, Topology};
    pub use acd_covering::{
        ApproxConfig, CoveringIndex, CoveringPolicy, LinearScanIndex, QueryEngine, SfcCoveringIndex,
    };
    pub use acd_sfc::{CurveKind, Universe};
    pub use acd_subscription::{Event, RangePredicate, Schema, Subscription, SubscriptionBuilder};
    pub use acd_workload::{
        ChurnConfig, ChurnOp, ChurnWorkload, Scenario, SubscriptionWorkload, WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        let schema = Schema::builder().attribute("x", 0.0, 1.0).build().unwrap();
        let index = SfcCoveringIndex::exhaustive(&schema).unwrap();
        assert_eq!(index.len(), 0);
        assert_eq!(CurveKind::Z.name(), "z-order");
    }
}
