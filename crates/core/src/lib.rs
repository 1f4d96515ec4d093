//! # acd-covering — approximate covering detection for content-based
//! subscriptions
//!
//! This is the paper's primary contribution: indexes that answer the
//! question a publish/subscribe router asks for every arriving subscription —
//! *"is this subscription already covered by one I have?"* — either exactly
//! or approximately.
//!
//! * [`PointDominanceIndex`] is the low-level engine: an ordered array of
//!   2β-dimensional points on a space filling curve, answering exhaustive and
//!   ε-approximate point-dominance queries (Problems 1 and 2 of the paper)
//!   with the greedy cube decomposition of Section 5.
//! * [`SfcCoveringIndex`] wraps the engine with the Edelsbrunner–Overmars
//!   transform so that callers speak in terms of [`Subscription`]s.
//! * [`LinearScanIndex`] is the exhaustive baseline: a plain list scanned on
//!   every query, always exact, O(n) per query.
//! * [`CoveringIndex`] is the common trait, so brokers and experiments can
//!   switch implementations and covering policies freely.
//!
//! Every query returns a [`QueryOutcome`] carrying the statistics the paper
//! analyses: runs probed, cubes enumerated and the fraction of the query
//! volume actually searched.
//!
//! ## Example
//!
//! ```
//! use acd_covering::{CoveringIndex, SfcCoveringIndex, ApproxConfig};
//! use acd_subscription::{Schema, SubscriptionBuilder};
//!
//! # fn main() -> Result<(), acd_covering::CoveringError> {
//! let schema = Schema::builder()
//!     .attribute("volume", 0.0, 10_000.0)
//!     .attribute("price", 0.0, 500.0)
//!     .bits_per_attribute(10)
//!     .build()?;
//!
//! // An approximate index that searches at least 95% of the covering region.
//! let mut index = SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.05)?)?;
//!
//! let wide = SubscriptionBuilder::new(&schema)
//!     .at_least("volume", 500.0)
//!     .at_most("price", 95.0)
//!     .build(1)?;
//! let narrow = SubscriptionBuilder::new(&schema)
//!     .range("volume", 1_000.0, 2_000.0)
//!     .range("price", 50.0, 90.0)
//!     .build(2)?;
//!
//! index.insert(&wide)?;
//! let outcome = index.find_covering(&narrow)?;
//! assert_eq!(outcome.covering, Some(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod dominance;
mod error;
mod flooding;
pub mod index;
pub mod linear;
pub mod policy;
pub mod sfc_index;
pub mod stats;

pub use config::{ApproxConfig, QueryEngine, QueryMode};
pub use dominance::PointDominanceIndex;
pub use error::CoveringError;
pub use index::CoveringIndex;
pub use linear::LinearScanIndex;
pub use policy::CoveringPolicy;
pub use sfc_index::SfcCoveringIndex;
pub use stats::{IndexStats, QueryOutcome, QueryStats};

// Re-exported so downstream crates (broker, bench) can name subscription
// types through a single dependency if they wish.
pub use acd_subscription::{SubId, Subscription};

// The storage layer behind `save_segments`/`open_segments`, re-exported
// whole so callers can match on `StorageError` (and the daemon can
// reach the journal) without a direct `acd-storage` dependency.
pub use acd_storage as storage;

/// Convenience result alias used throughout the crate.
pub type Result<T, E = CoveringError> = std::result::Result<T, E>;
