//! # acd-subscription — content-based publish/subscribe data model
//!
//! This crate models the publish/subscribe layer the paper operates on:
//!
//! * a [`Schema`] names the β numeric attributes that messages carry and the
//!   discrete grid (`2^k` values per attribute) they are quantized onto;
//! * an [`Event`] is a published message: one value per attribute, i.e. a
//!   point in β-dimensional space;
//! * a [`Subscription`] is a conjunction of per-attribute range constraints
//!   ([`RangePredicate`]), i.e. a β-dimensional axis-aligned rectangle;
//! * [`Subscription::matches`] and [`Subscription::covers`] implement message
//!   matching and the covering relation `N(s1) ⊇ N(s2)`;
//! * [`transform`] implements the Edelsbrunner–Overmars reduction from
//!   β-dimensional rectangle enclosure to 2β-dimensional point dominance,
//!   which is the bridge between this crate and the SFC-based indexes in
//!   `acd-covering`.
//!
//! ## Example
//!
//! ```
//! use acd_subscription::{Schema, SubscriptionBuilder, Event};
//!
//! # fn main() -> Result<(), acd_subscription::SubscriptionError> {
//! let schema = Schema::builder()
//!     .attribute("volume", 0.0, 10_000.0)
//!     .attribute("price", 0.0, 500.0)
//!     .bits_per_attribute(10)
//!     .build()?;
//!
//! let wide = SubscriptionBuilder::new(&schema)
//!     .range("volume", 500.0, 10_000.0)
//!     .range("price", 0.0, 95.0)
//!     .build(1)?;
//! let narrow = SubscriptionBuilder::new(&schema)
//!     .range("volume", 1_000.0, 2_000.0)
//!     .range("price", 50.0, 90.0)
//!     .build(2)?;
//!
//! assert!(wide.covers(&narrow));
//! let event = Event::new(&schema, vec![1_000.0, 88.0])?;
//! assert!(wide.matches(&event));
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

pub mod builder;
mod error;
pub mod event;
pub mod predicate;
pub mod schema;
pub mod subscription;
pub mod transform;

pub use builder::SubscriptionBuilder;
pub use error::SubscriptionError;
pub use event::Event;
pub use predicate::RangePredicate;
pub use schema::{AttributeDef, Schema, SchemaBuilder};
pub use subscription::{SubId, Subscription};
pub use transform::{dominance_point, dominance_universe};

/// Convenience result alias used throughout the crate.
pub type Result<T, E = SubscriptionError> = std::result::Result<T, E>;
