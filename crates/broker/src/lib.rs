//! # acd-broker — a Siena-style broker overlay with covering-aware
//! subscription propagation
//!
//! The paper motivates approximate covering detection with its effect on a
//! distributed publish/subscribe system: fewer subscriptions propagated,
//! smaller routing tables, cheaper covering checks. This crate provides the
//! substrate to measure exactly that — a deterministic, in-process simulator
//! of an acyclic broker overlay implementing content-based routing:
//!
//! * [`Topology`] — star, line, balanced-tree and random-tree overlays;
//! * [`BrokerNetwork`] — the overlay service, built with [`BrokerConfig`]:
//!   clients attach to brokers, register [`Subscription`]s and publish
//!   [`Event`]s; subscriptions are propagated through the overlay with
//!   per-interface *sender-side covering suppression* governed by a
//!   [`CoveringPolicy`]; events are forwarded along reverse subscription
//!   paths and delivered to matching clients. All operations take `&self`
//!   behind interior locking, so one network can be driven from many
//!   threads at once (see `LOCKING.md` for the lock hierarchy);
//! * [`NetworkMetrics`] — subscription messages, routing-table entries, event
//!   messages, deliveries and covering-detection cost, the quantities the
//!   broker experiment (E7) reports;
//! * [`service`] / [`client`] / [`wire`] — a TCP front door: the
//!   `acd-brokerd` daemon serves a network over a length-prefixed,
//!   checksummed binary protocol, and [`BrokerClient`] is the matching
//!   blocking client.
//!
//! The overlay's key correctness property — **covering suppression never
//! changes what subscribers receive** — is verified in the crate's tests by
//! comparing deliveries against a flooding configuration.
//!
//! ## Example
//!
//! ```
//! use acd_broker::{BrokerConfig, Topology};
//! use acd_covering::CoveringPolicy;
//! use acd_subscription::{Schema, SubscriptionBuilder, Event};
//!
//! # fn main() -> Result<(), acd_broker::BrokerError> {
//! let schema = Schema::builder()
//!     .attribute("price", 0.0, 100.0)
//!     .bits_per_attribute(8)
//!     .build()?;
//! let topology = Topology::star(4)?; // broker 0 in the middle
//! let net = BrokerConfig::new(topology, &schema)
//!     .policy(CoveringPolicy::ExactSfc)
//!     .build()?;
//!
//! let wide = SubscriptionBuilder::new(&schema).range("price", 0.0, 90.0).build(1)?;
//! net.subscribe(1, 100, &wide)?;
//! let event = Event::new(&schema, vec![50.0])?;
//! let deliveries = net.publish(3, &event)?;
//! assert_eq!(deliveries, vec![(1, 100)]);
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

pub mod broker;
pub mod client;
mod error;
pub mod faults;
mod link;
pub mod lock;
pub mod metrics;
pub mod network;
mod pool;
pub mod resilient;
pub mod service;
mod session;
pub mod topology;
pub mod wire;

pub use broker::{Broker, BrokerId, ClientId, EventCells, EventChunk};
pub use client::{BatchError, BrokerClient};
pub use error::{BrokerError, ServiceError};
pub use faults::{FaultPlan, FaultyStream};
pub use metrics::NetworkMetrics;
pub use network::{BrokerConfig, BrokerNetwork, Violation};
pub use resilient::{ClientStats, GaveUp, ResilientClient, RetryPolicy};
pub use service::{BrokerDaemon, DaemonOptions};
pub use topology::Topology;

// Re-exports so examples can depend on a single crate.
pub use acd_covering::CoveringPolicy;
pub use acd_subscription::{Event, Subscription};

/// Convenience result alias used throughout the crate.
pub type Result<T, E = BrokerError> = std::result::Result<T, E>;
