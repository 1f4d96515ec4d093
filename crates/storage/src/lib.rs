//! Durable storage for the covering index and the broker daemon.
//!
//! Every file here is hand-rolled little-endian inside one envelope
//! ([`codec`]): a versioned header (magic, codec version, file kind), the
//! payload, and a CRC-32 footer over everything before it. The footer and
//! then the header are verified before a payload byte is interpreted, so
//! a flipped bit, a truncation or a file of another kind is a typed
//! [`StorageError::CorruptSegment`], never a panic or a misparse. Every
//! whole-file write lands through [`codec::write_atomic`]: a synced temp
//! file renamed into place, so a crash leaves the previous file readable.
//!
//! Three kinds of file use it:
//!
//! * the covering index's saved file, `index.acd` (`acd-covering`'s
//!   `SfcCoveringIndex::save_segments`): the curve, the schema, the query
//!   configuration and the subscriptions. The index rebuilds its dominance
//!   array from them on open, so the file stores no array;
//! * the broker daemon's [`SubscriptionJournal`]: a log of
//!   subscribe/unsubscribe records with a per-record CRC, each synced
//!   before it is acknowledged and written over a zero-filled tail the file
//!   already owns (so that sync commits no length change), replayed up to
//!   its durable prefix on restart;
//! * the snapshot ([`write_snapshot`]) that compacts the journal on
//!   graceful shutdown.
//!
//! The build environment vendors no serialization crates, so the
//! [`codec`] module is the workspace's one decoder: its CRC-32 kernel,
//! bounds-checked [`codec::Cursor`] and field writers serve every file here
//! and the broker's wire frames (`acd-broker`'s `wire.rs`), with typed
//! errors and no panics on untrusted bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

pub mod codec;
mod error;
mod journal;

pub use codec::{crc32, crc32_update, curve_from_tag, curve_tag, file_kind, MAGIC, VERSION};
pub use error::StorageError;
pub use journal::{read_snapshot, write_snapshot, JournalRecord, SubscriptionJournal};

/// Crate-wide result alias; decoders name [`codec::DecodeError`] as `E`.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;
