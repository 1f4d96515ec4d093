//! Durable segment storage for the SFC covering index.
//!
//! This crate persists bulk-built [`acd_sfc::SfcArray`]s as **immutable
//! segment files**, in the discipline of a search-engine index codec:
//!
//! * every file opens with a versioned header (magic, codec version, file
//!   kind, generation) and closes with a CRC-32 footer over everything
//!   before it; the footer and then the header are verified before a
//!   payload byte is interpreted;
//! * each segment is a **pair** of files: a thin `.meta` file describing
//!   the fat `.dat` file (its length, its checksum, its entry counts). The
//!   meta's generation and recorded checksum must match the data file
//!   exactly, so a meta paired with the wrong data — or a data file
//!   rewritten behind the meta's back — is a typed
//!   [`StorageError::CorruptSegment`], never a silently wrong index;
//! * the `.dat` payload is **column-wise**: the sorted packed `u128` keys,
//!   the point coordinates, and the values are stored as three contiguous
//!   columns in key order, so a segment loads back through
//!   [`acd_sfc::SfcArray::from_sorted_packed`] — a single gather pass that
//!   checks each key against its coordinates, no re-sort;
//! * a **generation commit file** makes multi-file states atomic: segment
//!   files are written first (to fresh names), then the commit manifest
//!   referencing them lands via write-to-temp + rename. Readers open the
//!   highest-numbered commit; files not referenced by it are garbage from
//!   an interrupted save and are pruned on the next successful commit.
//!   Old segment files are deleted only *after* the new generation's
//!   commit file lands — a crash at any point leaves the previous
//!   generation fully readable.
//!
//! Alongside the segment codec, the crate carries the broker daemon's
//! [`SubscriptionJournal`]: a log of subscribe/unsubscribe records with a
//! per-record CRC, each synced before it is acknowledged and written over
//! a zero-filled tail the file already owns (so that sync commits no
//! length change), replayed up to its durable prefix on restart, plus an
//! atomically-written snapshot that compacts the journal on graceful
//! shutdown.
//!
//! Everything is hand-rolled little-endian (the build environment vendors
//! no serialization crates). The [`codec`] module is the workspace's one
//! decoder: its CRC-32 kernel, bounds-checked [`codec::Cursor`] and field
//! writers serve every file here and the broker's wire frames
//! (`acd-broker`'s `wire.rs`), with typed errors and no panics on untrusted
//! bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

pub mod codec;
mod commit;
mod error;
mod journal;
mod segment;

pub use codec::{crc32, crc32_update, file_kind, MAGIC, VERSION};
pub use commit::{
    commit_file_name, latest_commit, prune, read_commit, segment_stem, write_commit,
    CommitManifest, ShardRef,
};
pub use error::StorageError;
pub use journal::{read_snapshot, write_snapshot, JournalRecord, SubscriptionJournal};
pub use segment::{curve_from_tag, curve_tag, SegmentMeta, SegmentReader, SegmentWriter};

/// Crate-wide result alias; decoders name [`codec::DecodeError`] as `E`.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;
