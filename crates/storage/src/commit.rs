//! Generation commit files: the atomicity point of a multi-file save.
//!
//! A save writes its segment pairs first, under names no live commit
//! references, then writes `commit-<generation>.acd` — a manifest naming
//! every segment of the new generation (with each data file's checksum
//! re-pinned) plus the index-level configuration (schema, query config,
//! curve, key-range boundaries). The commit file itself lands via temp +
//! rename, so it either exists whole or not at all:
//!
//! * a crash before the commit leaves stray `seg-*` files and the previous
//!   commit intact — readers never see the half-written generation;
//! * a crash after the commit is a completed save.
//!
//! Readers pick the **highest-numbered** commit file. Old generations'
//! files are deleted only after a newer commit has landed ([`prune`]), so
//! there is always one fully-readable generation on disk.

use std::path::{Path, PathBuf};

use crate::codec::{self, file_kind, Cursor, DecodeError};
use crate::error::StorageError;
use crate::Result;

/// One segment referenced by a commit manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRef {
    /// File stem of the segment pair (`{stem}.meta` / `{stem}.dat`).
    pub stem: String,
    /// The data file's footer CRC-32, re-pinned by the commit.
    pub data_crc: u32,
    /// Subscriptions stored in the segment.
    pub entries: u64,
}

/// The decoded contents of a commit file: everything needed to reopen an
/// index without re-deriving any of it.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitManifest {
    /// The generation this commit completes.
    pub generation: u64,
    /// Curve family tag ([`crate::curve_tag`]).
    pub curve_tag: u8,
    /// The schema, JSON-serialized (schemas are structural and
    /// self-describing; everything on the bulk path stays binary).
    pub schema_json: String,
    /// The query configuration, JSON-serialized.
    pub config_json: String,
    /// Key-range boundaries between the segments. Part of the byte format;
    /// `SfcCoveringIndex` writes it empty and refuses a commit where it is
    /// not.
    pub starts: Vec<u64>,
    /// The segments of this generation; `SfcCoveringIndex` writes and
    /// accepts exactly one.
    pub shards: Vec<ShardRef>,
}

/// Canonical name of a generation's commit file.
pub fn commit_file_name(generation: u64) -> String {
    format!("commit-{generation:010}.acd")
}

/// Canonical file stem of segment number `shard` within a generation.
pub fn segment_stem(generation: u64, shard: usize) -> String {
    format!("seg-{generation:010}-{shard:03}")
}

/// Encodes and atomically writes `manifest` as its generation's commit
/// file.
///
/// # Errors
///
/// [`StorageError::Io`] if the write fails.
pub fn write_commit(dir: &Path, manifest: &CommitManifest) -> Result<()> {
    let mut out = codec::begin_file(file_kind::COMMIT, manifest.generation);
    out.push(manifest.curve_tag);
    codec::put_bytes(&mut out, manifest.schema_json.as_bytes());
    codec::put_bytes(&mut out, manifest.config_json.as_bytes());
    out.extend_from_slice(&(manifest.starts.len() as u32).to_le_bytes());
    for &s in &manifest.starts {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(manifest.shards.len() as u32).to_le_bytes());
    for shard in &manifest.shards {
        codec::put_bytes(&mut out, shard.stem.as_bytes());
        out.extend_from_slice(&shard.data_crc.to_le_bytes());
        out.extend_from_slice(&shard.entries.to_le_bytes());
    }
    let out = codec::finish_file(out);
    codec::write_atomic(&dir.join(commit_file_name(manifest.generation)), &out)
}

/// Reads and validates one commit file.
///
/// # Errors
///
/// [`StorageError::Io`] if the file cannot be read,
/// [`StorageError::CorruptSegment`] on any malformation.
pub fn read_commit(path: &Path) -> Result<CommitManifest> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let bytes = std::fs::read(path).map_err(|e| StorageError::io(path.display().to_string(), e))?;
    let (generation, payload) = codec::open_envelope(&bytes, file_kind::COMMIT, &name)?;
    decode_manifest(generation, payload).map_err(|e| e.in_file(&name))
}

fn decode_manifest(generation: u64, payload: &[u8]) -> Result<CommitManifest, DecodeError> {
    let mut c = Cursor::new(payload);
    let manifest = CommitManifest {
        generation,
        curve_tag: c.take_u8()?,
        schema_json: c.take_string()?,
        config_json: c.take_string()?,
        starts: c.take_list(8, Cursor::take_u64)?,
        shards: c.take_list(4 + 4 + 8, take_shard)?,
    };
    c.finish()?;
    Ok(manifest)
}

fn take_shard(c: &mut Cursor) -> Result<ShardRef, DecodeError> {
    let stem = c.take_string()?;
    // Stems become file paths: refuse anything that could escape the
    // directory, even inside a checksum-valid file.
    if stem.is_empty() || stem.contains(['/', '\\']) || stem.contains("..") {
        return Err(DecodeError::new(format!(
            "shard stem {stem:?} is not a plain file name"
        )));
    }
    Ok(ShardRef {
        stem,
        data_crc: c.take_u32()?,
        entries: c.take_u64()?,
    })
}

/// Scans `dir` for the highest-numbered commit file.
///
/// Returns the generation and path without opening the file (corruption
/// inside it surfaces from [`read_commit`]); `Ok(None)` if the directory
/// exists but holds no commit.
///
/// # Errors
///
/// [`StorageError::Io`] if the directory cannot be listed.
pub fn latest_commit(dir: &Path) -> Result<Option<(u64, PathBuf)>> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(generation) = name
            .strip_prefix("commit-")
            .and_then(|rest| rest.strip_suffix(".acd"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(g, _)| generation > *g) {
            best = Some((generation, entry.path()));
        }
    }
    Ok(best)
}

/// Deletes commit files older than `live`, segment files `live` does not
/// reference, and any leftover `*.tmp` file (commit *or* segment — every
/// live file landed via rename, so a surviving temp name is always a
/// crashed write's debris). Called only after `live`'s commit file has
/// landed, so the deletions can never touch the readable generation.
/// Returns the number of files removed; deletion failures are ignored (a
/// stray file is garbage, not corruption — the next prune retries).
pub fn prune(dir: &Path, live: &CommitManifest) -> Result<usize> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
    let mut removed = 0;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if name.ends_with(".tmp") {
            // A temp name that survived to a prune pass is a crashed
            // write's leftover: every live file (commit included) was
            // renamed away from its temp name before this prune ran.
            true
        } else if let Some(generation) = name
            .strip_prefix("commit-")
            .and_then(|rest| rest.strip_suffix(".acd"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            generation < live.generation
        } else if let Some(stem) = name
            .strip_suffix(".dat")
            .or_else(|| name.strip_suffix(".meta"))
        {
            stem.starts_with("seg-") && !live.shards.iter().any(|s| s.stem == stem)
        } else {
            false
        };
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(generation: u64) -> CommitManifest {
        CommitManifest {
            generation,
            curve_tag: 0,
            schema_json: "{\"attrs\":[]}".into(),
            config_json: "{\"mode\":\"exhaustive\"}".into(),
            starts: vec![0, 9, 42],
            shards: vec![
                ShardRef {
                    stem: segment_stem(generation, 0),
                    data_crc: 0xDEAD_BEEF,
                    entries: 10,
                },
                ShardRef {
                    stem: segment_stem(generation, 1),
                    data_crc: 0x1234_5678,
                    entries: 11,
                },
            ],
        }
    }

    #[test]
    fn commits_round_trip_and_the_latest_wins() {
        let dir = std::env::temp_dir().join(format!("acd-storage-commit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_commit(&dir, &manifest(1)).unwrap();
        write_commit(&dir, &manifest(2)).unwrap();
        let (generation, path) = latest_commit(&dir).unwrap().unwrap();
        assert_eq!(generation, 2);
        let read = read_commit(&path).unwrap();
        assert_eq!(read, manifest(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_only_the_live_generation() {
        let dir = std::env::temp_dir().join(format!("acd-storage-prune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Old generation's files plus crashed-write temp leftovers — a
        // commit temp and a segment temp whose stem matches a *live*
        // segment (the temp is still debris: the real file was renamed).
        for name in [
            "seg-0000000001-000.dat",
            "seg-0000000001-000.meta",
            "commit-0000000099.acd.tmp",
            "seg-0000000002-000.dat.tmp",
        ] {
            std::fs::write(dir.join(name), b"old").unwrap();
        }
        write_commit(&dir, &manifest(1)).unwrap();
        let live = manifest(2);
        for shard in &live.shards {
            std::fs::write(dir.join(format!("{}.dat", shard.stem)), b"new").unwrap();
            std::fs::write(dir.join(format!("{}.meta", shard.stem)), b"new").unwrap();
        }
        write_commit(&dir, &live).unwrap();
        let removed = prune(&dir, &live).unwrap();
        assert_eq!(
            removed, 5,
            "two old segment files, one old commit, two temp leftovers"
        );
        assert!(!dir.join("commit-0000000099.acd.tmp").exists());
        assert!(!dir.join("seg-0000000002-000.dat.tmp").exists());
        assert!(dir.join(commit_file_name(2)).exists());
        for shard in &live.shards {
            assert!(dir.join(format!("{}.dat", shard.stem)).exists());
        }
        assert!(!dir.join("seg-0000000001-000.dat").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_stems_are_rejected() {
        let dir = std::env::temp_dir().join(format!("acd-storage-stem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut bad = manifest(1);
        bad.shards[0].stem = "../../etc/passwd".into();
        write_commit(&dir, &bad).unwrap();
        let (_, path) = latest_commit(&dir).unwrap().unwrap();
        assert!(read_commit(&path).unwrap_err().is_corrupt());
        std::fs::remove_dir_all(&dir).ok();
    }
}
