//! Segment files: column-wise encoding of a covering index's flat sorted
//! arrays, split into a thin `.meta` descriptor and a fat `.dat` payload.
//!
//! One segment persists one `SfcCoveringIndex`: the subscription table
//! plus the index's one dominance array
//! (the *forward* array of points `p(s)`), the table's rows in the array's
//! entry order — the index checks row `i` against entry `i` when it opens
//! the segment. The array section stores three contiguous columns in key
//! order — the packed keys, the point coordinates (decoded from the keys,
//! which are all the array stores), and the values — exactly the stream
//! [`SfcArray::sorted_cells`] exports and [`SfcArray::from_sorted_packed`]
//! gathers back, so opening a segment skips the sort that a cold rebuild
//! pays. The gather checks every row's key against its coordinates, so a
//! file whose two columns disagree is refused as corrupt.
//! Keys and coordinates are stored at the minimal byte width their
//! universe needs (e.g. 2-byte coordinates for a 10-bit dimension), which
//! nearly halves typical segments and with them the cold open's read and
//! checksum cost.
//! (Universes wider than 128 bits have no packed keys; their array
//! section stores points and values only and reloads through the generic
//! [`SfcArray::from_sorted`] path.)
//!
//! The meta file **pins** the data file: it records the data file's exact
//! length, its checksum, and its entry counts, and both files carry the
//! same generation in their envelope headers. [`SegmentReader::open`]
//! refuses any disagreement as a typed corruption error — a meta from one
//! generation can never read a data file from another.

use std::path::Path;

use acd_sfc::{CurveKind, Point, SfcArray, SpaceFillingCurve};
use acd_subscription::{SubId, Subscription};

use crate::codec::{self, file_kind, Cursor, DecodeError};
use crate::commit::ShardRef;
use crate::error::StorageError;
use crate::Result;

/// Section kinds inside a segment data file.
mod section {
    /// The subscription table: `(id, raw bounds)` rows.
    pub const SUBS: u8 = 1;
    /// The forward dominance array's columns.
    pub const FORWARD: u8 = 2;
}

/// The on-disk tag of a curve family (recorded in commit manifests).
pub fn curve_tag(kind: CurveKind) -> u8 {
    match kind {
        CurveKind::Z => 0,
        CurveKind::Hilbert => 1,
        CurveKind::Gray => 2,
    }
}

/// Decodes a curve tag written by [`curve_tag`], or `None` for a foreign
/// value (which readers surface as corruption).
pub fn curve_from_tag(tag: u8) -> Option<CurveKind> {
    match tag {
        0 => Some(CurveKind::Z),
        1 => Some(CurveKind::Hilbert),
        2 => Some(CurveKind::Gray),
        _ => None,
    }
}

/// What a segment's meta file records about its data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Commit generation both files were written under.
    pub generation: u64,
    /// Exact byte length of the data file.
    pub data_len: u64,
    /// The data file's footer CRC-32, re-recorded here so the meta pins
    /// one specific data file.
    pub data_crc: u32,
    /// Rows in the subscription table.
    pub sub_count: u64,
    /// Entries in the forward array section.
    pub forward_entries: u64,
}

/// Builds one segment (a `.meta`/`.dat` pair) in memory and writes it
/// atomically. Sections are appended with the borrowed-export APIs of the
/// index layers and nothing is copied twice: each column is streamed
/// straight into the output buffer.
pub struct SegmentWriter {
    generation: u64,
    data: Vec<u8>,
    sections: u8,
    sub_count: u64,
    forward_entries: u64,
}

impl SegmentWriter {
    /// Starts a segment for the given commit generation.
    pub fn new(generation: u64) -> Self {
        let mut data = codec::begin_file(file_kind::DATA, generation);
        data.push(0); // section count, patched in `write`
        SegmentWriter {
            generation,
            data,
            sections: 0,
            sub_count: 0,
            forward_entries: 0,
        }
    }

    /// Opens a section: writes its fixed prefix and returns the position of
    /// the body-length field to patch once the body is complete.
    fn begin_section(&mut self, kind: u8, entries: u64) -> usize {
        self.data.push(kind);
        let len_at = self.data.len();
        self.data.extend_from_slice(&0u64.to_le_bytes());
        self.data.extend_from_slice(&entries.to_le_bytes());
        self.sections += 1;
        len_at
    }

    fn end_section(&mut self, len_at: usize) {
        // The body starts after the 8-byte length and 8-byte entry count.
        let body_len = (self.data.len() - len_at - 16) as u64;
        self.data
            .get_mut(len_at..len_at + 8)
            .expect("begin_section reserved the length field")
            .copy_from_slice(&body_len.to_le_bytes());
    }

    /// Appends the subscription table: one `(id, raw bounds)` row per
    /// subscription, bounds in schema attribute order.
    pub fn subscriptions<'a, I>(&mut self, arity: usize, subs: I)
    where
        I: IntoIterator<Item = &'a Subscription>,
    {
        let len_at = self.begin_section(section::SUBS, 0);
        self.data.extend_from_slice(&(arity as u16).to_le_bytes());
        let mut count = 0u64;
        for sub in subs {
            self.data.extend_from_slice(&sub.id().to_le_bytes());
            for &(lo, hi) in sub.raw_bounds() {
                self.data.extend_from_slice(&lo.to_le_bytes());
                self.data.extend_from_slice(&hi.to_le_bytes());
            }
            count += 1;
        }
        self.sub_count = count;
        // Patch the entry count (it sits right after the body length).
        self.data
            .get_mut(len_at + 8..len_at + 16)
            .expect("begin_section reserved the entry-count field")
            .copy_from_slice(&count.to_le_bytes());
        self.end_section(len_at);
    }

    /// Appends the forward dominance array's columns.
    pub fn forward_array<C: SpaceFillingCurve>(&mut self, array: &SfcArray<SubId, C>) {
        self.forward_entries = array.len() as u64;
        let universe = array.curve().universe();
        let dims = universe.dims();
        let bits = universe.key_bits();
        let pack = bits <= 128;
        // Keys and coordinates are stored at their minimal little-endian
        // byte width (derived from the universe, so the decoder recomputes
        // the same widths from the section header). A 6-dim/10-bit
        // dominance universe stores 8-byte keys and 2-byte coordinates
        // instead of 16 and 8 — nearly halving the file, and with it the
        // cold open's read + checksum time.
        let key_width = key_byte_width(bits);
        let coord_width = coord_byte_width(universe.bits_per_dim());
        let len_at = self.begin_section(section::FORWARD, array.len() as u64);
        self.data.extend_from_slice(&(dims as u16).to_le_bytes());
        self.data
            .extend_from_slice(&universe.bits_per_dim().to_le_bytes());
        self.data.push(pack as u8);
        // Column 1 (packed universes only): the packed keys, one per entry
        // (a duplicate cell repeats its key — the load-side gather
        // re-groups equal neighbours into one bucket).
        if pack {
            for (key, values) in array.sorted_cells() {
                let packed = key.to_u128().expect("≤128-bit keys fit");
                let bytes = packed.to_le_bytes();
                let bytes = bytes
                    .get(..key_width)
                    .expect("a packed key is ≤ 128 bits, so key_byte_width ≤ 16");
                for _ in values {
                    self.data.extend_from_slice(bytes);
                }
            }
        }
        // Column 2: point coordinates, row-major, decoded from the keys.
        for (key, values) in array.sorted_cells() {
            let point = array
                .curve()
                .point_of_key(&key)
                .expect("a stored key has its universe's width");
            for _ in values {
                for &c in point.coords() {
                    let bytes = c.to_le_bytes();
                    let bytes = bytes
                        .get(..coord_width)
                        .expect("bits_per_dim ≤ MAX_BITS_PER_DIM = 62, so coord_byte_width ≤ 8");
                    self.data.extend_from_slice(bytes);
                }
            }
        }
        // Column 3: values.
        for (_, values) in array.sorted_cells() {
            for value in values {
                self.data.extend_from_slice(&value.to_le_bytes());
            }
        }
        self.end_section(len_at);
    }

    /// Finishes the segment and writes `{stem}.dat` then `{stem}.meta`
    /// into `dir`, both atomically (temp file + rename). Returns the
    /// [`ShardRef`] a commit manifest records for this segment.
    pub fn write(mut self, dir: &Path, stem: &str) -> Result<ShardRef> {
        *self
            .data
            .get_mut(codec::HEADER_LEN)
            .expect("begin_file reserved the section-count byte") = self.sections;
        let data = codec::finish_file(self.data);
        let data_crc = u32::from_le_bytes(
            *data
                .last_chunk::<{ codec::FOOTER_LEN }>()
                .expect("finish_file appends a 4-byte footer"),
        );

        let mut meta = codec::begin_file(file_kind::META, self.generation);
        meta.extend_from_slice(&(data.len() as u64).to_le_bytes());
        meta.extend_from_slice(&data_crc.to_le_bytes());
        meta.extend_from_slice(&self.sub_count.to_le_bytes());
        meta.extend_from_slice(&self.forward_entries.to_le_bytes());
        let meta = codec::finish_file(meta);

        codec::write_atomic(&dir.join(format!("{stem}.dat")), &data)?;
        codec::write_atomic(&dir.join(format!("{stem}.meta")), &meta)?;
        Ok(ShardRef {
            stem: stem.to_owned(),
            data_crc,
            entries: self.sub_count,
        })
    }
}

/// One decoded section: kind, the body's range in the data payload, and
/// its entry count.
#[derive(Debug)]
struct Section {
    kind: u8,
    body: std::ops::Range<usize>,
    entries: u64,
}

/// Reads one segment back: verifies both envelopes, the meta/data pairing
/// (generation, length, checksum), and the section directory up front;
/// the column decoders then hand back validated index structures.
#[derive(Debug)]
pub struct SegmentReader {
    /// The verified meta descriptor.
    pub meta: SegmentMeta,
    data: Vec<u8>,
    sections: Vec<Section>,
    file: String,
}

impl SegmentReader {
    /// Opens `{stem}.meta` + `{stem}.dat` in `dir` and cross-checks them.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if either file cannot be read;
    /// [`StorageError::CorruptSegment`] on any malformation — in either
    /// envelope, in the pairing, or in the section directory.
    pub fn open(dir: &Path, stem: &str) -> Result<Self> {
        let meta_name = format!("{stem}.meta");
        let meta_path = dir.join(&meta_name);
        let meta_bytes = std::fs::read(&meta_path)
            .map_err(|e| StorageError::io(meta_path.display().to_string(), e))?;
        let (meta_gen, meta_payload) =
            codec::open_envelope(&meta_bytes, file_kind::META, &meta_name)?;
        let meta = decode_meta(meta_gen, meta_payload).map_err(|e| e.in_file(&meta_name))?;

        let data_name = format!("{stem}.dat");
        let data_path = dir.join(&data_name);
        let data = std::fs::read(&data_path)
            .map_err(|e| StorageError::io(data_path.display().to_string(), e))?;
        let (data_gen, payload) = codec::open_envelope(&data, file_kind::DATA, &data_name)?;
        if data_gen != meta.generation {
            return Err(StorageError::corrupt(
                &data_name,
                format!(
                    "data file is generation {data_gen} but its meta file is generation {}",
                    meta.generation
                ),
            ));
        }
        if data.len() as u64 != meta.data_len {
            return Err(StorageError::corrupt(
                &data_name,
                format!(
                    "data file is {} bytes but its meta file pins {}",
                    data.len(),
                    meta.data_len
                ),
            ));
        }
        let footer = u32::from_le_bytes(
            *data
                .last_chunk::<{ codec::FOOTER_LEN }>()
                .expect("envelope check guarantees a footer"),
        );
        if footer != meta.data_crc {
            return Err(StorageError::corrupt(
                &data_name,
                format!(
                    "data checksum 0x{footer:08x} does not match the 0x{:08x} its meta file pins",
                    meta.data_crc
                ),
            ));
        }

        let sections = decode_sections(payload).map_err(|e| e.in_file(&data_name))?;
        Ok(SegmentReader {
            meta,
            data,
            sections,
            file: data_name,
        })
    }

    /// The body of the section of `kind` and its entry count, which must be
    /// the one the meta file pins.
    fn section(&self, kind: u8, pinned: u64) -> Result<(&[u8], usize), DecodeError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.kind == kind)
            .ok_or_else(|| DecodeError::new(format!("segment has no section of kind {kind}")))?;
        if s.entries != pinned {
            return Err(DecodeError::new(format!(
                "section of kind {kind} claims {} entries but the meta file pins {pinned}",
                s.entries
            )));
        }
        let entries = usize::try_from(s.entries)
            .map_err(|_| DecodeError::new("entry count exceeds the address space"))?;
        let body = self
            .data
            .get(s.body.clone())
            .expect("section bodies were bounds-checked at open");
        Ok((body, entries))
    }

    /// Streams the subscription table without allocating per row: `f` is
    /// called once per `(id, raw bounds)` row, bounds borrowed from a
    /// scratch buffer reused across rows. This is the cold-open fast path —
    /// a caller reconstructing subscriptions copies the bounds into its own
    /// structure exactly once.
    ///
    /// The first error from `f` aborts the walk and is returned.
    pub fn for_each_subscription_row(
        &self,
        mut f: impl FnMut(SubId, &[(f64, f64)]) -> Result<()>,
    ) -> Result<()> {
        let corrupt = |e: DecodeError| e.in_file(&self.file);
        let (body, n) = self
            .section(section::SUBS, self.meta.sub_count)
            .map_err(corrupt)?;
        let mut c = Cursor::new(body);
        let arity = c.take_u16().map_err(corrupt)? as usize;
        c.check_remaining(n, 8 + arity * 16).map_err(corrupt)?;
        let mut bounds = vec![(0.0f64, 0.0f64); arity];
        for _ in 0..n {
            let id = take_row(&mut c, &mut bounds).map_err(corrupt)?;
            f(id, &bounds)?;
        }
        c.finish().map_err(corrupt)
    }

    /// Decodes the dominance array section into an [`SfcArray`] ordered by
    /// `curve`, through the no-sort gather path when the universe packs
    /// into 128 bits.
    pub fn array<C: SpaceFillingCurve>(&self, curve: C) -> Result<SfcArray<SubId, C>> {
        self.decode_array(curve).map_err(|e| e.in_file(&self.file))
    }

    fn decode_array<C: SpaceFillingCurve>(
        &self,
        curve: C,
    ) -> Result<SfcArray<SubId, C>, DecodeError> {
        let (body, n) = self.section(section::FORWARD, self.meta.forward_entries)?;
        let universe = curve.universe();
        let mut c = Cursor::new(body);
        let dims = c.take_u16()? as usize;
        let bits_per_dim = c.take_u32()?;
        let pack = c.take_u8()? != 0;
        if dims != universe.dims() || bits_per_dim != universe.bits_per_dim() {
            return Err(DecodeError::new(format!(
                "array section is over a {dims}-dim/{bits_per_dim}-bit universe but the \
                 index expects {}-dim/{}-bit",
                universe.dims(),
                universe.bits_per_dim()
            )));
        }
        let expect_pack = universe.key_bits() <= 128;
        if pack != expect_pack {
            return Err(DecodeError::new(
                "array section's packed flag disagrees with the universe width",
            ));
        }
        // Widths are recomputed from the (already cross-checked) universe
        // shape, so writer and reader can never disagree on them.
        let key_width = key_byte_width(universe.key_bits());
        let coord_width = coord_byte_width(bits_per_dim);
        let row = dims * coord_width;
        let per_entry = if pack { key_width + row + 8 } else { row + 8 };
        c.check_remaining(n, per_entry)?;

        let built = if pack {
            let keys = c.take(n * key_width)?;
            let coords = c.take(n * row)?;
            let values = c.take(n * 8)?;
            // Rows are decoded lazily off the column slices as
            // `from_sorted_packed` consumes the iterator — the cold-open
            // path never materializes an intermediate entry vector, and
            // `chunks_exact` keeps the per-row slicing bounds-check-free.
            let entries = keys
                .chunks_exact(key_width)
                .zip(coords.chunks_exact(row))
                .zip(values.chunks_exact(8))
                .map(|((key, row_bytes), value)| {
                    (
                        decode_narrow_u128(key),
                        decode_point(row_bytes, dims, coord_width),
                        decode_narrow_u64(value),
                    )
                });
            SfcArray::from_sorted_packed(curve, entries)
        } else {
            let coords = c.take(n * row)?;
            let values = c.take(n * 8)?;
            let entries = coords
                .chunks_exact(row)
                .zip(values.chunks_exact(8))
                .map(|(row_bytes, value)| {
                    (
                        decode_point(row_bytes, dims, coord_width),
                        decode_narrow_u64(value),
                    )
                })
                .collect();
            SfcArray::from_sorted(curve, entries)
        };
        c.finish()?;
        built.map_err(|e| DecodeError::new(format!("array section fails index validation: {e}")))
    }
}

fn decode_meta(generation: u64, payload: &[u8]) -> Result<SegmentMeta, DecodeError> {
    let mut c = Cursor::new(payload);
    let meta = SegmentMeta {
        generation,
        data_len: c.take_u64()?,
        data_crc: c.take_u32()?,
        sub_count: c.take_u64()?,
        forward_entries: c.take_u64()?,
    };
    c.finish()?;
    Ok(meta)
}

/// Walks a data file's section directory once. Bodies are bounds-checked
/// here, so the column decoders can slice without re-validating; each
/// body's range is into the whole file, whose payload starts at the end of
/// the envelope header.
fn decode_sections(payload: &[u8]) -> Result<Vec<Section>, DecodeError> {
    let mut c = Cursor::new(payload);
    let count = c.take_u8()?;
    let mut sections = Vec::new();
    for _ in 0..count {
        let kind = c.take_u8()?;
        let body_len = usize::try_from(c.take_u64()?)
            .map_err(|_| DecodeError::new("section length exceeds the address space"))?;
        let entries = c.take_u64()?;
        let start = codec::HEADER_LEN + payload.len() - c.remaining();
        c.take(body_len)?;
        sections.push(Section {
            kind,
            body: start..start + body_len,
            entries,
        });
    }
    c.finish()?;
    Ok(sections)
}

/// One subscription-table row: the id, then `bounds.len()` raw ranges.
fn take_row(c: &mut Cursor, bounds: &mut [(f64, f64)]) -> Result<SubId, DecodeError> {
    let id = c.take_u64()?;
    for b in bounds {
        *b = (c.take_f64()?, c.take_f64()?);
    }
    Ok(id)
}

/// Bytes needed to store a packed curve key of `key_bits` bits.
fn key_byte_width(key_bits: u32) -> usize {
    (key_bits.div_ceil(8) as usize).max(1)
}

/// Bytes needed to store one coordinate of a `bits_per_dim`-bit dimension.
fn coord_byte_width(bits_per_dim: u32) -> usize {
    (bits_per_dim.div_ceil(8) as usize).max(1)
}

/// Little-endian decode of a `width ≤ 16` byte field into a `u128`.
#[inline]
fn decode_narrow_u128(bytes: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    let (dst, _) = buf.split_at_mut(bytes.len());
    dst.copy_from_slice(bytes);
    u128::from_le_bytes(buf)
}

/// Little-endian decode of a `width ≤ 8` byte field into a `u64`.
#[inline]
fn decode_narrow_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let (dst, _) = buf.split_at_mut(bytes.len());
    dst.copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Decodes one row-major coordinate row into a [`Point`] — through the
/// allocation-free inline constructor, since this runs once per stored
/// entry on the cold-open critical path. `bytes` is exactly
/// `dims * coord_width` long (the caller slices it from a bounds-checked
/// column); `Point::build` calls its closure once per dimension in
/// ascending order, so the coordinate chunks stream straight off it.
fn decode_point(bytes: &[u8], dims: usize, coord_width: usize) -> Point {
    debug_assert_eq!(bytes.len(), dims * coord_width);
    let mut coords = bytes.chunks_exact(coord_width).map(decode_narrow_u64);
    Point::build(dims, |_| coords.next().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acd_sfc::{Universe, ZCurve};

    fn sample_array(n: u64) -> SfcArray<SubId, ZCurve> {
        let universe = Universe::new(4, 8).unwrap();
        let curve = ZCurve::new(universe);
        let entries: Vec<(Point, SubId)> = (0..n)
            .map(|i| {
                let p = Point::new(vec![i % 17, (i * 7) % 31, i % 5, (i * 3) % 29]).unwrap();
                (p, i)
            })
            .collect();
        SfcArray::from_sorted(curve, entries).unwrap()
    }

    #[test]
    fn array_sections_round_trip_without_resorting() {
        let array = sample_array(200);
        let dir = std::env::temp_dir().join(format!("acd-storage-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::new(1);
        w.forward_array(&array);
        let shard = w.write(&dir, "seg-0000000001-000").unwrap();
        assert_eq!(shard.stem, "seg-0000000001-000");

        let r = SegmentReader::open(&dir, "seg-0000000001-000").unwrap();
        assert_eq!(r.meta.generation, 1);
        assert_eq!(r.meta.forward_entries, 200);
        let loaded = r.array(ZCurve::new(Universe::new(4, 8).unwrap())).unwrap();
        assert_eq!(loaded.len(), array.len());
        assert_eq!(loaded.occupied_cells(), array.occupied_cells());
        let a: Vec<_> = array.sorted_cells().map(|(k, e)| (k, e.to_vec())).collect();
        let b: Vec<_> = loaded
            .sorted_cells()
            .map(|(k, e)| (k, e.to_vec()))
            .collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coordinates_that_disagree_with_their_keys_are_corrupt() {
        // A data file re-sealed after one coordinate was flipped: every
        // checksum is valid, but the row's coordinates no longer name the
        // cell its key names. The array keeps the keys alone, so opening on
        // trust would let the scan fallback (which decodes keys) and the
        // file's reader disagree; it must be refused as corruption.
        let array = sample_array(200);
        let dir = std::env::temp_dir().join(format!("acd-storage-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::new(1);
        let section = w.data.len();
        w.forward_array(&array);
        // Kind, body length, entry count, dims, bits per dimension, packed
        // flag, then one 4-byte key per row of the 4 x 8-bit universe.
        let first_coord = section + 1 + 8 + 8 + 2 + 4 + 1 + 200 * 4;
        let (first_key, _) = array.sorted_cells().next().unwrap();
        let first_point = array.curve().point_of_key(&first_key).unwrap();
        assert_eq!(u64::from(w.data[first_coord]), first_point.coords()[0]);
        w.data[first_coord] ^= 1;
        w.write(&dir, "flip").unwrap();

        let r = SegmentReader::open(&dir, "flip").unwrap();
        let err = r
            .array(ZCurve::new(Universe::new(4, 8).unwrap()))
            .unwrap_err();
        assert!(
            err.is_corrupt(),
            "a key/coordinate mismatch must be corrupt: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_pins_its_data_file() {
        let array = sample_array(200);
        let dir = std::env::temp_dir().join(format!("acd-storage-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::new(3);
        w.forward_array(&array);
        w.write(&dir, "pin").unwrap();

        // Rewriting the data file under the same meta must be refused,
        // even though the replacement is itself a well-formed data file.
        let mut other = SegmentWriter::new(3);
        other.forward_array(&sample_array(150));
        other.write(&dir, "other").unwrap();
        std::fs::copy(dir.join("other.dat"), dir.join("pin.dat")).unwrap();
        let err = SegmentReader::open(&dir, "pin").unwrap_err();
        assert!(err.is_corrupt(), "swapped data file must be corrupt: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_retired_three_section_layout_is_refused_as_corrupt() {
        // What a writer from before the mirrored array was dropped left on
        // disk: a third section (kind 3) in the data file and its entry
        // count as a fifth meta field, all checksums valid.
        let array = sample_array(200);
        let dir = std::env::temp_dir().join(format!("acd-storage-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::new(1);
        w.forward_array(&array);
        let third = w.data.len();
        w.forward_array(&array);
        w.data[third] = 3;
        w.write(&dir, "old").unwrap();
        let meta_path = dir.join("old.meta");
        let mut meta = std::fs::read(&meta_path).unwrap();
        meta.truncate(meta.len() - codec::FOOTER_LEN);
        meta.extend_from_slice(&200u64.to_le_bytes());
        std::fs::write(&meta_path, codec::finish_file(meta)).unwrap();

        let err = SegmentReader::open(&dir, "old").unwrap_err();
        assert!(err.is_corrupt(), "old layout must read as corrupt: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn curve_tags_round_trip_and_reject_foreign_values() {
        for kind in [CurveKind::Z, CurveKind::Hilbert, CurveKind::Gray] {
            assert_eq!(curve_from_tag(curve_tag(kind)), Some(kind));
        }
        assert_eq!(curve_from_tag(9), None);
    }
}
