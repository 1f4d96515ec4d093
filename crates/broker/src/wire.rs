//! The daemon's wire protocol: hand-rolled, length-prefixed, versioned
//! little-endian frames with a per-frame checksum.
//!
//! Every frame has the same envelope:
//!
//! ```text
//! +----------+---------+------+-------------+-----------+-----------+
//! | magic    | version | kind | payload_len | payload   | checksum  |
//! | u32 LE   | u8      | u8   | u32 LE      | len bytes | u32 LE    |
//! +----------+---------+------+-------------+-----------+-----------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`"ACDB"`), so a connection that is not speaking
//!   this protocol is rejected on its first bytes;
//! * `version` is [`VERSION`]; a peer from the future gets a clean
//!   [`ServiceError::VersionMismatch`], not a misparse;
//! * `payload_len` is capped at [`MAX_PAYLOAD`] so a corrupt length cannot
//!   make the reader balloon its buffer;
//! * `checksum` is a CRC-32 (IEEE polynomial) over **everything before it**
//!   — header and payload — so a flipped bit anywhere in the frame is
//!   detected and surfaced as [`ServiceError::CorruptFrame`], never a panic
//!   and never a silently wrong message.
//!
//! [`check_header`] validates the fixed prefix and [`check_footer`] the
//! trailing checksum, in the style of an index-file codec: decode only
//! between a verified header and a verified footer. The payload fields are
//! read and written with the storage codec's `Cursor` and field writers
//! (`acd_storage::codec`), so the workspace has one bounds-checked decoder:
//! all multi-byte integers are little-endian, floats travel as their
//! IEEE-754 bit patterns, and a `Subscribe` carries its bounds exactly as a
//! journal record does.
//!
//! One payload is not fixed-width. A [`Frame::Deliveries`] list is
//! **strictly ascending by `(broker, client)`**, so the payload stores it as
//! pages of 64 clients: the `u32` pair count, then one record per non-empty
//! `(broker, page = client >> 6)`, ascending,
//!
//! ```text
//! varint(broker - previous record's broker)   first record: the broker itself
//! varint(page - previous page - 1)            when the broker repeats
//!   or varint(page)                           first record, or a new broker
//! u8(count - 1)                               count = clients on the page
//! count <= 8: count bytes, each client's low six bits, ascending
//! count > 8:  u64 LE bitmap, bit b set for client (page << 6) | b
//! ```
//!
//! with shortest-form LEB128 varints; the count alone picks the container.
//! The decoder adds the keys back with `checked_add` and requires each page's
//! clients to ascend; the encoder writes a page whose clients do not with the
//! count byte `0xff`, which no page has. So a list that does not ascend
//! strictly decodes to [`ServiceError::CorruptFrame`], never to a different
//! list. A 330-pair benchmark response takes about 92 bytes (364 in v2).
//! One page writer writes each record: for one list ([`encode_frame`]), for
//! a lone event's pages, and for each event of a burst's match triples
//! ([`put_deliveries_frames`]), with the same bytes.

use std::io::Read;

use acd_covering::storage::codec::{put_bounds, put_bytes, put_varint, Cursor, DecodeError};
use acd_covering::storage::crc32_update;
use acd_subscription::{SubId, Subscription};

use crate::broker::{BrokerId, ClientId};
use crate::error::ServiceError;
use crate::network::{for_each_bit, Triple};

/// The frame checksum: the storage codec's slice-by-16 CRC-32 (IEEE), so
/// the repo carries one CRC kernel.
pub use acd_covering::storage::crc32;

/// First four bytes of every frame: `"ACDB"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ACDB");

/// Protocol version this build speaks. Versions 1 and 2 carried `Deliveries`
/// as raw `u64` pairs and as a varint a pair; their peers get
/// [`ServiceError::VersionMismatch`].
pub const VERSION: u8 = 3;

/// Upper bound on `payload_len` (16 MiB): anything larger is corruption,
/// not data.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Upper bound on a `Deliveries` pair count: what fits [`MAX_PAYLOAD`] at
/// sixteen bytes a pair. A full page carries 64 pairs in eleven bytes, so
/// without it a frame's length would bound the decoded list at 93 times this.
pub const MAX_DELIVERY_PAIRS: usize = MAX_PAYLOAD as usize / 16;

/// Envelope bytes before the payload: magic + version + kind + length.
pub const HEADER_LEN: usize = 10;

/// Envelope bytes after the payload: the CRC-32.
pub const FOOTER_LEN: usize = 4;

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Daemon → client greeting: the network's schema as JSON (schemas are
    /// structural and self-describing, so JSON beats hand-rolling their
    /// encoding; everything on the hot path stays binary).
    Hello {
        /// The serialized [`acd_subscription::Schema`], which the client
        /// decodes through `SchemaBuilder`.
        schema_json: String,
    },
    /// Client → daemon: register a subscription.
    Subscribe {
        /// Broker the client is attached to.
        at: BrokerId,
        /// The subscribing client.
        client: ClientId,
        /// Network-unique subscription identifier.
        id: SubId,
        /// Per-attribute `[lo, hi]` ranges in schema attribute order.
        bounds: Vec<(f64, f64)>,
    },
    /// Client → daemon: retract a subscription, whichever connection
    /// registered it (one restored from the daemon's data directory
    /// included).
    Unsubscribe {
        /// Broker the subscription was registered at.
        at: BrokerId,
        /// The identifier to retract.
        id: SubId,
    },
    /// Client → daemon: publish an event.
    Publish {
        /// Broker the event enters the overlay at.
        at: BrokerId,
        /// Attribute values in schema attribute order.
        values: Vec<f64>,
    },
    /// Daemon → client: the deliveries one publish caused, as
    /// `(broker, client)` pairs.
    ///
    /// The list must be **strictly ascending** (sorted, no pair twice) and at
    /// most [`MAX_DELIVERY_PAIRS`] long; it travels as pages of 64 clients
    /// (module docs). [`encode_frame`] asserts the ascent in debug builds and
    /// never fails; [`read_frame`] rejects what it writes for any other list.
    Deliveries {
        /// One pair per client with a matching subscription at that broker.
        pairs: Vec<(BrokerId, ClientId)>,
    },
    /// Daemon → client: the request succeeded with nothing to report.
    Ok,
    /// Daemon → client: the request failed; the broker-side error as text.
    Err {
        /// Display rendering of the daemon-side error.
        message: String,
    },
    /// Daemon → client: the daemon is shedding load and did not execute the
    /// request (or, before `Hello`, refused the connection outright). Unlike
    /// [`Frame::Err`] this is retryable by construction — nothing was
    /// applied — so resilient clients back off and try again.
    Rejected {
        /// Why the daemon shed this request/connection.
        reason: String,
    },
    /// Client → daemon: idempotently (re-)register a subscription. Where
    /// [`Frame::Subscribe`] fails on a duplicate id, `Resubscribe` takes the
    /// registration over: if `id` is live under the same or an older session
    /// epoch it is retracted and re-registered fresh, so a client replaying its live set
    /// after a reconnect (or retrying an ack it never saw) always converges.
    Resubscribe {
        /// Broker the client is attached to.
        at: BrokerId,
        /// The subscribing client.
        client: ClientId,
        /// Network-unique subscription identifier.
        id: SubId,
        /// Per-attribute `[lo, hi]` ranges in schema attribute order.
        bounds: Vec<(f64, f64)>,
        /// The client's session epoch (bumped on every reconnect). A frame
        /// carrying an epoch older than the registration's current owner is
        /// acknowledged without acting, so a stalled pre-reconnect request
        /// can never clobber the replayed state that superseded it.
        epoch: u64,
    },
    /// Client → daemon: idempotently retract a subscription. Where
    /// [`Frame::Unsubscribe`] fails on an unknown id, `Retract` treats
    /// "already gone" as success — the state a retrying client wants.
    Retract {
        /// Broker the subscription was registered at.
        at: BrokerId,
        /// The identifier to retract.
        id: SubId,
        /// The client's session epoch, as in [`Frame::Resubscribe`].
        epoch: u64,
    },
}

/// Frame kind discriminants (the `kind` header byte).
mod kind {
    pub const HELLO: u8 = 0;
    pub const SUBSCRIBE: u8 = 1;
    pub const UNSUBSCRIBE: u8 = 2;
    pub const PUBLISH: u8 = 3;
    pub const DELIVERIES: u8 = 4;
    pub const OK: u8 = 5;
    pub const ERR: u8 = 6;
    pub const REJECTED: u8 = 7;
    pub const RESUBSCRIBE: u8 = 8;
    pub const RETRACT: u8 = 9;
}

impl Frame {
    /// The `kind` byte this frame travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => kind::HELLO,
            Frame::Subscribe { .. } => kind::SUBSCRIBE,
            Frame::Unsubscribe { .. } => kind::UNSUBSCRIBE,
            Frame::Publish { .. } => kind::PUBLISH,
            Frame::Deliveries { .. } => kind::DELIVERIES,
            Frame::Ok => kind::OK,
            Frame::Err { .. } => kind::ERR,
            Frame::Rejected { .. } => kind::REJECTED,
            Frame::Resubscribe { .. } => kind::RESUBSCRIBE,
            Frame::Retract { .. } => kind::RETRACT,
        }
    }

    /// Human-readable kind name, for error messages: the variant's name,
    /// listed in `kind` byte order.
    pub fn kind_name(&self) -> &'static str {
        const NAMES: &str =
            "Hello Subscribe Unsubscribe Publish Deliveries Ok Err Rejected Resubscribe Retract";
        let mut names = NAMES.split(' ');
        names.nth(usize::from(self.kind())).unwrap_or_default()
    }

    /// Builds a `Subscribe` frame from a subscription's raw bounds.
    pub fn subscribe(at: BrokerId, client: ClientId, subscription: &Subscription) -> Frame {
        Frame::Subscribe {
            at,
            client,
            id: subscription.id(),
            bounds: subscription.raw_bounds().to_vec(),
        }
    }

    /// Builds a `Resubscribe` frame from a subscription's raw bounds.
    pub fn resubscribe(
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
        epoch: u64,
    ) -> Frame {
        Frame::Resubscribe {
            at,
            client,
            id: subscription.id(),
            bounds: subscription.raw_bounds().to_vec(),
            epoch,
        }
    }
}

/// Validates a frame's fixed header: magic, version, and a sane payload
/// length. Returns `(kind, payload_len)`.
///
/// # Errors
///
/// [`ServiceError::CorruptFrame`] on a bad magic or an oversized length,
/// [`ServiceError::VersionMismatch`] on a foreign version byte.
pub fn check_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), ServiceError> {
    let [m0, m1, m2, m3, version, kind, l0, l1, l2, l3] = *header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(ServiceError::CorruptFrame {
            reason: format!("bad magic 0x{magic:08x}, expected 0x{MAGIC:08x}"),
        });
    }
    if version != VERSION {
        return Err(ServiceError::VersionMismatch { found: version });
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_PAYLOAD {
        return Err(ServiceError::CorruptFrame {
            reason: format!("payload length {len} exceeds cap {MAX_PAYLOAD}"),
        });
    }
    Ok((kind, len))
}

/// Validates a frame's trailing checksum against the one computed over the
/// received header + payload bytes.
///
/// # Errors
///
/// [`ServiceError::CorruptFrame`] on a mismatch.
pub fn check_footer(received: u32, computed: u32) -> Result<(), ServiceError> {
    if received != computed {
        return Err(ServiceError::CorruptFrame {
            reason: format!(
                "checksum mismatch: frame says 0x{received:08x}, bytes hash to 0x{computed:08x}"
            ),
        });
    }
    Ok(())
}

/// Encodes `frame` into `out`, replacing its contents. `out` is a reusable
/// scratch buffer: after warm-up, encoding allocates nothing.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    append_frame(frame, out);
}

/// Appends `frame`, envelope and checksum included, to `out`.
pub(crate) fn append_frame(frame: &Frame, out: &mut Vec<u8>) {
    let start = open_frame(out, frame.kind());
    match frame {
        Frame::Hello { schema_json } => {
            put_bytes(out, schema_json.as_bytes());
        }
        Frame::Subscribe {
            at,
            client,
            id,
            bounds,
        } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            put_bounds(out, bounds);
        }
        Frame::Unsubscribe { at, id } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
        Frame::Publish { at, values } => put_publish(out, *at, values),
        Frame::Deliveries { pairs } => {
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            let mut lane = (0, 0, 0);
            for run in pairs.chunk_by(|a, b| (a.0, a.1 >> 6) == (b.0, b.1 >> 6)) {
                let (broker, client) = run.first().copied().unwrap_or_default();
                let (bits, broken) = run.iter().fold((0u64, false), |(bits, broken), pair| {
                    let bit = 1 << (pair.1 & 63);
                    (bits | bit, broken | (bit <= bits))
                });
                put_page(out, &mut lane, (broker, client, bits, broken));
            }
        }
        Frame::Ok => {}
        Frame::Err { message } => {
            put_bytes(out, message.as_bytes());
        }
        Frame::Rejected { reason } => {
            put_bytes(out, reason.as_bytes());
        }
        Frame::Resubscribe {
            at,
            client,
            id,
            bounds,
            epoch,
        } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            put_bounds(out, bounds);
        }
        Frame::Retract { at, id, epoch } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
    }
    seal_frame(out, start);
}

/// [`encode_frame`] of a `Publish` frame, from values it need not own.
pub(crate) fn encode_publish(at: BrokerId, values: &[f64], out: &mut Vec<u8>) {
    out.clear();
    let start = open_frame(out, kind::PUBLISH);
    put_publish(out, at, values);
    seal_frame(out, start);
}

/// Appends a `Publish` payload: the broker, then the values as a list.
fn put_publish(out: &mut Vec<u8>, at: BrokerId, values: &[f64]) {
    out.extend_from_slice(&(at as u64).to_le_bytes());
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a header of kind `kind`, its payload length zero until
/// [`seal_frame`] patches it, and returns where the frame starts.
fn open_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[VERSION, kind, 0, 0, 0, 0]);
    start
}

/// Patches the payload length of the frame at `start` and appends its CRC.
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - HEADER_LEN) as u32;
    if let Some(field) = out.get_mut(start + 6..start + HEADER_LEN) {
        field.copy_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(out.get(start..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends [`encode_frame`]'s bytes for each event's list of a chunk of
/// `events` (at most 64) to `out`, from the chunk's [`Triple`]s, strictly
/// ascending by `(broker, client)`: a lone event's pages, or bit `i` of a
/// mask puts the pair in event `i`'s list. `payloads` is reused scratch.
pub fn put_deliveries_frames(
    out: &mut Vec<u8>,
    triples: &[Triple],
    events: usize,
    payloads: &mut Vec<Vec<u8>>,
) {
    if events == 1 {
        let start = open_frame(out, kind::DELIVERIES);
        let pairs: u32 = triples.iter().map(|&(.., bits)| bits.count_ones()).sum();
        out.extend_from_slice(&pairs.to_le_bytes());
        let mut lane = (0, 0, 0);
        for &(broker, client, bits) in triples {
            put_page(out, &mut lane, (broker, client, bits, false));
        }
        return seal_frame(out, start);
    }
    payloads.resize_with(payloads.len().max(events), Vec::new);
    let payloads = payloads.get_mut(..events).unwrap_or_default();
    payloads.iter_mut().for_each(Vec::clear);
    let counts = put_deliveries(triples, payloads);
    for (payload, count) in payloads.iter().zip(counts) {
        let start = open_frame(out, kind::DELIVERIES);
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(payload);
        seal_frame(out, start);
    }
}

/// The burst encoder: appends to `payloads[i]` the page records of the list
/// bit `i` of the event masks selects, and returns each list's pair count.
/// Each `(broker, page)` run ORs a client's mask into row `client & 63`,
/// which [`transpose64`] turns into one page per event.
fn put_deliveries(triples: &[Triple], payloads: &mut [Vec<u8>]) -> [u32; 64] {
    let mut lanes = [(0u32, 0u64, 0u64); 64];
    let key = |&(broker, client, _): &Triple| (broker, client & !63);
    for run in triples.chunk_by(|a, b| key(a) == key(b)) {
        let (broker, base) = run.first().map_or((0, 0), key);
        let (mut rows, mut touched, mut broken, mut next) = ([0u64; 64], 0, false, 0);
        for &(_, client, mask) in run {
            let offset = client & 63;
            (touched, broken, next) = (touched | mask, broken | (offset < next), offset + 1);
            if let Some(row) = rows.get_mut(offset as usize) {
                *row |= mask;
            }
        }
        transpose64(&mut rows);
        for_each_bit(touched, |i| {
            let lane = (lanes.get_mut(i), payloads.get_mut(i), rows.get(i));
            if let (Some(lane), Some(out), Some(&bits)) = lane {
                put_page(out, lane, (broker, base, bits, broken));
            }
        });
    }
    lanes.map(|(pairs, ..)| pairs)
}

/// The one page-record writer: appends the page of `broker` that `client` is
/// on, holding the clients `bits`, to a list whose pair count, last broker
/// and last page + 1 are `lane`. A page whose clients break the ascent (or
/// that holds none) writes the count byte [`u8::MAX`], which no page has, and
/// a key that steps back wraps, so such a list reads back as corrupt.
#[inline]
fn put_page(out: &mut Vec<u8>, lane: &mut (u32, u64, u64), page: (BrokerId, ClientId, u64, bool)) {
    let ((pairs, last, floor), (broker, client, bits, broken)) = (*lane, page);
    let (broker, page) = (broker as u64, client >> 6);
    let ascends = (broker, page) >= (last, floor) && !broken;
    debug_assert!(ascends, "a Deliveries list is strictly ascending");
    let base = if broker == last { floor } else { 0 };
    put_varint(out, broker.wrapping_sub(last));
    put_varint(out, page.wrapping_sub(base));
    let count = bits.count_ones() as u8;
    // `count - 1`; a broken or empty page wraps to `u8::MAX`.
    out.push(if broken { 0 } else { count }.wrapping_sub(1));
    match count {
        9.. => out.extend_from_slice(&bits.to_le_bytes()),
        _ => for_each_bit(bits, |b| out.push(b as u8)),
    }
    *lane = (pairs + u32::from(count), broker, page + 1);
}

/// Transposes a 64 x 64 bit matrix in place (bit `c` of `rows[r]` to bit `r` of
/// `rows[c]`): each `2w`-square swaps its off-diagonal blocks (Hacker's Delight 7-3).
fn transpose64(rows: &mut [u64; 64]) {
    for width in [32, 16, 8, 4, 2, 1] {
        let low = u64::MAX / ((1 << width) + 1);
        for square in rows.chunks_exact_mut(2 * width) {
            let (top, bottom) = square.split_at_mut(width);
            for (a, b) in top.iter_mut().zip(bottom) {
                let swap = (*a >> width ^ *b) & low;
                (*a, *b) = (*a ^ swap << width, *b ^ swap);
            }
        }
    }
}

/// Reads and validates one frame from `reader`, reusing `scratch` as the
/// payload buffer. Any malformation — bad magic, foreign version, oversized
/// length, truncation, checksum mismatch, short or over-long payload — comes
/// back as an error; this function never panics on wire bytes.
///
/// # Errors
///
/// [`ServiceError::CorruptFrame`] / [`ServiceError::VersionMismatch`] as in
/// [`check_header`]/[`check_footer`]; [`ServiceError::Io`] if the transport
/// itself fails mid-frame (a clean EOF before the first header byte is also
/// `Io`, distinguishable by its message).
pub fn read_frame<R: Read>(reader: &mut R, scratch: &mut Vec<u8>) -> Result<Frame, ServiceError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header).map_err(ServiceError::from)?;
    let (kind, len) = check_header(&header)?;
    scratch.resize(len as usize, 0);
    reader.read_exact(scratch).map_err(truncated)?;
    let mut footer = [0u8; FOOTER_LEN];
    reader.read_exact(&mut footer).map_err(truncated)?;
    // The checksum covers header + payload, which arrive as two spans.
    let crc = crc32_update(crc32(&header), scratch);
    check_footer(u32::from_le_bytes(footer), crc)?;
    decode_payload(kind, scratch).map_err(|e| ServiceError::CorruptFrame {
        reason: e.into_reason(),
    })
}

/// Peeks at the frame heading `buf` without consuming anything: returns the
/// origin broker iff a **complete** `Publish` frame is buffered (header,
/// payload and checksum all present). The daemon uses this to drain
/// pipelined publishes from one connection into a batch without ever
/// blocking on a partial frame or committing to a frame of another kind.
/// Anything that is not a whole well-headed Publish — too few bytes, a
/// different kind, a corrupt header — answers `None`; the frame is then
/// consumed (and fully validated) by [`read_frame`] on the ordinary path,
/// which surfaces corruption as an error.
pub(crate) fn buffered_publish(buf: &[u8]) -> Option<BrokerId> {
    let header: [u8; HEADER_LEN] = buf.get(..HEADER_LEN)?.try_into().ok()?;
    let (frame_kind, len) = check_header(&header).ok()?;
    if frame_kind != kind::PUBLISH {
        return None;
    }
    let payload = buf
        .get(HEADER_LEN..HEADER_LEN + len as usize + FOOTER_LEN)?
        .get(..len as usize)?;
    // The origin broker is the Publish payload's first field; the checksum
    // is verified by `read_frame` when the frame is actually consumed.
    let at = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    Some(at as BrokerId)
}

/// Maps a mid-frame read failure to `CorruptFrame` (EOF inside a frame is a
/// framing problem, not a transport one).
fn truncated(e: std::io::Error) -> ServiceError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ServiceError::CorruptFrame {
            reason: "stream ended mid-frame".into(),
        }
    } else {
        ServiceError::from(e)
    }
}

/// Decodes a checksum-verified payload into a [`Frame`].
fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        kind::HELLO => Frame::Hello {
            schema_json: c.take_string()?,
        },
        kind::SUBSCRIBE => Frame::Subscribe {
            at: c.take_u64()? as BrokerId,
            client: c.take_u64()?,
            id: c.take_u64()?,
            bounds: c.take_bounds()?,
        },
        kind::UNSUBSCRIBE => Frame::Unsubscribe {
            at: c.take_u64()? as BrokerId,
            id: c.take_u64()?,
        },
        kind::PUBLISH => Frame::Publish {
            at: c.take_u64()? as BrokerId,
            values: c.take_list(8, Cursor::take_f64)?,
        },
        kind::DELIVERIES => Frame::Deliveries {
            pairs: take_deliveries(&mut c)?,
        },
        kind::OK => Frame::Ok,
        kind::ERR => Frame::Err {
            message: c.take_string()?,
        },
        kind::REJECTED => Frame::Rejected {
            reason: c.take_string()?,
        },
        kind::RESUBSCRIBE => Frame::Resubscribe {
            at: c.take_u64()? as BrokerId,
            client: c.take_u64()?,
            id: c.take_u64()?,
            epoch: c.take_u64()?,
            bounds: c.take_bounds()?,
        },
        kind::RETRACT => Frame::Retract {
            at: c.take_u64()? as BrokerId,
            id: c.take_u64()?,
            epoch: c.take_u64()?,
        },
        other => return Err(DecodeError::new(format!("unknown frame kind {other}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads a `Deliveries` payload (module docs), checking the strict ascent
/// [`put_deliveries`] assumes for every list, in every build.
fn take_deliveries(c: &mut Cursor) -> Result<Vec<(BrokerId, ClientId)>, DecodeError> {
    let check = |ok: bool, why: &'static str| ok.then_some(()).ok_or_else(|| DecodeError::new(why));
    let descent = || DecodeError::new("pairs do not ascend strictly");
    let n = c.take_u32()? as usize;
    // The densest record, a full page, carries 64 pairs in eleven bytes.
    let fits = n <= MAX_DELIVERY_PAIRS && n.div_ceil(6) <= c.remaining();
    check(fits, "pair count exceeds what the frame can carry")?;
    let mut pairs = Vec::with_capacity(n);
    // The last record's broker, and the smallest page the next may name there.
    let (mut broker, mut floor) = (0u64, 0u64);
    while pairs.len() < n {
        let step = c.take_varint()?;
        broker = broker.checked_add(step).ok_or_else(descent)?;
        floor = if step == 0 { floor } else { 0 };
        let page = c.take_varint()?.checked_add(floor).ok_or_else(descent)?;
        check(page <= u64::MAX >> 6, "page key beyond the last client")?;
        let count = u32::from(c.take_u8()?) + 1;
        let fits = count <= 64 && count as usize <= n - pairs.len();
        check(fits, "page count above 64 or the pairs left")?;
        let bits = if count > 8 {
            c.take_u64()?
        } else {
            // A client at or below the one before it, or past 63, fills the page.
            let offsets = c.take(count as usize)?.iter();
            offsets.fold(0, |bits, &b| match 1u64.checked_shl(b.into()) {
                Some(bit) if bit > bits => bits | bit,
                _ => u64::MAX,
            })
        };
        check(bits.count_ones() == count, "malformed client page")?;
        let (at, base) = (broker as BrokerId, page << 6);
        floor = page + 1;
        for_each_bit(bits, |b| pairs.push((at, base | b as u64)));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                schema_json: "{\"attributes\":[]}".into(),
            },
            Frame::Subscribe {
                at: 3,
                client: 42,
                id: 7,
                bounds: vec![(0.0, 10.5), (-3.25, f64::MAX)],
            },
            Frame::Unsubscribe { at: 0, id: 7 },
            Frame::Publish {
                at: 1,
                values: vec![1.5, 2.5, 3.5],
            },
            Frame::Deliveries {
                pairs: vec![(0, 10), (3, 99)],
            },
            // Twelve clients on one page: the bitmap container.
            Frame::Deliveries {
                pairs: (0..12).map(|client| (1, 5 * client)).collect(),
            },
            Frame::Ok,
            Frame::Err {
                message: "subscription 7 is already registered".into(),
            },
            Frame::Rejected {
                reason: "connection cap reached (4 of 4 busy)".into(),
            },
            Frame::Resubscribe {
                at: 2,
                client: 13,
                id: 9,
                bounds: vec![(1.0, 2.0)],
                epoch: 3,
            },
            Frame::Retract {
                at: 1,
                id: 9,
                epoch: 3,
            },
        ]
    }

    #[test]
    fn a_kind_name_is_the_variant_name() {
        for frame in frames() {
            let debug = format!("{frame:?}");
            assert_eq!(Some(frame.kind_name()), debug.split([' ', '{']).next());
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for frame in frames() {
            encode_frame(&frame, &mut buf);
            let decoded = read_frame(&mut buf.as_slice(), &mut scratch).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn frames_round_trip_back_to_back_on_one_stream() {
        let mut stream = Vec::new();
        let mut buf = Vec::new();
        for frame in frames() {
            encode_frame(&frame, &mut buf);
            stream.extend_from_slice(&buf);
        }
        let mut reader = stream.as_slice();
        let mut scratch = Vec::new();
        for frame in frames() {
            assert_eq!(read_frame(&mut reader, &mut scratch).unwrap(), frame);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn every_single_flipped_byte_is_rejected() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for frame in frames() {
            encode_frame(&frame, &mut buf);
            for i in 0..buf.len() {
                for bit in 0..8 {
                    let mut corrupt = buf.clone();
                    corrupt[i] ^= 1 << bit;
                    let result = read_frame(&mut corrupt.as_slice(), &mut scratch);
                    assert!(
                        result.is_err(),
                        "{}: flipping byte {i} bit {bit} went undetected",
                        frame.kind_name()
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        encode_frame(
            &Frame::Subscribe {
                at: 1,
                client: 2,
                id: 3,
                bounds: vec![(0.0, 1.0)],
            },
            &mut buf,
        );
        for cut in 1..buf.len() {
            let result = read_frame(&mut &buf[..cut], &mut scratch);
            assert!(result.is_err(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn header_checks_name_the_problem() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Ok, &mut buf);
        let mut scratch = Vec::new();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice(), &mut scratch),
            Err(ServiceError::CorruptFrame { reason }) if reason.contains("magic")
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 9;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice(), &mut scratch),
            Err(ServiceError::VersionMismatch { found: 9 })
        ));

        let mut bad_len = buf.clone();
        bad_len[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad_len.as_slice(), &mut scratch),
            Err(ServiceError::CorruptFrame { reason }) if reason.contains("cap")
        ));
    }

    /// A frame around `payload` with a valid length and checksum, so the
    /// reader gets as far as the payload decoder.
    fn sealed(version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = MAGIC.to_le_bytes().to_vec();
        frame.extend_from_slice(&[version, kind]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Reads a sealed `Deliveries` frame whose payload is `count` then `body`.
    fn read_deliveries(count: u32, body: &[u8]) -> Result<Frame, ServiceError> {
        let mut payload = count.to_le_bytes().to_vec();
        payload.extend_from_slice(body);
        let frame = sealed(VERSION, kind::DELIVERIES, &payload);
        read_frame(&mut frame.as_slice(), &mut Vec::new())
    }

    fn corrupt_reason(result: Result<Frame, ServiceError>) -> String {
        match result {
            Err(ServiceError::CorruptFrame { reason }) => reason,
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    /// `value` as the varint the codec writes.
    fn varint(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, value);
        out
    }

    #[test]
    fn deliveries_layout_is_pinned() {
        let pairs: Vec<(BrokerId, ClientId)> = [(0, 3), (0, 5)]
            .into_iter()
            .chain((130..138).map(|client| (0, client)))
            .chain((0..9).map(|i| (3, 64 + 2 * i)))
            .collect();
        let mut buf = Vec::new();
        encode_frame(&Frame::Deliveries { pairs }, &mut buf);
        let payload = [
            &19u32.to_le_bytes()[..],
            // Broker 0, page 0, two clients as an array.
            &[0, 0, 1, 3, 5],
            // Broker 0 again, page 0 + 1 + 1 = 2, eight clients as an array.
            &[0, 1, 7, 2, 3, 4, 5, 6, 7, 8, 9],
            // Broker 0 + 3, page 1 raw, nine clients as a bitmap.
            &[3, 1, 8],
            &0x0001_5555u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(buf, sealed(VERSION, kind::DELIVERIES, &payload));
    }

    #[test]
    fn deliveries_round_trip_at_the_varint_edges() {
        let mut edges = vec![0u64, 1];
        for bits in (7..64).step_by(7) {
            edges.extend([(1 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        edges.extend([u64::MAX - 1, u64::MAX]);
        // Every edge as a client under every edge as a broker, the last
        // record ending at (u64::MAX, u64::MAX).
        let pairs: Vec<(BrokerId, ClientId)> = edges
            .iter()
            .flat_map(|&broker| {
                edges
                    .iter()
                    .map(move |&client| (broker as BrokerId, client))
            })
            .collect();
        let frame = Frame::Deliveries { pairs };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        assert_eq!(
            read_frame(&mut buf.as_slice(), &mut Vec::new()).unwrap(),
            frame
        );
    }

    #[test]
    fn a_benchmark_shaped_list_takes_eleven_bytes_a_broker() {
        // 7 brokers, 47 of 64 clients each, spread evenly: what a
        // `fanout_publish` event delivers. Each broker is one bitmap page.
        let pairs: Vec<(BrokerId, ClientId)> = (0..7)
            .flat_map(|broker| {
                (0..64u64)
                    .filter(|client| client * 47 / 64 != (client + 1) * 47 / 64)
                    .map(move |client| (broker, client))
            })
            .collect();
        assert_eq!(pairs.len(), 7 * 47);
        let frame = Frame::Deliveries { pairs };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 4 + 7 * 11 + FOOTER_LEN);
        // An empty list is the envelope and the count, as it always was.
        encode_frame(&Frame::Deliveries { pairs: Vec::new() }, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 4 + FOOTER_LEN);
    }

    #[test]
    fn v1_and_v2_deliveries_frames_are_a_version_mismatch() {
        // Version 1 carried raw little-endian `u64` pairs, version 2 one
        // varint a pair; both spell [(0, 10), (3, 99)] here.
        let mut v1 = 2u32.to_le_bytes().to_vec();
        for id in [0u64, 10, 3, 99] {
            v1.extend_from_slice(&id.to_le_bytes());
        }
        let v2 = [&2u32.to_le_bytes()[..], &[0, 0, 10, 2, 0, 99]].concat();
        for (version, payload) in [(1, v1), (2, v2)] {
            let frame = sealed(version, kind::DELIVERIES, &payload);
            let err = read_frame(&mut frame.as_slice(), &mut Vec::new()).unwrap_err();
            assert_eq!(err, ServiceError::VersionMismatch { found: version });
            assert_eq!(
                err.to_string(),
                format!("peer speaks protocol version {version}, expected 3")
            );
        }
    }

    #[test]
    fn a_pair_count_above_the_cap_is_corrupt_before_it_sizes_a_vec() {
        // Enough bytes that the payload's length alone would let either
        // count through.
        let body = vec![0u8; MAX_DELIVERY_PAIRS + 1];
        for count in [1usize << 24, MAX_DELIVERY_PAIRS + 1] {
            let reason = corrupt_reason(read_deliveries(count as u32, &body));
            assert!(reason.contains("pair count"), "{count}: {reason}");
        }
        // Under the cap, but more than six pairs a byte: no record is denser.
        let reason = corrupt_reason(read_deliveries(13, &[0, 0]));
        assert!(reason.contains("pair count"), "{reason}");
    }

    #[test]
    fn deliveries_the_encoder_cannot_write_are_corrupt() {
        let last_page = u64::MAX >> 6;
        let full = u64::MAX.to_le_bytes();
        let cases: [(u32, Vec<u8>, &str); 15] = [
            // A page key above the last client's.
            (
                1,
                [&[0][..], &varint(last_page + 1), &[0, 0]].concat(),
                "page key",
            ),
            // A count of 65.
            (65, [&[0, 0, 64][..], &full].concat(), "page count"),
            // A count of 3 under a pair count of 2.
            (2, vec![0, 0, 2, 0, 1, 2], "page count"),
            // A count of 256: what the encoder writes for a page that breaks the ascent.
            (2, vec![0, 0, 0xff, 0, 1], "page count"),
            // Nine clients, eight bits.
            (
                9,
                [&[0, 0, 8][..], &0xffu64.to_le_bytes()].concat(),
                "client page",
            ),
            // Client offsets twice the same, then falling.
            (2, vec![0, 0, 1, 5, 5], "client page"),
            (2, vec![0, 0, 1, 5, 3], "client page"),
            // An offset of 64.
            (1, vec![0, 0, 0, 64], "client page"),
            // A byte after the last page.
            (1, vec![0, 0, 0, 5, 0], "trailing"),
            // A broker step past u64::MAX.
            (
                2,
                [&varint(u64::MAX)[..], &[0, 0, 0, 1, 0, 0, 0]].concat(),
                "ascend",
            ),
            // A page step past u64::MAX on the same broker.
            (
                2,
                [
                    &[0][..],
                    &varint(last_page),
                    &[0, 0, 0],
                    &varint(u64::MAX),
                    &[0, 0],
                ]
                .concat(),
                "ascend",
            ),
            // 0 spelled in two bytes.
            (1, vec![0x80, 0, 0, 0, 0], "padded"),
            // Eleven bytes.
            (1, [&[0x80; 10][..], &[1, 0, 0, 0]].concat(), "longer"),
            // A tenth byte carrying bits 64 and up.
            (1, [&[0xff; 9][..], &[2, 0, 0, 0]].concat(), "overflows"),
            // The payload ends inside a varint.
            (1, vec![0, 0x80], "ends inside"),
        ];
        for (count, body, expected) in cases {
            let reason = corrupt_reason(read_deliveries(count, &body));
            assert!(reason.contains(expected), "{body:?}: {reason}");
        }
    }

    #[test]
    fn buffered_publish_peeks_only_whole_publish_frames() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Publish {
                at: 5,
                values: vec![1.0, 2.0],
            },
            &mut buf,
        );
        assert_eq!(buffered_publish(&buf), Some(5));
        // A second frame behind it does not confuse the peek.
        let mut two = buf.clone();
        two.extend_from_slice(&buf);
        assert_eq!(buffered_publish(&two), Some(5));
        // Every truncation of a Publish answers None (frame not complete).
        for cut in 0..buf.len() {
            assert_eq!(buffered_publish(&buf[..cut]), None, "cut at {cut}");
        }
        // Other kinds answer None however complete.
        let mut other = Vec::new();
        encode_frame(&Frame::Unsubscribe { at: 5, id: 1 }, &mut other);
        assert_eq!(buffered_publish(&other), None);
        // A corrupt header answers None (the consuming path reports it).
        let mut corrupt = buf.clone();
        corrupt[0] = b'X';
        assert_eq!(buffered_publish(&corrupt), None);
    }

    #[test]
    fn encode_reuses_the_scratch_buffer() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Publish {
                at: 0,
                values: vec![1.0; 64],
            },
            &mut buf,
        );
        let cap = buf.capacity();
        for _ in 0..100 {
            encode_frame(
                &Frame::Publish {
                    at: 0,
                    values: vec![2.0; 64],
                },
                &mut buf,
            );
        }
        assert_eq!(buf.capacity(), cap, "steady-state encode must not grow");
    }

    #[test]
    fn encode_publish_writes_the_bytes_of_encode_frame() {
        let (mut direct, mut framed) = (Vec::new(), Vec::new());
        for values in [vec![], vec![1.5], vec![-0.0, f64::MAX, 3.25]] {
            encode_publish(6, &values, &mut direct);
            encode_frame(&Frame::Publish { at: 6, values }, &mut framed);
            assert_eq!(direct, framed);
        }
    }

    /// A xorshift stream: the encoder tests' only source of randomness.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn transpose64_is_the_naive_bit_loop() {
        let mut next = stream(0x2545_f491_4f6c_dd1d);
        let mut matrices = vec![
            std::array::from_fn(|r| 1u64 << r), // the identity
            [u64::MAX; 64],                     // all ones
            std::array::from_fn(|r| u64::from(r == 17) * 0xdead_beef_f00d_cafe), // one row
            std::array::from_fn(|r| u64::from(r % 3 == 1) << 40), // one column
        ];
        matrices.extend((0..20).map(|_| std::array::from_fn(|_| next())));
        for rows in matrices {
            let mut naive = [0u64; 64];
            for (r, row) in rows.iter().enumerate() {
                for (c, out) in naive.iter_mut().enumerate() {
                    *out |= (row >> c & 1) << r;
                }
            }
            let mut fast = rows;
            transpose64(&mut fast);
            assert_eq!(fast, naive, "{rows:x?}");
            transpose64(&mut fast);
            assert_eq!(fast, rows, "a transpose is its own inverse");
        }
    }

    /// Random ascending triples for a chunk of `events`: five brokers, page
    /// 0 and pages above it, each page's clients (a quarter of the pages
    /// empty) and each client's mask (of the chunk's events only) dense or
    /// sparse.
    fn burst(next: &mut impl FnMut() -> u64, events: usize) -> Vec<Triple> {
        let lanes = u64::MAX >> (64 - events);
        let mut triples = Vec::new();
        for broker in [0, 1, 2, 130, usize::MAX] {
            for page in [0u64, 1, 3, 200, u64::MAX >> 6] {
                let clients = match next() % 4 {
                    0 => 0,
                    1 => next() & next() & next(), // sparse
                    _ => next() | next(),          // dense
                };
                for offset in (0..64).filter(|b| clients >> b & 1 == 1) {
                    let mask = match next() % 3 {
                        0 => 1 << (next() % events as u64),
                        _ => next() | next(),
                    } & lanes;
                    if mask != 0 {
                        triples.push((broker, page << 6 | offset, mask));
                    }
                }
            }
        }
        triples
    }

    /// A burst's client x event triples (a lone event's are pages: see
    /// `a_lone_events_pages_write_its_encode_frame`).
    #[test]
    fn put_deliveries_frames_writes_each_events_encode_frame() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        let (mut out, mut payloads, mut expected, mut one) = (vec![], vec![], vec![], vec![]);
        for events in [2, 3, 63, 64] {
            for _ in 0..20 {
                let triples = burst(&mut next, events);
                out.clear();
                put_deliveries_frames(&mut out, &triples, events, &mut payloads);
                expected.clear();
                for event in 0..events {
                    let pairs = triples
                        .iter()
                        .filter(|&&(_, _, mask)| mask >> event & 1 == 1)
                        .map(|&(broker, client, _)| (broker, client))
                        .collect();
                    encode_frame(&Frame::Deliveries { pairs }, &mut one);
                    expected.extend_from_slice(&one);
                }
                assert_eq!(out, expected, "{events} events: {triples:?}");
            }
        }
    }

    /// `put_deliveries_frames(.., 1, ..)` on the page triples a serial walk
    /// emits for one event writes `encode_frame`'s bytes for the pairs they
    /// spell, and they read back: random ascending lists over several
    /// brokers, pages of 1, 8, 9 and 64 clients (either side of the
    /// array/bitmap edge) under page keys at the varint edges, and the empty
    /// list. The triples are built here by a map from page key to bits, not
    /// by the walk's own grouping.
    #[test]
    fn a_lone_events_pages_write_its_encode_frame() {
        let mut next = stream(0x2f6b_1c4d_8a93_e057);
        let pages = [
            0u64,
            1,
            2,
            127,
            128,
            129,
            16_383,
            16_384,
            1 << 21,
            u64::MAX >> 6,
        ];
        let brokers = [0, 1, 5, 127, 128, usize::MAX];
        let mut lists: Vec<Vec<(BrokerId, ClientId)>> = vec![Vec::new()];
        for _ in 0..200 {
            let mut pairs = Vec::new();
            for broker in brokers {
                for page in pages {
                    let bits = match next() % 6 {
                        0..3 => continue, // half the pages empty
                        3 => 1 << (next() % 64),
                        4 => next() & next() & next(),
                        _ => next() | next(),
                    };
                    pairs.extend(
                        (0..64)
                            .filter(|b| bits >> b & 1 == 1)
                            .map(|b| (broker, page << 6 | b)),
                    );
                }
            }
            lists.push(pairs);
        }
        for (count, page) in [1u64, 8, 9, 64]
            .into_iter()
            .flat_map(|c| pages.map(|p| (c, p)))
        {
            let clients = (0..count).map(|b| page << 6 | (b * 7 % 64));
            let mut pairs: Vec<(BrokerId, ClientId)> = clients.map(|c| (3, c)).collect();
            pairs.sort_unstable();
            let twin: Vec<_> = pairs.iter().map(|&(_, c)| (2, c)).collect();
            lists.push([twin, pairs].concat());
        }
        let (mut out, mut expected) = (Vec::new(), Vec::new());
        for pairs in lists {
            let mut keyed = std::collections::BTreeMap::<(BrokerId, u64), u64>::new();
            for &(broker, client) in &pairs {
                *keyed.entry((broker, client >> 6)).or_default() |= 1 << (client & 63);
            }
            let triples: Vec<Triple> = keyed
                .into_iter()
                .map(|((b, p), bits)| (b, p << 6, bits))
                .collect();
            out.clear();
            put_deliveries_frames(&mut out, &triples, 1, &mut Vec::new());
            let frame = Frame::Deliveries { pairs };
            encode_frame(&frame, &mut expected);
            assert_eq!(out, expected, "{triples:?}");
            assert_eq!(
                read_frame(&mut out.as_slice(), &mut Vec::new()).unwrap(),
                frame
            );
        }
    }

    /// Runs that break the ascent, as a burst: a page of every event the
    /// run touches is marked, so its frame does not read back (release
    /// builds only: debug builds assert the ascent).
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_burst_run_that_does_not_ascend_reads_back_as_corrupt() {
        let unsorted = vec![(0, 1, 0b100), (3, 9, 0b011), (3, 4, 0b001), (5, 0, 0b100)];
        let duplicated = vec![(0, 1, 0b100), (3, 9, 0b001), (3, 9, 0b010), (5, 0, 0b100)];
        for triples in [unsorted, duplicated] {
            let mut out = Vec::new();
            put_deliveries_frames(&mut out, &triples, 3, &mut Vec::new());
            let mut reader = out.as_slice();
            for event in 0..3 {
                let frame = read_frame(&mut reader, &mut Vec::new());
                if event < 2 {
                    let reason = corrupt_reason(frame);
                    assert!(reason.contains("page count"), "{triples:?}: {reason}");
                } else {
                    let pairs = vec![(0, 1), (5, 0)];
                    assert_eq!(frame.unwrap(), Frame::Deliveries { pairs });
                }
            }
        }
    }

    /// The same bursts in a debug build: the encoder's assertion fires.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_burst_run_that_does_not_ascend_trips_the_debug_assertion() {
        let triples = [(3, 9, 0b011), (3, 4, 0b001)];
        put_deliveries_frames(&mut Vec::new(), &triples, 2, &mut Vec::new());
    }
}
