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
//! **strictly ascending by `(broker, client)`**, so the payload stores the
//! order instead of the values: the `u32` pair count, then per maximal run
//! of one broker
//!
//! ```text
//! varint(broker - previous broker - 1)    first group: the broker itself
//! varint(run length - 1)
//! varint(first client)
//! varint(client - previous client - 1)    for the rest of the run
//! ```
//!
//! as LEB128 varints of at most ten bytes, each in its shortest form. Strict ascent makes every difference at least 1, so one
//! less is stored; the decoder adds the differences back with `checked_add`,
//! so a list that does not ascend strictly cannot be expressed: it decodes to
//! [`ServiceError::CorruptFrame`], never to a different list. The benchmark's
//! responses (330 pairs over 7 brokers and 64 clients) take 363 bytes where
//! sixteen raw bytes a pair took 5 313.
//!
//! One encoder writes that payload, from `(broker, client, event mask)`
//! triples: [`encode_frame`] feeds it one list, the daemon a burst's
//! triples straight from the match kernel, with the same bytes and no list
//! built. Encoding reuses caller-owned buffers ([`encode_frame`] clears and
//! fills its `out`), so steady-state connections encode without allocating.

use std::io::Read;
use std::slice;

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

/// Protocol version this build speaks. Version 1 carried `Deliveries` as
/// raw `u64` pairs; a version 1 peer gets [`ServiceError::VersionMismatch`].
pub const VERSION: u8 = 2;

/// Upper bound on `payload_len` (16 MiB): anything larger is corruption,
/// not data.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Upper bound on a `Deliveries` pair count: what fits [`MAX_PAYLOAD`] at
/// sixteen bytes a pair. A varint pair can be one byte, so without it a
/// frame's length would bound the decoded list at sixteen times this.
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
        /// The serialized [`acd_subscription::Schema`].
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
    /// most [`MAX_DELIVERY_PAIRS`] long: the payload is the pair count and
    /// then, per run of one broker, varints of the broker's distance from
    /// the previous group's, the run length and each client's distance from
    /// the one before (see the module docs). [`encode_frame`] asserts the
    /// ascent in debug builds and never fails; what it writes for any other
    /// list [`read_frame`] rejects as [`ServiceError::CorruptFrame`].
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

    /// Human-readable kind name, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Subscribe { .. } => "Subscribe",
            Frame::Unsubscribe { .. } => "Unsubscribe",
            Frame::Publish { .. } => "Publish",
            Frame::Deliveries { .. } => "Deliveries",
            Frame::Ok => "Ok",
            Frame::Err { .. } => "Err",
            Frame::Rejected { .. } => "Rejected",
            Frame::Resubscribe { .. } => "Resubscribe",
            Frame::Retract { .. } => "Retract",
        }
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
// acd-lint: hot
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    append_frame(frame, out);
}

/// Appends `frame`, envelope and checksum included, to `out`.
// acd-lint: hot
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
        Frame::Publish { at, values } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Frame::Deliveries { pairs } => {
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            put_deliveries::<_, 1>(pairs, |(b, c)| (b, c, 1), slice::from_mut(out));
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

/// Appends one `Deliveries` frame per event of a chunk of `events` to
/// `out`, from the chunk's `(broker, client, event mask)` triples ascending
/// by `(broker, client)`: bit `i` of a mask puts the pair in event `i`'s
/// list. `payloads` is reused scratch, one buffer per event.
// acd-lint: hot
pub(crate) fn put_deliveries_frames(
    out: &mut Vec<u8>,
    triples: &[Triple],
    events: usize,
    payloads: &mut Vec<Vec<u8>>,
) {
    if events == 1 {
        // A lone event's frame goes straight to `out`, and its masks, all
        // 1, become a constant the encoder's lane loops fold away.
        let start = open_frame(out, kind::DELIVERIES);
        out.extend_from_slice(&(triples.len() as u32).to_le_bytes());
        put_deliveries::<_, 1>(triples, |(b, c, _)| (b, c, 1), slice::from_mut(out));
        return seal_frame(out, start);
    }
    payloads.resize_with(payloads.len().max(events), Vec::new);
    let payloads = payloads.get_mut(..events).unwrap_or_default();
    payloads.iter_mut().for_each(Vec::clear);
    let counts = put_deliveries::<_, 64>(triples, |triple| triple, payloads);
    for (payload, count) in payloads.iter().zip(counts) {
        let start = open_frame(out, kind::DELIVERIES);
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(payload);
        seal_frame(out, start);
    }
}

/// The one `Deliveries` encoder: appends to `payloads[i]` the broker groups
/// (layout in the module docs) of the list bit `i < EVENTS` of the event
/// masks selects, and returns each list's pair count. A broker's run is read
/// twice, to count each event's pairs in it, which its group states first,
/// then to write the clients. The differences wrap instead of failing, so a
/// list that breaks the ascent still encodes — to bytes the decoder's
/// `checked_add` cannot accept.
// acd-lint: hot
fn put_deliveries<T: Copy, const EVENTS: usize>(
    items: &[T],
    triple: impl Fn(T) -> Triple,
    payloads: &mut [Vec<u8>],
) -> [u32; EVENTS] {
    let pair = |item| (triple(item).0, triple(item).1);
    debug_assert!(
        items.is_sorted_by(|&a, &b| pair(a) < pair(b)),
        "a Deliveries list is strictly ascending by (broker, client)"
    );
    // Per event: its pairs, the smallest broker its next group may name, its
    // pairs in this group, and its last client here (`u64::MAX` before the
    // first, which is so stored as itself).
    #[derive(Clone, Copy, Default)]
    struct Lane {
        pairs: u32,
        floor: u64,
        run: u64,
        previous: u64,
    }
    let mut lanes = [Lane::default(); EVENTS];
    for group in items.chunk_by(|&a, &b| triple(a).0 == triple(b).0) {
        let broker = group.first().map_or(0, |&item| triple(item).0 as u64);
        let mut present = 0u64;
        for &item in group {
            present |= triple(item).2;
            for_each_bit(triple(item).2, |i| {
                lanes.get_mut(i).into_iter().for_each(|lane| lane.run += 1)
            });
        }
        for_each_bit(present, |i| {
            if let (Some(lane), Some(payload)) = (lanes.get_mut(i), payloads.get_mut(i)) {
                put_varint(payload, broker.wrapping_sub(lane.floor));
                put_varint(payload, lane.run - 1);
                lane.pairs += lane.run as u32;
                (lane.floor, lane.run, lane.previous) = (broker.wrapping_add(1), 0, u64::MAX);
            }
        });
        for &item in group {
            let (_, client, mask) = triple(item);
            for_each_bit(mask, |i| {
                if let (Some(lane), Some(payload)) = (lanes.get_mut(i), payloads.get_mut(i)) {
                    put_varint(payload, client.wrapping_sub(lane.previous).wrapping_sub(1));
                    lane.previous = client;
                }
            });
        }
    }
    lanes.map(|lane| lane.pairs)
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

/// Reads a `Deliveries` payload (layout in the module docs), rebuilding
/// each id with `checked_add`: the strict ascent [`put_deliveries`] assumes
/// is checked here, for every list, in every build.
fn take_deliveries(c: &mut Cursor) -> Result<Vec<(BrokerId, ClientId)>, DecodeError> {
    let n = c.take_u32()? as usize;
    if n > MAX_DELIVERY_PAIRS {
        return Err(DecodeError::new(
            "pair count exceeds what a frame may carry",
        ));
    }
    c.check_remaining(n, 1)?;
    let not_ascending = || DecodeError::new("pairs do not ascend strictly");
    let mut pairs = Vec::with_capacity(n);
    // The smallest broker the next group may name; none after `u64::MAX`.
    let mut floor = Some(0u64);
    while pairs.len() < n {
        let delta = c.take_varint()?;
        let broker = floor
            .and_then(|floor| floor.checked_add(delta))
            .ok_or_else(not_ascending)?;
        let more = c.take_varint()?;
        if more >= (n - pairs.len()) as u64 {
            return Err(DecodeError::new("a broker's run outruns the pair count"));
        }
        let mut client = c.take_varint()?;
        pairs.push((broker as BrokerId, client));
        for _ in 0..more {
            let delta = c.take_varint()?;
            client = client
                .checked_add(1)
                .and_then(|next| next.checked_add(delta))
                .ok_or_else(not_ascending)?;
            pairs.push((broker as BrokerId, client));
        }
        floor = broker.checked_add(1);
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

    #[test]
    fn deliveries_layout_is_pinned() {
        let pairs = vec![(0, 10), (3, 99), (3, 300), (4, 0)];
        let mut buf = Vec::new();
        encode_frame(&Frame::Deliveries { pairs }, &mut buf);
        let payload = [
            &4u32.to_le_bytes()[..],
            &[0, 0, 10],         // broker 0, run of 1, client 10
            &[2, 1, 99, 200, 1], // broker 0 + 1 + 2, run of 2, 99, 99 + 1 + 200
            &[0, 0, 0],          // broker 3 + 1 + 0, run of 1, client 0
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
        // group ending at (u64::MAX, u64::MAX).
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
    fn a_benchmark_shaped_list_takes_under_a_byte_and_a_half_a_pair() {
        // 7 brokers, 47 of 64 clients each, spread evenly: what a
        // `fanout_publish` event delivers.
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
        assert!(buf.len() * 2 <= 7 * 47 * 3, "{} bytes", buf.len());
        // An empty list is the envelope and the count, as it always was.
        encode_frame(&Frame::Deliveries { pairs: Vec::new() }, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 4 + FOOTER_LEN);
    }

    #[test]
    fn a_v1_deliveries_frame_is_a_version_mismatch() {
        // Version 1 carried raw little-endian `u64` pairs.
        let mut payload = 2u32.to_le_bytes().to_vec();
        for id in [0u64, 10, 3, 99] {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        let frame = sealed(1, kind::DELIVERIES, &payload);
        let err = read_frame(&mut frame.as_slice(), &mut Vec::new()).unwrap_err();
        assert_eq!(err, ServiceError::VersionMismatch { found: 1 });
        assert_eq!(
            err.to_string(),
            "peer speaks protocol version 1, expected 2"
        );
    }

    #[test]
    fn a_pair_count_above_the_cap_is_corrupt_before_it_sizes_a_vec() {
        // Enough one-byte varints that the payload's length alone would let
        // either count through.
        let body = vec![0u8; MAX_DELIVERY_PAIRS + 1];
        for count in [1usize << 24, MAX_DELIVERY_PAIRS + 1] {
            let reason = corrupt_reason(read_deliveries(count as u32, &body));
            assert!(reason.contains("pair count"), "{count}: {reason}");
        }
    }

    #[test]
    fn deliveries_the_encoder_cannot_write_are_corrupt() {
        let cases: [(u32, &[u8], &str); 9] = [
            // (3, 5) then (1, 2): the second group's broker wraps past the first.
            (
                2,
                &[
                    3, 0, 5, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 2,
                ],
                "ascend",
            ),
            // Client 5 + 1 + (u64::MAX - 5) overflows.
            (
                2,
                &[
                    0, 1, 5, 0xfa, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1,
                ],
                "ascend",
            ),
            // A group after broker u64::MAX.
            (
                2,
                &[
                    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0,
                ],
                "ascend",
            ),
            // A run of 3 under a count of 2.
            (2, &[0, 2, 5, 0, 0], "outruns"),
            // 0 spelled in two bytes.
            (1, &[0x80, 0, 0, 0], "padded"),
            // Eleven bytes.
            (
                1,
                &[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1, 0, 0,
                ],
                "longer",
            ),
            // A tenth byte carrying bits 64 and up.
            (
                1,
                &[
                    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0,
                ],
                "overflows",
            ),
            // The payload ends inside a varint.
            (1, &[0, 0, 0x80], "ends inside"),
            // A byte after the last pair.
            (1, &[0, 0, 0, 0], "trailing"),
        ];
        for (count, body, expected) in cases {
            let reason = corrupt_reason(read_deliveries(count, body));
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
}
