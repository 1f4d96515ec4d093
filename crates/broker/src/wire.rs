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
//! between a verified header and a verified footer. All multi-byte integers
//! are little-endian; floats travel as their IEEE-754 bit patterns.
//!
//! Encoding reuses a caller-owned scratch buffer ([`encode_frame`] clears
//! and fills it), so steady-state connections encode without allocating.

use std::io::Read;

use acd_covering::storage::crc32_update;
use acd_subscription::{SubId, Subscription};

use crate::broker::{BrokerId, ClientId};
use crate::error::ServiceError;

/// The frame checksum: the storage codec's slice-by-16 CRC-32 (IEEE), so
/// the repo carries one CRC kernel.
pub use acd_covering::storage::crc32;

/// First four bytes of every frame: `"ACDB"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ACDB");

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Upper bound on `payload_len` (16 MiB): anything larger is corruption,
/// not data.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

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
    /// Client → daemon: retract a subscription registered on this
    /// connection.
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
    /// Daemon → client: the deliveries one publish caused, as sorted
    /// `(broker, client)` pairs.
    Deliveries {
        /// One pair per delivered (matching) subscription.
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
    /// registration over: if `id` is live under an older session epoch it is
    /// retracted and re-registered fresh, so a client replaying its live set
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
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&[0, 0, 0, 0]); // payload_len, patched below
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
            out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
            for (lo, hi) in bounds {
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
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
            for (broker, client) in pairs {
                out.extend_from_slice(&(*broker as u64).to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
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
            out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
            for (lo, hi) in bounds {
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
        Frame::Retract { at, id, epoch } => {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
    }
    let payload_len = (out.len() - HEADER_LEN) as u32;
    out.get_mut(6..HEADER_LEN)
        .expect("encode starts by writing a full header")
        .copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends a length-prefixed byte string.
// acd-lint: hot
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
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
    decode_payload(kind, scratch)
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
fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ServiceError> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let frame = match kind {
        kind::HELLO => Frame::Hello {
            schema_json: c.take_string()?,
        },
        kind::SUBSCRIBE => {
            let at = c.take_u64()? as BrokerId;
            let client = c.take_u64()?;
            let id = c.take_u64()?;
            let n = c.take_u32()? as usize;
            c.check_remaining(n, 16)?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push((c.take_f64()?, c.take_f64()?));
            }
            Frame::Subscribe {
                at,
                client,
                id,
                bounds,
            }
        }
        kind::UNSUBSCRIBE => Frame::Unsubscribe {
            at: c.take_u64()? as BrokerId,
            id: c.take_u64()?,
        },
        kind::PUBLISH => {
            let at = c.take_u64()? as BrokerId;
            let n = c.take_u32()? as usize;
            c.check_remaining(n, 8)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.take_f64()?);
            }
            Frame::Publish { at, values }
        }
        kind::DELIVERIES => {
            let n = c.take_u32()? as usize;
            c.check_remaining(n, 16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let broker = c.take_u64()? as BrokerId;
                pairs.push((broker, c.take_u64()?));
            }
            Frame::Deliveries { pairs }
        }
        kind::OK => Frame::Ok,
        kind::ERR => Frame::Err {
            message: c.take_string()?,
        },
        kind::REJECTED => Frame::Rejected {
            reason: c.take_string()?,
        },
        kind::RESUBSCRIBE => {
            let at = c.take_u64()? as BrokerId;
            let client = c.take_u64()?;
            let id = c.take_u64()?;
            let epoch = c.take_u64()?;
            let n = c.take_u32()? as usize;
            c.check_remaining(n, 16)?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push((c.take_f64()?, c.take_f64()?));
            }
            Frame::Resubscribe {
                at,
                client,
                id,
                bounds,
                epoch,
            }
        }
        kind::RETRACT => Frame::Retract {
            at: c.take_u64()? as BrokerId,
            id: c.take_u64()?,
            epoch: c.take_u64()?,
        },
        other => {
            return Err(ServiceError::CorruptFrame {
                reason: format!("unknown frame kind {other}"),
            })
        }
    };
    c.finish()?;
    Ok(frame)
}

/// A bounds-checked reader over a payload slice: every primitive read can
/// fail cleanly instead of panicking on a short buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ServiceError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end.and_then(|end| self.buf.get(self.at..end)) {
            Some(slice) => {
                self.at = self.at.saturating_add(n);
                Ok(slice)
            }
            None => Err(ServiceError::CorruptFrame {
                reason: "payload shorter than its fields claim".into(),
            }),
        }
    }

    fn take_u32(&mut self) -> Result<u32, ServiceError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .expect("take(4) returns exactly four bytes");
        Ok(u32::from_le_bytes(b))
    }

    fn take_u64(&mut self) -> Result<u64, ServiceError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .expect("take(8) returns exactly eight bytes");
        Ok(u64::from_le_bytes(b))
    }

    fn take_f64(&mut self) -> Result<f64, ServiceError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_string(&mut self) -> Result<String, ServiceError> {
        let n = self.take_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ServiceError::CorruptFrame {
            reason: "string field is not UTF-8".into(),
        })
    }

    /// Rejects element counts that could not possibly fit in the remaining
    /// bytes, before `Vec::with_capacity` trusts them.
    fn check_remaining(&self, count: usize, elem_size: usize) -> Result<(), ServiceError> {
        let need = count.checked_mul(elem_size);
        if need.is_none_or(|need| need > self.buf.len() - self.at) {
            return Err(ServiceError::CorruptFrame {
                reason: "element count exceeds payload size".into(),
            });
        }
        Ok(())
    }

    /// Every payload byte must be consumed — trailing garbage is corruption.
    fn finish(&self) -> Result<(), ServiceError> {
        if self.at != self.buf.len() {
            return Err(ServiceError::CorruptFrame {
                reason: format!(
                    "{} trailing payload bytes after decoding",
                    self.buf.len() - self.at
                ),
            });
        }
        Ok(())
    }
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
    fn crc32_matches_the_ieee_check_value() {
        // The standard check: CRC-32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Split computation agrees with one-shot.
        let whole = crc32(b"hello world");
        assert_eq!(crc32_update(crc32(b"hello "), b"world"), whole);
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
