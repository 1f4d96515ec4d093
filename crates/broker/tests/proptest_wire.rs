//! Property tests for the daemon wire codec: every frame survives an
//! encode/decode round trip, and a flipped byte anywhere in a frame is
//! caught by the header checks or the checksum — reported as an error,
//! never a panic, never a silently different frame. The checksum stops
//! every such flip before the payload decoder runs, so the decoder's own
//! rejections are reached by *re-sealing*: mutate a valid frame's payload,
//! then patch its length and recompute its checksum.

use acd_broker::wire::{crc32, encode_frame, read_frame, Frame, FOOTER_LEN, HEADER_LEN};
use acd_broker::{BrokerId, ClientId, ServiceError};
use proptest::prelude::*;

/// ASCII strings, so `Hello`/`Err` payloads stay valid UTF-8 by
/// construction (the codec re-checks on decode anyway).
fn ascii_string() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..48)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII is UTF-8"))
}

/// `f64`s that round-trip bit-exactly through the codec, including the
/// values a real schema produces and the edges (infinities, extremes).
fn wire_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1_000_000.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Ids where a varint changes length (2⁷, 2¹⁴, …, 2⁶³), their neighbours,
/// both ends of `u64`, and small ids like the ones a real overlay hands out.
fn edge_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..10, 0u64..3).prop_map(|(k, off)| (1u64 << (7 * k)).wrapping_sub(1) + off),
        (0u64..3).prop_map(|off| u64::MAX - off),
        0u64..200,
        any::<u64>(),
    ]
}

/// Bytes that mean something to a varint reader — a zero, a bare
/// continuation bit, the largest last byte, a full byte — or any byte.
fn varint_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0), Just(0x80), Just(0x7f), Just(0xff), any::<u8>()]
}

/// What the publish paths hand the codec: strictly ascending pairs. Few
/// distinct brokers, so runs form, and `u64::MAX` among them, so a list can
/// end in a group at the last broker.
fn ascending_pairs() -> impl Strategy<Value = Vec<(BrokerId, ClientId)>> {
    let broker = prop_oneof![0u64..4, Just(u64::MAX), edge_id()];
    prop::collection::vec((broker, edge_id()), 0..24).prop_map(|mut pairs| {
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(broker, client)| (broker as BrokerId, client))
            .collect()
    })
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        ascii_string().prop_map(|schema_json| Frame::Hello { schema_json }),
        (
            0usize..64,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((wire_f64(), wire_f64()), 0..6),
        )
            .prop_map(|(at, client, id, bounds)| Frame::Subscribe {
                at,
                client,
                id,
                bounds,
            }),
        (0usize..64, any::<u64>()).prop_map(|(at, id)| Frame::Unsubscribe { at, id }),
        (0usize..64, prop::collection::vec(wire_f64(), 0..6))
            .prop_map(|(at, values)| Frame::Publish { at, values }),
        ascending_pairs().prop_map(|pairs| Frame::Deliveries { pairs }),
        Just(Frame::Ok),
        ascii_string().prop_map(|message| Frame::Err { message }),
        ascii_string().prop_map(|reason| Frame::Rejected { reason }),
        (
            0usize..64,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((wire_f64(), wire_f64()), 0..6),
            any::<u64>(),
        )
            .prop_map(|(at, client, id, bounds, epoch)| Frame::Resubscribe {
                at,
                client,
                id,
                bounds,
                epoch,
            }),
        (0usize..64, any::<u64>(), any::<u64>()).prop_map(|(at, id, epoch)| Frame::Retract {
            at,
            id,
            epoch
        }),
    ]
}

/// Replaces `frame`'s payload, patching the length field and recomputing
/// the checksum, so `read_frame` gets as far as the payload decoder.
fn reseal(frame: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut sealed = frame[..HEADER_LEN].to_vec();
    sealed[6..HEADER_LEN].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    sealed.extend_from_slice(payload);
    let crc = crc32(&sealed);
    sealed.extend_from_slice(&crc.to_le_bytes());
    sealed
}

/// The decoder's whole contract on bytes it did not write: a typed error,
/// or a frame that is exactly what those bytes spell — never a panic.
fn assert_error_or_same_bytes(bytes: &[u8]) {
    match read_frame(&mut &bytes[..], &mut Vec::new()) {
        Err(ServiceError::CorruptFrame { .. } | ServiceError::VersionMismatch { .. }) => {}
        Err(other) => panic!("{bytes:?}: untyped error {other:?}"),
        Ok(frame) => {
            let mut again = Vec::new();
            encode_frame(&frame, &mut again);
            assert_eq!(again, bytes, "read as {frame:?}");
        }
    }
}

/// The bytes `encode_frame` writes for a list that breaks the ascent
/// (release builds only: debug builds assert it) must not read back.
#[cfg(not(debug_assertions))]
#[test]
fn an_unsorted_or_duplicated_list_reads_back_as_corrupt() {
    for pairs in [
        vec![(3, 5), (1, 2)],
        vec![(1, 9), (1, 2)],
        vec![(1, 2), (2, 3), (1, 4)],
        vec![(1, 2), (1, 2)],
        vec![(0, 0), (0, 0), (0, 1)],
        vec![(usize::MAX, u64::MAX), (usize::MAX, u64::MAX)],
    ] {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Deliveries {
                pairs: pairs.clone(),
            },
            &mut buf,
        );
        let result = read_frame(&mut buf.as_slice(), &mut Vec::new());
        assert!(
            matches!(result, Err(ServiceError::CorruptFrame { .. })),
            "{pairs:?} read back as {result:?}"
        );
    }
}

/// The same lists in a debug build: the encoder's assertion fires.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "strictly ascending")]
fn an_unsorted_list_trips_the_encoders_debug_assertion() {
    let pairs = vec![(3, 5), (1, 2)];
    encode_frame(&Frame::Deliveries { pairs }, &mut Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_round_trips(frame in any_frame()) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        prop_assert!(buf.len() >= HEADER_LEN + FOOTER_LEN);
        let mut scratch = Vec::new();
        let decoded = read_frame(&mut buf.as_slice(), &mut scratch)
            .expect("encoded frame must decode");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn a_flipped_byte_is_an_error_never_a_panic(
        frame in any_frame(),
        position in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let index = (position % buf.len() as u64) as usize;
        buf[index] ^= 1 << bit;
        let mut scratch = Vec::new();
        let result = read_frame(&mut buf.as_slice(), &mut scratch);
        prop_assert!(
            result.is_err(),
            "flipping byte {} bit {} of a {} frame went undetected",
            index,
            bit,
            frame.kind_name()
        );
    }

    #[test]
    fn any_truncation_is_an_error_never_a_panic(
        frame in any_frame(),
        cut in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let cut = (cut % buf.len() as u64) as usize;
        let mut scratch = Vec::new();
        prop_assert!(read_frame(&mut &buf[..cut], &mut scratch).is_err());
    }

    #[test]
    fn arbitrary_garbage_is_an_error_never_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Sixty-odd random bytes cannot carry a magic, a length and a
        // checksum that all agree.
        prop_assert!(read_frame(&mut bytes.as_slice(), &mut Vec::new()).is_err());
    }
}

// The checksum is out of the way in these, so every case reaches the
// payload decoder; they are cheap, and get more cases for it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_resealed_mutation_is_an_error_or_the_frame_its_bytes_spell(
        frame in any_frame(),
        mutation in 0u8..4,
        position in any::<u64>(),
        byte in varint_byte(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let mut payload = buf[HEADER_LEN..buf.len() - FOOTER_LEN].to_vec();
        let index = (position % (payload.len() as u64 + 1)) as usize;
        match mutation {
            0 if index < payload.len() => payload[index] ^= 1 << bit,
            1 if index < payload.len() => payload[index] = byte,
            2 => payload.truncate(index),
            _ => payload.insert(index, byte),
        }
        assert_error_or_same_bytes(&reseal(&buf, &payload));
    }

    #[test]
    fn an_arbitrary_payload_under_any_kind_is_an_error_or_its_own_frame(
        kind in 0u8..12,
        payload in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut buf = Vec::new();
        encode_frame(&Frame::Ok, &mut buf);
        buf[5] = kind;
        assert_error_or_same_bytes(&reseal(&buf, &payload));
    }
}
