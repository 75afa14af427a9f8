//! Wire-format fuzz/property tests (offline proptest stand-in).
//!
//! The decoder contract under test: *any* byte sequence either decodes to
//! exactly one frame or returns a typed [`WireError`] — it never panics.
//! Round-tripping is exercised for every frame type — the three handshake
//! messages and the batch that carries all round traffic — and the
//! encoding is shown to be canonical (decode ∘ encode = id, and any bytes
//! that decode re-encode to themselves byte for byte).

use dpc_runtime::wire::{
    decode_frame_payload, decode_payload, encode_frame, encode_payload, read_frame, BatchEntry,
    ClusterIdentity, DataBatch, EntryKind, Frame, FrameError, Reassembly, RejectReason, WireError,
    WireMsg, MAX_BATCH_ENTRIES, MAX_PAYLOAD_LEN, PROTOCOL_VERSION, TAG_DATA_BATCH,
};
use proptest::prelude::*;

const ALL_REASONS: [RejectReason; 4] = [
    RejectReason::VersionMismatch,
    RejectReason::TopologyMismatch,
    RejectReason::ClusterSizeMismatch,
    RejectReason::UnknownPeer,
];

/// Builds one handshake message of each of the three scalar wire types
/// from a generated field pool, selected by `kind`.
fn build_msg(kind: u8, a: u32, hash: u64) -> WireMsg {
    match kind {
        0 => WireMsg::Hello {
            version: (a % 65_536) as u16,
            node: a,
            n_nodes: a.rotate_left(13),
            topology_hash: hash,
        },
        1 => WireMsg::HelloAck {
            version: (hash % 65_536) as u16,
            node: a,
        },
        _ => WireMsg::Reject {
            reason: ALL_REASONS[(a % 4) as usize],
        },
    }
}

/// Builds one frame of each of the four wire types: `kind` 0–2 are the
/// handshake messages, 3 is a batch of `1 + a % 3` entries whose kinds
/// rotate from `a`.
fn build_frame(kind: u8, a: u32, hash: u64, e: f64, transfer: f64, settled: bool) -> Frame {
    if kind < 3 {
        return Frame::Msg(build_msg(kind, a, hash));
    }
    Frame::Batch(DataBatch {
        round: a,
        entries: (0..=a % 3)
            .map(|i| build_entry((a.wrapping_add(i)) as u8, a ^ i, e, transfer, settled))
            .collect(),
    })
}

/// The full frame bytes (length prefix included) of either frame type.
fn frame_bytes(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Msg(msg) => encode_frame(msg),
        Frame::Batch(batch) => {
            let mut bytes = Vec::new();
            batch.encode_into(&mut bytes);
            bytes
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_message_type_round_trips(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        hash in 0u64..=u64::MAX,
        e in -1e9f64..1e9,
        transfer in -1e9f64..1e9,
        settled in (0u8..2).prop_map(|b| b == 1),
    ) {
        let frame = build_frame(kind, a, hash, e, transfer, settled);
        let bytes = frame_bytes(&frame);
        let payload = &bytes[4..];
        prop_assert!(payload.len() <= MAX_PAYLOAD_LEN as usize);
        prop_assert_eq!(decode_frame_payload(payload), Ok(frame.clone()));

        // The reassembly path agrees with the payload path.
        let mut reasm = Reassembly::new();
        reasm.push(&bytes);
        prop_assert_eq!(reasm.next_frame(), Ok(Some(frame.clone())));
        prop_assert_eq!(reasm.buffered(), 0);

        // So do the scalar-only paths, for the frames they speak.
        if let Frame::Msg(msg) = frame {
            let mut scalar = Vec::new();
            encode_payload(&msg, &mut scalar);
            prop_assert_eq!(&scalar[..], payload);
            prop_assert_eq!(decode_payload(payload), Ok(msg));
            let mut reader = &bytes[..];
            match read_frame(&mut reader) {
                Ok(got) => prop_assert_eq!(got, msg),
                Err(err) => prop_assert!(false, "framed round trip failed: {err}"),
            }
            prop_assert!(reader.is_empty());
        }
    }

    #[test]
    fn truncated_payloads_error_never_panic(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        hash in 0u64..=u64::MAX,
        e in -1e9f64..1e9,
        transfer in -1e9f64..1e9,
        settled in (0u8..2).prop_map(|b| b == 1),
    ) {
        let bytes = frame_bytes(&build_frame(kind, a, hash, e, transfer, settled));
        let payload = &bytes[4..];
        // Every strict prefix must be rejected as truncated: the layouts
        // are fixed-width (given a batch's count field), so no shorter
        // byte string of the same tag is a valid frame.
        for cut in 0..payload.len() {
            match decode_frame_payload(&payload[..cut]) {
                Err(WireError::Truncated { expected, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert!(expected > cut);
                }
                other => prop_assert!(false, "prefix of {cut} bytes decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        e in -1e9f64..1e9,
        extra in collection::vec(0u8..=255, 1..8),
    ) {
        let mut payload = frame_bytes(&build_frame(kind, a, 7, e, -e, false))[4..].to_vec();
        let tag = payload[0];
        let want_extra = extra.len();
        payload.extend_from_slice(&extra);
        prop_assert_eq!(
            decode_frame_payload(&payload),
            Err(WireError::TrailingBytes { tag, extra: want_extra })
        );
    }

    #[test]
    fn byte_soup_never_panics_and_decodes_are_canonical(
        bytes in collection::vec(0u8..=255, 0..40),
    ) {
        // Total decoder: arbitrary bytes produce a message or a typed
        // error, and anything that *does* decode re-encodes to the exact
        // input bytes (the encoding is canonical — no two byte strings
        // decode to the same message).
        if let Ok(msg) = decode_payload(&bytes) {
            let mut reencoded = Vec::new();
            encode_payload(&msg, &mut reencoded);
            prop_assert_eq!(reencoded, bytes);
        }
    }

    #[test]
    fn corrupted_frames_error_or_stay_canonical(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        e in -1e9f64..1e9,
        flip_at in 0usize..96,
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = frame_bytes(&build_frame(kind, a, 3, e, e / 2.0, true));
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        // A corrupted frame must never panic the reader; when it still
        // parses (the flip hit a don't-care field like `round`, or shrank
        // the length prefix onto a shorter valid frame), the result must
        // be a well-formed frame that re-frames canonically.
        let mut reasm = Reassembly::new();
        reasm.push(&bytes);
        if let Ok(Some(got)) = reasm.next_frame() {
            let reframed = frame_bytes(&got);
            prop_assert_eq!(&reframed[..], &bytes[..reframed.len()]);
        }
        if let Ok(got) = read_frame(&mut &bytes[..]) {
            let reframed = encode_frame(&got);
            prop_assert_eq!(&reframed[..], &bytes[..reframed.len()]);
        }
    }

    #[test]
    fn mid_frame_stream_cuts_are_io_errors(
        a in 0u32..=u32::MAX,
        hash in 0u64..=u64::MAX,
        cut in 1usize..23,
    ) {
        let frame = encode_frame(&build_msg(0, a, hash));
        prop_assert_eq!(frame.len(), 23);
        match read_frame(&mut &frame[..cut]) {
            Err(FrameError::Io(err)) => {
                prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => prop_assert!(false, "cut at {cut} gave {other:?}"),
        }
    }
}

/// Drains every complete frame currently buffered.
fn drain_frames(reasm: &mut Reassembly) -> Result<Vec<Frame>, WireError> {
    let mut out = Vec::new();
    while let Some(frame) = reasm.next_frame()? {
        out.push(frame);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reactor-path invariant: a frame stream fed one byte at a time —
    /// crossing *every* internal byte boundary of every frame — reassembles
    /// to the identical message sequence as one contiguous read.
    #[test]
    fn reassembly_is_invariant_to_byte_at_a_time_delivery(
        kinds in collection::vec(0u8..4, 1..5),
        a in 0u32..=u32::MAX,
        hash in 0u64..=u64::MAX,
        e in -1e9f64..1e9,
    ) {
        let msgs: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                build_frame(k, a.wrapping_add(i as u32), hash, e, e / 3.0, i % 2 == 0)
            })
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(frame_bytes).collect();

        // Contiguous reference.
        let mut whole = Reassembly::new();
        whole.push(&stream);
        prop_assert_eq!(drain_frames(&mut whole), Ok(msgs.clone()));
        prop_assert_eq!(whole.buffered(), 0);

        // Byte-at-a-time delivery.
        let mut drip = Reassembly::new();
        let mut got = Vec::new();
        for &byte in &stream {
            drip.push(&[byte]);
            match drain_frames(&mut drip) {
                Ok(batch) => got.extend(batch),
                Err(err) => prop_assert!(false, "drip decode failed: {err}"),
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(drip.buffered(), 0);
    }

    /// Arbitrary fixed-size chunking (the realistic socket case: reads cut
    /// frames wherever the kernel buffer happened to fill) decodes the same
    /// sequence too.
    #[test]
    fn reassembly_is_invariant_to_chunk_size(
        kinds in collection::vec(0u8..4, 1..6),
        chunk in 1usize..9,
        a in 0u32..=u32::MAX,
        e in -1e9f64..1e9,
    ) {
        let msgs: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_frame(k, a ^ i as u32, 23, e, -e, i % 2 == 1))
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(frame_bytes).collect();

        let mut reasm = Reassembly::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            reasm.push(piece);
            match drain_frames(&mut reasm) {
                Ok(batch) => got.extend(batch),
                Err(err) => prop_assert!(false, "chunked decode failed: {err}"),
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(reasm.buffered(), 0);
    }

    /// Total reassembler: arbitrary byte chunks never panic — every push
    /// either yields frames, waits for more bytes, or reports the same
    /// typed [`WireError`] the blocking reader would.
    #[test]
    fn reassembly_byte_soup_never_panics(
        chunks in collection::vec(collection::vec(0u8..=255, 0..12), 0..12),
    ) {
        let mut reasm = Reassembly::new();
        'feed: for chunk in &chunks {
            reasm.push(chunk);
            loop {
                match reasm.next_frame() {
                    Ok(Some(frame)) => {
                        // Anything that decodes must be canonical, exactly
                        // as on the payload path — batches included.
                        match frame {
                            Frame::Msg(msg) => {
                                let mut reencoded = Vec::new();
                                encode_payload(&msg, &mut reencoded);
                                prop_assert_eq!(decode_payload(&reencoded), Ok(msg));
                            }
                            Frame::Batch(batch) => {
                                let mut reframed = Vec::new();
                                batch.encode_into(&mut reframed);
                                prop_assert_eq!(
                                    decode_frame_payload(&reframed[4..]),
                                    Ok(Frame::Batch(batch))
                                );
                            }
                        }
                    }
                    Ok(None) => continue 'feed,
                    // Framing is lost for good — the connection would be
                    // torn down; stop feeding.
                    Err(_) => break 'feed,
                }
            }
        }
    }
}

/// Exhaustive two-way split: a fixed multi-message handshake stream cut
/// into a prefix/suffix pair at *every* position reassembles identically
/// (`every_two_way_split_of_a_batched_stream_reassembles` does the same
/// with batches in the stream).
#[test]
fn every_two_way_split_of_a_frame_stream_reassembles() {
    let msgs = [
        Frame::Msg(WireMsg::Hello {
            version: PROTOCOL_VERSION,
            node: 3,
            n_nodes: 64,
            topology_hash: 0xfeed_beef,
        }),
        Frame::Msg(WireMsg::HelloAck {
            version: PROTOCOL_VERSION,
            node: 4,
        }),
        Frame::Msg(WireMsg::Reject {
            reason: RejectReason::ClusterSizeMismatch,
        }),
    ];
    let stream: Vec<u8> = msgs.iter().flat_map(frame_bytes).collect();

    for cut in 0..=stream.len() {
        let mut reasm = Reassembly::new();
        reasm.push(&stream[..cut]);
        let mut got = drain_frames(&mut reasm).expect("prefix decodes cleanly");
        reasm.push(&stream[cut..]);
        got.extend(drain_frames(&mut reasm).expect("suffix completes the stream"));
        assert_eq!(got, msgs, "split at byte {cut} changed the decode");
        assert_eq!(reasm.buffered(), 0, "split at byte {cut} left residue");
    }
}

/// An oversized length prefix is rejected as soon as the prefix is
/// complete — the reassembler never waits for (or allocates) a bogus
/// multi-gigabyte frame.
#[test]
fn oversized_length_prefix_is_rejected_at_the_prefix() {
    let mut reasm = Reassembly::new();
    reasm.push(&u32::MAX.to_le_bytes());
    assert_eq!(reasm.next_frame(), Err(WireError::OversizedFrame(u32::MAX)));
}

/// A well-formed protocol-v2 scalar `Data` frame as the retired tag-4
/// layout had it: `round: u32`, `e: f64`, `transfer: f64`, `flags: u8`.
fn old_data_frame() -> Vec<u8> {
    let mut frame = 22u32.to_le_bytes().to_vec();
    frame.push(4);
    frame.extend_from_slice(&41u32.to_le_bytes());
    frame.extend_from_slice(&(-0.5f64).to_le_bytes());
    frame.extend_from_slice(&(-0.125f64).to_le_bytes());
    frame.push(1);
    assert_eq!(frame.len(), 26);
    frame
}

#[test]
fn unknown_tags_and_reason_codes_are_named() {
    // 4, 5 and 6 are the retired scalar round frames: unknown like any
    // unassigned tag, on every decode path, however well-formed the rest.
    for tag in [0u8, 4, 5, 6, 8, 42, 255] {
        assert_eq!(decode_payload(&[tag]), Err(WireError::UnknownTag(tag)));
        assert_eq!(
            decode_frame_payload(&[tag]),
            Err(WireError::UnknownTag(tag))
        );
    }
    let mut reasm = Reassembly::new();
    reasm.push(&old_data_frame());
    assert_eq!(reasm.next_frame(), Err(WireError::UnknownTag(4)));
    // Tag 7 is assigned (DataBatch) but scalar-only decoders must refuse
    // it by name rather than mis-reading it as unknown.
    assert_eq!(
        decode_payload(&[TAG_DATA_BATCH]),
        Err(WireError::UnexpectedBatch)
    );
    for code in [0u8, 5, 9, 255] {
        assert_eq!(
            decode_payload(&[3, code]),
            Err(WireError::UnknownReason(code))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-at-a-time reassembly over streams mixing scalar and batch
    /// frames — the coalesced reactor's actual inbound shape. Crossing
    /// every internal byte boundary must decode the identical sequence as
    /// one contiguous read.
    #[test]
    fn batched_reassembly_is_invariant_to_byte_at_a_time_delivery(
        batches in collection::vec(
            (0u32..1000, collection::vec((0u8..4, 0u32..64, -1e6f64..1e6, 0u8..2), 0..5)),
            1..4,
        )
    ) {
        let mut frames = Vec::new();
        for (round, specs) in &batches {
            frames.push(Frame::Batch(DataBatch {
                round: *round,
                entries: specs
                    .iter()
                    .map(|&(sel, slot, ev, settled)| {
                        build_entry(sel, slot, ev, ev / 2.0, settled == 1)
                    })
                    .collect(),
            }));
            // Interleave a scalar frame so framing transitions both ways.
            frames.push(Frame::Msg(build_msg((*round % 3) as u8, *round, 11)));
        }
        let stream: Vec<u8> = frames.iter().flat_map(frame_bytes).collect();

        let mut whole = Reassembly::new();
        whole.push(&stream);
        prop_assert_eq!(drain_frames(&mut whole), Ok(frames.clone()));

        let mut drip = Reassembly::new();
        let mut got = Vec::new();
        for &byte in &stream {
            drip.push(&[byte]);
            match drain_frames(&mut drip) {
                Ok(batch) => got.extend(batch),
                Err(err) => prop_assert!(false, "drip decode failed: {err}"),
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(drip.buffered(), 0);
    }

    /// Batch byte soup: arbitrary bytes behind the batch tag either decode
    /// to a batch that re-encodes canonically or return a typed error —
    /// never a panic.
    #[test]
    fn batch_byte_soup_never_panics_and_decodes_are_canonical(
        bytes in collection::vec(0u8..=255, 0..64),
    ) {
        let mut payload = vec![TAG_DATA_BATCH];
        payload.extend_from_slice(&bytes);
        if let Ok(frame) = decode_frame_payload(&payload) {
            let Frame::Batch(batch) = &frame else {
                return Err(TestCaseError::fail("batch tag decoded to a scalar"));
            };
            let mut reframed = Vec::new();
            batch.encode_into(&mut reframed);
            prop_assert_eq!(&reframed[4..], &payload[..]);
        }
    }
}

/// A valid batch entry from a generated field pool; the settled bit is
/// masked off for kinds whose encoding forbids it.
fn build_entry(sel: u8, slot: u32, e: f64, transfer: f64, settled: bool) -> BatchEntry {
    let kind = match sel % 4 {
        0 => EntryKind::Data,
        1 => EntryKind::Heartbeat,
        2 => EntryKind::Goodbye,
        _ => EntryKind::Eof,
    };
    BatchEntry {
        slot,
        e,
        transfer,
        settled: settled && matches!(kind, EntryKind::Data | EntryKind::Heartbeat),
        kind,
    }
}

/// A small deterministic mixed stream: scalar frames interleaved with
/// batch frames of every entry kind, a `-0.0` and a subnormal-adjacent
/// float among the fields.
fn mixed_stream() -> (Vec<Frame>, Vec<u8>) {
    let frames = vec![
        Frame::Msg(WireMsg::Hello {
            version: PROTOCOL_VERSION,
            node: 2,
            n_nodes: 16,
            topology_hash: 0xabad_cafe,
        }),
        Frame::Batch(DataBatch {
            round: 9,
            entries: vec![
                build_entry(0, 0, -0.0, 13.25, true),
                build_entry(1, 3, 0.0, 0.0, false),
                build_entry(2, 1, 1e-300, -7.5, false),
            ],
        }),
        Frame::Batch(DataBatch {
            round: 10,
            entries: vec![build_entry(3, 2, 0.0, 0.0, false)],
        }),
        Frame::Msg(WireMsg::Reject {
            reason: RejectReason::UnknownPeer,
        }),
    ];
    let stream = frames.iter().flat_map(frame_bytes).collect();
    (frames, stream)
}

#[test]
fn data_batch_round_trips_at_zero_one_and_max_count() {
    for count in [0usize, 1, MAX_BATCH_ENTRIES as usize] {
        let entries: Vec<BatchEntry> = (0..count)
            .map(|i| build_entry(i as u8, i as u32, i as f64 * 0.5, -(i as f64), i % 2 == 0))
            .collect();
        let batch = DataBatch { round: 77, entries };
        let mut stream = Vec::new();
        batch.encode_into(&mut stream);
        let mut reasm = Reassembly::new();
        reasm.push(&stream);
        assert_eq!(
            drain_frames(&mut reasm).expect("batch decodes"),
            vec![Frame::Batch(batch)],
            "count {count} did not round-trip"
        );
        assert_eq!(reasm.buffered(), 0);
    }
}

#[test]
fn truncated_and_padded_batch_payloads_are_rejected() {
    let batch = DataBatch {
        round: 3,
        entries: vec![
            build_entry(0, 1, 2.0, -1.0, true),
            build_entry(2, 0, 5.0, 0.5, false),
        ],
    };
    let mut frame = Vec::new();
    batch.encode_into(&mut frame);
    let payload = &frame[4..];
    // Every strict prefix is truncated: the layout is fixed-width given
    // the count field.
    for cut in 1..payload.len() {
        match decode_frame_payload(&payload[..cut]) {
            Err(WireError::Truncated { expected, got }) => {
                assert_eq!(got, cut);
                assert!(expected > cut);
            }
            other => panic!("batch prefix of {cut} bytes decoded to {other:?}"),
        }
    }
    // Surplus bytes past the declared count are trailing garbage.
    let mut padded = payload.to_vec();
    padded.extend_from_slice(&[0u8; 3]);
    assert_eq!(
        decode_frame_payload(&padded),
        Err(WireError::TrailingBytes {
            tag: TAG_DATA_BATCH,
            extra: 3
        })
    );
}

#[test]
fn oversized_batch_count_is_rejected_by_name() {
    let bogus = MAX_BATCH_ENTRIES + 1;
    let mut payload = vec![TAG_DATA_BATCH];
    payload.extend_from_slice(&5u32.to_le_bytes());
    payload.extend_from_slice(&bogus.to_le_bytes());
    assert_eq!(
        decode_frame_payload(&payload),
        Err(WireError::OversizedBatch(bogus))
    );
}

#[test]
fn every_two_way_split_of_a_batched_stream_reassembles() {
    let (frames, stream) = mixed_stream();
    for cut in 0..=stream.len() {
        let mut reasm = Reassembly::new();
        reasm.push(&stream[..cut]);
        let mut got = drain_frames(&mut reasm).expect("prefix decodes cleanly");
        reasm.push(&stream[cut..]);
        got.extend(drain_frames(&mut reasm).expect("suffix completes the stream"));
        assert_eq!(got, frames, "split at byte {cut} changed the decode");
        assert_eq!(reasm.buffered(), 0, "split at byte {cut} left residue");
    }
}

#[test]
fn protocol_version_mismatch_rejects_by_name() {
    let identity = ClusterIdentity {
        n_nodes: 32,
        topology_hash: 0x5eed,
    };
    // Every wrong version — including the previous protocol revision — is
    // turned away as a version mismatch before anything else is checked.
    for wrong in [0u16, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, u16::MAX] {
        assert_eq!(
            identity.validate_hello(wrong, 32, 0x5eed),
            Err(RejectReason::VersionMismatch)
        );
        assert_eq!(
            identity.validate_hello(wrong, 1, 0),
            Err(RejectReason::VersionMismatch),
            "version is checked first"
        );
    }
    assert_eq!(
        identity.validate_hello(PROTOCOL_VERSION, 32, 0x5eed),
        Ok(())
    );
    assert_eq!(
        identity.validate_hello(PROTOCOL_VERSION, 33, 0x5eed),
        Err(RejectReason::ClusterSizeMismatch)
    );
    assert_eq!(
        identity.validate_hello(PROTOCOL_VERSION, 32, 0),
        Err(RejectReason::TopologyMismatch)
    );
}

#[test]
fn reserved_flag_bits_are_rejected() {
    let batch = DataBatch {
        round: 1,
        entries: vec![build_entry(1, 0, 0.0, 0.0, true)],
    };
    let mut payload = Vec::new();
    batch.encode_into(&mut payload);
    payload.drain(..4);
    let flags_at = payload.len() - 1;
    for bad in [0b1000u8, 0b1_0000, 0xf8, 0xff] {
        payload[flags_at] = bad;
        assert_eq!(
            decode_frame_payload(&payload),
            Err(WireError::BadFlags(bad))
        );
    }
}
