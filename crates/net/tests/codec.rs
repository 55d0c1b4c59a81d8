//! Codec edge-case tests: property round-trips over arbitrary frames, and
//! the mangled-input paths (truncation, oversize, corrupt CRC, wrong
//! version) that the fail-closed boundary depends on. None of these may
//! panic — a panicking codec would let a hostile client kill the server
//! thread instead of being audited and dropped.

use std::io::{self, Read};

use apdm_net::frame::{
    crc32, decode, encode, read_frame, Crc32, Frame, FrameError, FrameType, ReadError, ReadOutcome,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, TRAILER_LEN, VERSION,
};
use apdm_telemetry::{TraceContext, CONTEXT_WIRE_LEN};
use proptest::prelude::*;

/// A reader that hands out one byte per `read` call, exercising every
/// partial-read path in the framed reader.
struct OneByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

fn frame_type_from(raw: u8) -> FrameType {
    FrameType::from_u8(raw).expect("strategy stays within known frame types")
}

fn arb_ctx(trace: u64, span: u64, parent: u64, sampled: bool) -> Option<TraceContext> {
    // An all-zero trace id is the wire sentinel for "no context"; skew away
    // from it so the strategy always produces a real context here and the
    // no-context case is covered by `traced == false`.
    Some(TraceContext {
        trace_id: trace | 1,
        span_id: span,
        parent_id: parent,
        sampled,
    })
}

/// CRC-32 (IEEE) by its bitwise definition: reflected, polynomial
/// `0xEDB88320`, initial value and final xor all ones. The reference the
/// table-driven digest is checked against.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn crc32_matches_the_bitwise_definition_at_every_length() {
    let bytes: Vec<u8> = (0u32..600)
        .map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8)
        .collect();
    for len in 0..=bytes.len() {
        assert_eq!(
            crc32(&bytes[..len]),
            crc32_bitwise(&bytes[..len]),
            "length {len}"
        );
    }
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

proptest! {
    /// The digest equals the bitwise CRC whatever the input and however it
    /// is split across `update` calls: chunk boundaries that do not fall
    /// on the eight-byte stride still give the same checksum.
    #[test]
    fn crc32_equals_the_bitwise_definition_across_split_updates(
        bytes in collection::vec(any::<u8>(), 0..400),
        cuts in collection::vec(any::<usize>(), 0..6),
    ) {
        let expected = crc32_bitwise(&bytes);
        prop_assert_eq!(crc32(&bytes), expected);
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        at.sort_unstable();
        let mut digest = Crc32::new();
        let mut from = 0;
        for to in at.into_iter().chain([bytes.len()]) {
            digest.update(&bytes[from..to]);
            from = to;
        }
        prop_assert_eq!(digest.finish(), expected);
    }

    /// Any well-formed frame survives encode → decode bit-exactly.
    #[test]
    fn arbitrary_frames_round_trip(
        raw_type in 1u8..11,
        payload in collection::vec(any::<u8>(), 0..300),
        traced in any::<bool>(),
        trace in any::<u64>(),
        span in any::<u64>(),
        parent in any::<u64>(),
        sampled in any::<bool>(),
    ) {
        let ctx = if traced { arb_ctx(trace, span, parent, sampled) } else { None };
        let frame = Frame {
            frame_type: frame_type_from(raw_type),
            ctx,
            payload: payload.clone(),
        };
        let bytes = encode(&frame);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
        let back = decode(&bytes).expect("encoded frame decodes");
        prop_assert_eq!(back, frame);
    }

    /// The framed reader reassembles any frame even when the transport
    /// delivers it one byte at a time.
    #[test]
    fn split_writes_reassemble(
        raw_type in 1u8..11,
        payload in collection::vec(any::<u8>(), 0..120),
        traced in any::<bool>(),
        trace in any::<u64>(),
    ) {
        let ctx = if traced { arb_ctx(trace, trace ^ 7, 0, true) } else { None };
        let frame = Frame { frame_type: frame_type_from(raw_type), ctx, payload };
        let bytes = encode(&frame);
        let mut reader = OneByteReader { bytes: &bytes, pos: 0 };
        match read_frame(&mut reader).expect("split delivery still frames") {
            ReadOutcome::Frame(back) => prop_assert_eq!(back, frame),
            other => panic!("expected a frame, got {other:?}"),
        }
        // And the stream then ends cleanly at a frame boundary.
        match read_frame(&mut reader).expect("eof at boundary is clean") {
            ReadOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    /// Every strict prefix of a valid frame is a torn frame, never a panic
    /// and never a spurious success.
    #[test]
    fn truncation_at_any_point_is_detected(
        payload in collection::vec(any::<u8>(), 1..80),
        cut_seed in any::<usize>(),
    ) {
        let frame = Frame::new(FrameType::Request, payload);
        let bytes = encode(&frame);
        let cut = 1 + cut_seed % (bytes.len() - 1);
        let mut reader = io::Cursor::new(bytes[..cut].to_vec());
        match read_frame(&mut reader) {
            Err(ReadError::Truncated) => {}
            Ok(ReadOutcome::Frame(_)) => panic!("truncated frame decoded at cut {cut}"),
            other => panic!("expected Truncated at cut {cut}, got {other:?}"),
        }
    }

    /// Flipping any single bit in an encoded frame is always rejected —
    /// magic, version, type, context, length, payload, and CRC corruption
    /// all surface as errors, never as a silently different frame.
    #[test]
    fn single_bit_corruption_never_passes(
        payload in collection::vec(any::<u8>(), 1..60),
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let frame = Frame::traced(FrameType::Decision, Some(TraceContext::root(99, true)), payload);
        let mut bytes = encode(&frame);
        let index = byte_seed % bytes.len();
        bytes[index] ^= 1 << bit;
        match decode(&bytes) {
            Err(_) => {}
            Ok(back) => {
                // A flip in a declared-length byte can only succeed if it
                // somehow still framed identically, which it cannot: every
                // byte of header, payload, and trailer is CRC-covered or is
                // the magic itself.
                panic!("corrupt byte {index} bit {bit} decoded as {back:?}");
            }
        }
    }
}

#[test]
fn oversize_length_is_rejected_without_allocation() {
    let frame = Frame::new(FrameType::Ping, Vec::new());
    let mut bytes = encode(&frame);
    // Patch the declared length to just over the cap and fix nothing else:
    // the length check must fire before payload reads or CRC checks.
    let len_at = HEADER_LEN - 4;
    let huge = (MAX_PAYLOAD + 1).to_le_bytes();
    bytes[len_at..len_at + 4].copy_from_slice(&huge);
    match decode(&bytes) {
        Err(FrameError::Oversize(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
    let mut reader = io::Cursor::new(bytes);
    match read_frame(&mut reader) {
        Err(ReadError::Malformed(FrameError::Oversize(_))) => {}
        other => panic!("expected Malformed(Oversize), got {other:?}"),
    }
}

#[test]
fn bad_version_is_rejected_with_the_offending_byte() {
    let frame = Frame::new(FrameType::Hello, b"{}".to_vec());
    let mut bytes = encode(&frame);
    bytes[4] = VERSION + 1;
    // Re-seal the CRC so the version check is what fires, not the CRC.
    let crc_at = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[4..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    match decode(&bytes) {
        Err(FrameError::BadVersion(v)) => assert_eq!(v, VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let frame = Frame::new(FrameType::Hello, Vec::new());
    let mut bytes = encode(&frame);
    bytes[0] = b'X';
    match decode(&bytes) {
        Err(FrameError::BadMagic(m)) => assert_ne!(m, MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn bad_crc_reports_both_values() {
    let frame = Frame::new(FrameType::Pong, b"x".to_vec());
    let mut bytes = encode(&frame);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    match decode(&bytes) {
        Err(FrameError::BadCrc { computed, received }) => assert_ne!(computed, received),
        other => panic!("expected BadCrc, got {other:?}"),
    }
}

#[test]
fn unknown_frame_type_is_rejected() {
    let frame = Frame::new(FrameType::Ping, Vec::new());
    let mut bytes = encode(&frame);
    bytes[5] = 0; // type 0 is reserved / invalid
    let crc_at = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[4..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    match decode(&bytes) {
        Err(FrameError::BadType(0)) => {}
        other => panic!("expected BadType(0), got {other:?}"),
    }
}

#[test]
fn reserved_context_bits_are_rejected() {
    let frame = Frame::traced(
        FrameType::Request,
        Some(TraceContext::root(7, true)),
        Vec::new(),
    );
    let mut bytes = encode(&frame);
    // Flag byte is the last byte of the 25-byte context block.
    let flag_at = 4 + 1 + 1 + CONTEXT_WIRE_LEN - 1;
    bytes[flag_at] |= 0b0100_0000;
    let crc_at = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[4..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    match decode(&bytes) {
        Err(FrameError::BadContext(flags)) => assert_ne!(flags & 0b0100_0000, 0),
        other => panic!("expected BadContext, got {other:?}"),
    }
}

#[test]
fn pure_garbage_streams_error_rather_than_panic() {
    // Deterministic pseudo-random garbage of assorted lengths, fed both to
    // the pure decoder and the incremental reader.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for len in [0usize, 1, 3, HEADER_LEN - 1, HEADER_LEN, 64, 512] {
        let mut garbage = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            garbage.push((state >> 33) as u8);
        }
        let _ = decode(&garbage); // must not panic
        let mut reader = io::Cursor::new(garbage);
        match read_frame(&mut reader) {
            Ok(ReadOutcome::Closed) if len == 0 => {}
            Ok(ReadOutcome::Frame(_)) => panic!("garbage of length {len} framed"),
            _ => {} // Malformed / Truncated are both acceptable rejections
        }
    }
}

/// The byte dumps in `docs/PROTOCOL.md`'s worked example, in order. Each
/// line is a 4-digit hex offset, then up to 16 hex bytes in fixed columns,
/// then the ASCII rendering.
fn protocol_doc_dumps() -> Vec<Vec<u8>> {
    let doc = include_str!("../../../docs/PROTOCOL.md");
    let mut dumps = Vec::new();
    let mut current: Option<Vec<u8>> = None;
    for line in doc.lines() {
        match (line, current.as_mut()) {
            ("```text", None) => current = Some(Vec::new()),
            ("```", Some(_)) => dumps.extend(current.take().filter(|d| !d.is_empty())),
            (line, Some(dump)) => {
                let offset = usize::from_str_radix(&line[..4], 16).expect("hex offset");
                assert_eq!(offset, dump.len(), "dump line {line:?}");
                for byte in line[6..line.len().min(53)].split_whitespace() {
                    dump.push(u8::from_str_radix(byte, 16).expect("hex byte"));
                }
            }
            _ => {}
        }
    }
    dumps
}

/// The worked-example frames in the protocol document decode, and the
/// codec re-encodes each of them byte for byte.
#[test]
fn protocol_doc_hex_dumps_re_encode_byte_for_byte() {
    let dumps = protocol_doc_dumps();
    let sizes: Vec<usize> = dumps.iter().map(Vec::len).collect();
    assert_eq!(sizes, [81, 39, 49], "the Hello, Ping and traced TickDone");
    let types = [FrameType::Hello, FrameType::Ping, FrameType::TickDone];
    for (dump, ty) in dumps.iter().zip(types) {
        let frame = decode(dump).expect("documented frame decodes");
        assert_eq!(frame.frame_type, ty);
        assert_eq!(&encode(&frame), dump, "{ty:?}");
    }
}
