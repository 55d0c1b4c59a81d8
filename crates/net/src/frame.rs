//! The length-prefixed framing codec: how every byte on an APDM/net
//! connection is laid out.
//!
//! One frame is a fixed 35-byte header, a JSON payload, and a 4-byte CRC
//! trailer:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "APDM" (0x41 0x50 0x44 0x4D)
//! 4       1     protocol version (currently 1)
//! 5       1     frame type (FrameType)
//! 6       25    trace context (3 × u64 LE + flag byte; all-zero = none)
//! 31      4     payload length, u32 little-endian (≤ MAX_PAYLOAD)
//! 35      n     payload (UTF-8 JSON; may be empty)
//! 35+n    4     CRC-32 (IEEE), u32 little-endian, over bytes 4..35+n
//! ```
//!
//! The CRC deliberately excludes the magic (a wrong magic is already fatal)
//! and covers everything else including the header, so a flipped version
//! byte or a truncated-then-spliced payload fails the check. Decoding is
//! fail-closed and total: every malformed input maps to a [`FrameError`],
//! never a panic, and the payload length is validated **before** any
//! payload allocation so an adversarial length prefix cannot balloon
//! memory. The full byte-level contract is documented in
//! `docs/PROTOCOL.md`.

use std::io::{self, Read, Write};

use apdm_telemetry::{TraceContext, CONTEXT_WIRE_LEN};

/// The four magic bytes opening every frame: `"APDM"`.
pub const MAGIC: [u8; 4] = *b"APDM";
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes (magic through payload length).
pub const HEADER_LEN: usize = 4 + 1 + 1 + CONTEXT_WIRE_LEN + 4;
/// CRC trailer length in bytes.
pub const TRAILER_LEN: usize = 4;
/// Largest accepted payload (64 KiB). Larger length prefixes are rejected
/// before any payload is read.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// Slicing-by-8 lookup tables for the reflected CRC-32 (IEEE 802.3)
/// polynomial. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (IEEE) digest, so header and payload can be folded in
/// without concatenating buffers.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Start a fresh digest.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the digest: eight bytes per step (slicing-by-8),
    /// then the tail a byte at a time. The checksum does not depend on how
    /// the input is split across calls.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// Finish and return the checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// CRC-32 (IEEE) of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut digest = Crc32::new();
    digest.update(bytes);
    digest.finish()
}

/// Every frame type in protocol version 1. The numeric value is the wire
/// encoding; unknown values are rejected with [`FrameError::BadType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: first frame on a connection; payload names the
    /// client role (`wire::HelloPayload`).
    Hello = 1,
    /// Server → client: accepts a `Hello`; payload is `wire::WelcomePayload`.
    Welcome = 2,
    /// Client → server: one `DecisionRequest` (payload is a request
    /// snapshot).
    Request = 3,
    /// Server → client: one `Decision` (payload is `wire::DecisionSnap`).
    Decision = 4,
    /// Client → server: "my requests for tick *t* are all sent"
    /// (payload is `wire::TickPayload`).
    TickDone = 5,
    /// Server → client: "tick *t* is fully decided" (payload is
    /// `wire::TickPayload`).
    TickAck = 6,
    /// Either direction: orderly close. Empty payload.
    Bye = 7,
    /// Server → client: protocol error; payload is `wire::ErrorPayload`
    /// carrying a close code.
    Error = 8,
    /// Client → server: liveness probe. Empty payload.
    Ping = 9,
    /// Server → client: answer to a `Ping`. Empty payload.
    Pong = 10,
}

impl FrameType {
    /// Decode a wire byte; `None` for unknown types.
    pub fn from_u8(byte: u8) -> Option<FrameType> {
        Some(match byte {
            1 => FrameType::Hello,
            2 => FrameType::Welcome,
            3 => FrameType::Request,
            4 => FrameType::Decision,
            5 => FrameType::TickDone,
            6 => FrameType::TickAck,
            7 => FrameType::Bye,
            8 => FrameType::Error,
            9 => FrameType::Ping,
            10 => FrameType::Pong,
            _ => return None,
        })
    }
}

/// One decoded frame: type, optional trace context, raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What kind of frame this is.
    pub frame_type: FrameType,
    /// The causal trace context riding in the header, if the sender
    /// attached one.
    pub ctx: Option<TraceContext>,
    /// Raw payload bytes (UTF-8 JSON for non-empty payloads).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no trace context.
    pub fn new(frame_type: FrameType, payload: Vec<u8>) -> Frame {
        Frame {
            frame_type,
            ctx: None,
            payload,
        }
    }

    /// A frame carrying a trace context in its header.
    pub fn traced(frame_type: FrameType, ctx: Option<TraceContext>, payload: Vec<u8>) -> Frame {
        Frame {
            frame_type,
            ctx,
            payload,
        }
    }
}

/// Every way a byte stream can fail to be a valid frame. Decoding never
/// panics: adversarial input maps here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not `"APDM"`.
    BadMagic([u8; 4]),
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown frame-type byte.
    BadType(u8),
    /// Reserved trace-context flag bits were set.
    BadContext(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Trailer CRC did not match the computed checksum.
    BadCrc {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum carried in the frame trailer.
        received: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::BadContext(b) => write!(f, "reserved context flag bits set: {b:#04x}"),
            FrameError::Oversize(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            FrameError::BadCrc { computed, received } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#010x}, received {received:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Outcome of one [`read_frame`] call that did not produce an error.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, checksum-valid frame.
    Frame(Frame),
    /// The read timed out **between** frames (no bytes of the next frame
    /// had arrived). The stream is still well-framed; callers typically
    /// check a shutdown flag and retry.
    Idle,
    /// Clean EOF at a frame boundary: the peer closed without a partial
    /// frame in flight.
    Closed,
}

/// Every way [`read_frame`] can fail.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes arrived but do not form a valid frame.
    Malformed(FrameError),
    /// The read timed out **mid-frame**: the peer stalled after sending a
    /// partial frame. Fail-closed policy is to drop the connection.
    Stalled,
    /// EOF arrived mid-frame: the peer disconnected leaving a torn frame.
    Truncated,
    /// Any other I/O error.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Malformed(e) => write!(f, "malformed frame: {e}"),
            ReadError::Stalled => write!(f, "peer stalled mid-frame"),
            ReadError::Truncated => write!(f, "peer disconnected mid-frame"),
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// How far a `read_full` call got before returning.
enum Fill {
    /// Buffer completely filled.
    Done,
    /// EOF before the first byte (only reported when `filled == 0`).
    Eof,
    /// Timeout before the first byte.
    Timeout,
}

/// Fill `buf` from `r`, looping over short reads (so a peer dribbling one
/// byte at a time still assembles a full frame). Distinguishes "nothing
/// arrived at all" from "stream died mid-buffer".
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, ReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(Fill::Eof)
                } else {
                    Err(ReadError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return if filled == 0 {
                    Ok(Fill::Timeout)
                } else {
                    Err(ReadError::Stalled)
                };
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Encode one frame to its wire bytes. Pure; the inverse of [`decode`].
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + frame.payload.len() + TRAILER_LEN);
    encode_into(frame, &mut bytes);
    bytes
}

/// Append one frame's wire bytes to `out`: the same bytes as
/// [`encode`], so several frames can share one buffer and one write.
pub(crate) fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(HEADER_LEN + frame.payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.frame_type as u8);
    match &frame.ctx {
        Some(ctx) => out.extend_from_slice(&ctx.to_wire()),
        None => out.extend_from_slice(&[0u8; CONTEXT_WIRE_LEN]),
    }
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Write one frame to `w` in a single `write_all`, then call `flush`.
///
/// Neither call bounds how the peer reads the bytes: TCP may split one
/// write into several segments or merge several writes into one, so a
/// receiver reads by frame (header, then the declared payload and
/// trailer), never by segment. Where several frames go out together —
/// the server's per-tick replies, a workload client's tick of requests —
/// the sender appends them to one buffer and writes that once instead of
/// calling this per frame.
///
/// The flush does not mean delivery: on a `TcpStream` it is a no-op, and
/// when the bytes leave is up to the socket. With Nagle's algorithm on, a
/// small frame written while earlier bytes are unacknowledged waits for
/// the peer's (delayed) ACK — so every `apdm-net` socket disables Nagle
/// (`TCP_NODELAY`), and third-party peers must too (see
/// `docs/PROTOCOL.md`).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))?;
    w.flush()
}

/// Validate a fully-buffered header (the first [`HEADER_LEN`] bytes of a
/// frame) and return `(frame_type, ctx, payload_len)`.
fn decode_header(
    header: &[u8; HEADER_LEN],
) -> Result<(FrameType, Option<TraceContext>, u32), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let frame_type = FrameType::from_u8(header[5]).ok_or(FrameError::BadType(header[5]))?;
    let ctx_bytes: [u8; CONTEXT_WIRE_LEN] = header[6..6 + CONTEXT_WIRE_LEN]
        .try_into()
        .expect("context bytes");
    if ctx_bytes[CONTEXT_WIRE_LEN - 1] & !1 != 0 {
        return Err(FrameError::BadContext(ctx_bytes[CONTEXT_WIRE_LEN - 1]));
    }
    let ctx = TraceContext::from_wire(&ctx_bytes);
    let len = u32::from_le_bytes(header[HEADER_LEN - 4..].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize(len));
    }
    Ok((frame_type, ctx, len))
}

/// Decode one frame from a contiguous buffer holding exactly one frame.
/// Pure; the inverse of [`encode`]. Trailing garbage is a CRC error.
pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        // Too short to hold even an empty frame: classify by what's missing.
        let mut magic = [0u8; 4];
        let got = bytes.len().min(4);
        magic[..got].copy_from_slice(&bytes[..got]);
        return Err(FrameError::BadMagic(magic));
    }
    let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("header bytes");
    let (frame_type, ctx, len) = decode_header(&header)?;
    let body_end = HEADER_LEN + len as usize;
    if bytes.len() != body_end + TRAILER_LEN {
        return Err(FrameError::BadCrc {
            computed: crc32(&bytes[4..bytes.len().saturating_sub(TRAILER_LEN).max(4)]),
            received: 0,
        });
    }
    let computed = crc32(&bytes[4..body_end]);
    let received = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
    if computed != received {
        return Err(FrameError::BadCrc { computed, received });
    }
    Ok(Frame {
        frame_type,
        ctx,
        payload: bytes[HEADER_LEN..body_end].to_vec(),
    })
}

/// Read one frame from `r`, blocking until a frame, timeout, EOF, or error.
///
/// Timeouts (an `Err` of kind `WouldBlock`/`TimedOut` from `r`, e.g. a
/// `TcpStream` with a read timeout) are classified by position: **between**
/// frames they are [`ReadOutcome::Idle`] (benign — retry), **inside** a
/// frame they are [`ReadError::Stalled`] (a slow-loris peer; drop it).
/// Likewise EOF: at a boundary it is [`ReadOutcome::Closed`], mid-frame it
/// is [`ReadError::Truncated`]. Short reads are looped, so a peer writing
/// one byte at a time is fine.
pub fn read_frame(r: &mut impl Read) -> Result<ReadOutcome, ReadError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        Fill::Done => {}
        Fill::Eof => return Ok(ReadOutcome::Closed),
        Fill::Timeout => return Ok(ReadOutcome::Idle),
    }
    let (frame_type, ctx, len) = decode_header(&header).map_err(ReadError::Malformed)?;
    // Payload and trailer in one read: the trailer is never empty, so
    // nothing arriving after the header is mid-frame, even for an empty
    // payload.
    let len = len as usize;
    let mut payload = vec![0u8; len + TRAILER_LEN];
    match read_full(r, &mut payload)? {
        Fill::Done => {}
        Fill::Eof => return Err(ReadError::Truncated),
        Fill::Timeout => return Err(ReadError::Stalled),
    }
    let trailer: [u8; TRAILER_LEN] = payload[len..].try_into().expect("trailer bytes");
    payload.truncate(len);
    let mut digest = Crc32::new();
    digest.update(&header[4..]);
    digest.update(&payload);
    let computed = digest.finish();
    let received = u32::from_le_bytes(trailer);
    if computed != received {
        return Err(ReadError::Malformed(FrameError::BadCrc {
            computed,
            received,
        }));
    }
    Ok(ReadOutcome::Frame(Frame {
        frame_type,
        ctx,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_into_appends_the_bytes_of_encode() {
        let frames = [
            Frame::new(FrameType::Ping, Vec::new()),
            Frame::traced(
                FrameType::Decision,
                Some(TraceContext::root(9, true)),
                b"{\"v\":1}".to_vec(),
            ),
        ];
        let mut joined = b"prefix".to_vec();
        for frame in &frames {
            encode_into(frame, &mut joined);
        }
        let expected = [&b"prefix"[..], &encode(&frames[0]), &encode(&frames[1])].concat();
        assert_eq!(joined, expected);
    }

    #[test]
    fn encode_decode_round_trip() {
        let ctx = TraceContext::root(7, true).child(1);
        for (ty, ctx) in [
            (FrameType::Hello, None),
            (FrameType::Request, Some(ctx)),
            (FrameType::Bye, None),
        ] {
            let frame = Frame::traced(ty, ctx, b"{\"k\":1}".to_vec());
            let bytes = encode(&frame);
            assert_eq!(decode(&bytes).unwrap(), frame);
            match read_frame(&mut Cursor::new(&bytes)).unwrap() {
                ReadOutcome::Frame(f) => assert_eq!(f, frame),
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_at_boundary_is_closed_but_midframe_is_truncated() {
        let bytes = encode(&Frame::new(FrameType::Ping, Vec::new()));
        match read_frame(&mut Cursor::new(&[][..])).unwrap() {
            ReadOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        for cut in 1..bytes.len() {
            match read_frame(&mut Cursor::new(&bytes[..cut])) {
                Err(ReadError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Yields its bytes, then times out.
    struct ThenTimeout<'a>(&'a [u8]);

    impl Read for ThenTimeout<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_timeout_between_frames_is_idle_but_inside_one_is_stalled() {
        assert!(matches!(
            read_frame(&mut ThenTimeout(&[])),
            Ok(ReadOutcome::Idle)
        ));
        for payload in [Vec::new(), b"{\"k\":1}".to_vec()] {
            let bytes = encode(&Frame::new(FrameType::Request, payload));
            for cut in 1..bytes.len() {
                match read_frame(&mut ThenTimeout(&bytes[..cut])) {
                    Err(ReadError::Stalled) => {}
                    other => panic!("cut at {cut}: expected Stalled, got {other:?}"),
                }
            }
            assert!(matches!(
                read_frame(&mut ThenTimeout(&bytes)),
                Ok(ReadOutcome::Frame(_))
            ));
        }
    }

    #[test]
    fn oversize_length_rejected_before_payload_read() {
        let mut bytes = encode(&Frame::new(FrameType::Request, vec![0u8; 8]));
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut Cursor::new(&bytes)) {
            Err(ReadError::Malformed(FrameError::Oversize(n))) => assert_eq!(n, u32::MAX),
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let good = encode(&Frame::traced(
            FrameType::Decision,
            Some(TraceContext::root(3, false)),
            b"{\"v\":true}".to_vec(),
        ));
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            // Every single-byte corruption decodes to an error, not a frame
            // equal to the original, and never panics.
            if let Ok(f) = decode(&bad) {
                assert_ne!(encode(&f), good);
            }
        }
    }
}
