//! Parcel framing — the byte layout parcelports put on the wire.
//!
//! A frame is either a **single** parcel or a **coalesced batch** of
//! parcels (the coalescing layer of `crate::coalesce` packs small parcels
//! headed to the same destination into one frame, HPX's
//! "parcel coalescing" plugin):
//!
//! ```text
//! magic   u16  = 0x0C7E            (rejects desynchronized streams)
//! kind    u8   = 1 single | 2 batch
//! count   u32  (LE)                 parcels in the frame (1 for single)
//! repeat count times:
//!   len     u32  (LE)               body length (ctx not included)
//!   origin  u32  (LE)  ┐
//!   flow    u64  (LE)  ├ TraceCtx — causal-tracing header, 20 bytes
//!   send_ns u64  (LE)  ┘
//!   body    len bytes               one wire-encoded parcel
//! ```
//!
//! Every parcel carries a [`TraceCtx`] — origin locality, process-unique
//! flow id, and send timestamp — so the receive side can emit the matching
//! half of a Chrome flow arrow and record the one-way latency without any
//! side channel. The context is wire state, not payload: `len` counts the
//! body only.
//!
//! [`FrameDecoder`] is incremental: `feed` accepts arbitrary byte slices
//! (partial frames, multiple frames, split headers) and yields complete
//! parcels as they materialize — the shape a streaming TCP receive path
//! needs.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{BufMut, Bytes, BytesMut};

/// Frame magic (two bytes, little-endian on the wire).
pub const FRAME_MAGIC: u16 = 0x0C7E;

/// Fixed per-frame header size: magic + kind + count.
pub const FRAME_HEADER_BYTES: usize = 7;

/// Per-parcel length prefix inside a frame.
pub const PARCEL_LEN_BYTES: usize = 4;

/// Per-parcel trace context carried after the length prefix:
/// origin `u32` + flow id `u64` + send timestamp `u64`.
pub const TRACE_CTX_BYTES: usize = 20;

const KIND_SINGLE: u8 = 1;
const KIND_BATCH: u8 = 2;

/// Causal-tracing context stamped on every parcel at submit time and
/// carried in the wire header (HPX parcels carry the same idea as their
/// APEX task GUIDs). `origin` is the sending locality, `flow` a
/// process-unique id pairing the Chrome `"s"`/`"f"` flow events, and
/// `send_ns` the submit timestamp on the sender's trace clock — the
/// receive side subtracts it for the `/comms/parcel_latency` histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Sending locality id.
    pub origin: u32,
    /// Process-unique flow id (pairs `"s"` and `"f"` trace events).
    pub flow: u64,
    /// Submit timestamp, ns on the sender's trace clock.
    pub send_ns: u64,
}

static NEXT_FLOW: AtomicU64 = AtomicU64::new(1);

impl TraceCtx {
    /// Stamp a fresh context for a parcel leaving `origin`: allocates the
    /// next flow id and timestamps the submit moment.
    pub fn stamp(origin: u32) -> Self {
        TraceCtx {
            origin,
            flow: NEXT_FLOW.fetch_add(1, Ordering::Relaxed),
            send_ns: apex_lite::trace::now_ns(),
        }
    }

    fn put(&self, out: &mut BytesMut) {
        out.put_u32_le(self.origin);
        out.put_u64_le(self.flow);
        out.put_u64_le(self.send_ns);
    }

    fn read(buf: &[u8]) -> Self {
        TraceCtx {
            origin: u32::from_le_bytes(buf[0..4].try_into().expect("ctx origin")),
            flow: u64::from_le_bytes(buf[4..12].try_into().expect("ctx flow")),
            send_ns: u64::from_le_bytes(buf[12..20].try_into().expect("ctx send_ns")),
        }
    }
}

/// One decoded parcel: its causal-tracing context plus the wire body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedParcel {
    /// Trace context stamped by the sender.
    pub ctx: TraceCtx,
    /// Wire-encoded parcel payload.
    pub body: Vec<u8>,
}

/// Framing failures (a desynchronized or corrupt stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with [`FRAME_MAGIC`].
    BadMagic(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A single frame claiming a parcel count other than 1.
    BadCount(u32),
    /// A length prefix exceeding the sanity bound.
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadKind(k) => write!(f, "bad frame kind {k}"),
            FrameError::BadCount(c) => write!(f, "single frame with count {c}"),
            FrameError::Oversized(n) => write!(f, "parcel length {n} exceeds sanity bound"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Sanity bound on one parcel's length (a level-4 halo exchange is ~1 MiB;
/// anything near 1 GiB is a desynchronized stream, not a parcel).
pub const MAX_PARCEL_BYTES: u32 = 1 << 30;

fn put_header(out: &mut BytesMut, kind: u8, count: u32) {
    out.put_u16_le(FRAME_MAGIC);
    out.put_u8(kind);
    out.put_u32_le(count);
}

/// Frame one parcel with its trace context.
pub fn encode_single(parcel: &[u8], ctx: TraceCtx) -> Bytes {
    let mut out = BytesMut::with_capacity(
        FRAME_HEADER_BYTES + PARCEL_LEN_BYTES + TRACE_CTX_BYTES + parcel.len(),
    );
    put_header(&mut out, KIND_SINGLE, 1);
    out.put_u32_le(parcel.len() as u32);
    ctx.put(&mut out);
    out.put_slice(parcel);
    out.freeze()
}

/// Frame a coalesced batch. Panics on an empty batch (the coalescer never
/// flushes an empty queue).
pub fn encode_batch(parcels: &[(Bytes, TraceCtx)]) -> Bytes {
    assert!(!parcels.is_empty(), "cannot frame an empty batch");
    let body: usize = parcels
        .iter()
        .map(|(p, _)| PARCEL_LEN_BYTES + TRACE_CTX_BYTES + p.len())
        .sum();
    let mut out = BytesMut::with_capacity(FRAME_HEADER_BYTES + body);
    put_header(&mut out, KIND_BATCH, parcels.len() as u32);
    for (p, ctx) in parcels {
        out.put_u32_le(p.len() as u32);
        ctx.put(&mut out);
        out.put_slice(p);
    }
    out.freeze()
}

/// Parcel count carried by a frame — a cheap header peek used by port
/// statistics (0 for a buffer too short to hold a header).
pub fn decode_parcel_count(frame: &[u8]) -> u64 {
    if frame.len() < FRAME_HEADER_BYTES {
        return 0;
    }
    u64::from(u32::from_le_bytes([frame[3], frame[4], frame[5], frame[6]]))
}

/// Trace contexts of every parcel in a complete frame — a header walk that
/// skips the bodies, so the send side can emit flow-start events without
/// decoding payloads. Returns an empty list on a malformed frame (the
/// receive path reports the real error).
pub fn trace_ctxs(frame: &[u8]) -> Vec<TraceCtx> {
    let count = decode_parcel_count(frame) as usize;
    // The header's count is the peer's claim; reserve only what the frame's
    // length can hold.
    let mut out = Vec::with_capacity(count.min(frame.len() / (PARCEL_LEN_BYTES + TRACE_CTX_BYTES)));
    let mut at = FRAME_HEADER_BYTES;
    for _ in 0..count {
        if frame.len() < at + PARCEL_LEN_BYTES + TRACE_CTX_BYTES {
            return Vec::new();
        }
        let len = u32::from_le_bytes(frame[at..at + 4].try_into().expect("len prefix")) as usize;
        out.push(TraceCtx::read(&frame[at + PARCEL_LEN_BYTES..]));
        at += PARCEL_LEN_BYTES + TRACE_CTX_BYTES + len;
    }
    out
}

/// Decode one complete frame into its parcels (the non-streaming path used
/// by the in-process receive loop, which gets whole frames).
pub fn decode_frame(frame: &[u8]) -> Result<Vec<DecodedParcel>, FrameError> {
    let mut dec = FrameDecoder::new();
    dec.feed(frame)
}

/// Incremental frame decoder for streamed input.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Parcels still expected in the frame being decoded (None: at a
    /// frame boundary, the next bytes are a header).
    remaining_in_frame: Option<u32>,
}

impl FrameDecoder {
    /// Fresh decoder positioned at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered but not yet assembled into a parcel.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Whether the decoder sits exactly at a frame boundary with nothing
    /// buffered (a cleanly terminated stream).
    pub fn is_clean(&self) -> bool {
        self.buf.is_empty() && self.remaining_in_frame.is_none()
    }

    /// Feed a chunk of stream bytes; returns every parcel completed by
    /// this chunk (possibly none, possibly spanning several frames).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<DecodedParcel>, FrameError> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        loop {
            match self.remaining_in_frame {
                None => {
                    // Need a full header to proceed.
                    if self.buf.len() < FRAME_HEADER_BYTES {
                        return Ok(out);
                    }
                    let magic = u16::from_le_bytes([self.buf[0], self.buf[1]]);
                    if magic != FRAME_MAGIC {
                        return Err(FrameError::BadMagic(magic));
                    }
                    let kind = self.buf[2];
                    let count =
                        u32::from_le_bytes([self.buf[3], self.buf[4], self.buf[5], self.buf[6]]);
                    match kind {
                        KIND_SINGLE if count != 1 => return Err(FrameError::BadCount(count)),
                        KIND_SINGLE | KIND_BATCH => {}
                        other => return Err(FrameError::BadKind(other)),
                    }
                    self.buf.drain(..FRAME_HEADER_BYTES);
                    self.remaining_in_frame = Some(count);
                }
                Some(0) => {
                    self.remaining_in_frame = None;
                }
                Some(n) => {
                    // Need the length prefix *and* the trace context before
                    // the body length is actionable — a chunk boundary may
                    // fall anywhere inside either.
                    if self.buf.len() < PARCEL_LEN_BYTES + TRACE_CTX_BYTES {
                        return Ok(out);
                    }
                    let len =
                        u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
                    if len > MAX_PARCEL_BYTES {
                        return Err(FrameError::Oversized(len));
                    }
                    let need = PARCEL_LEN_BYTES + TRACE_CTX_BYTES + len as usize;
                    if self.buf.len() < need {
                        return Ok(out);
                    }
                    let ctx = TraceCtx::read(&self.buf[PARCEL_LEN_BYTES..]);
                    out.push(DecodedParcel {
                        ctx,
                        body: self.buf[PARCEL_LEN_BYTES + TRACE_CTX_BYTES..need].to_vec(),
                    });
                    self.buf.drain(..need);
                    self.remaining_in_frame = Some(n - 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(origin: u32, flow: u64, send_ns: u64) -> TraceCtx {
        TraceCtx {
            origin,
            flow,
            send_ns,
        }
    }

    fn bodies(parcels: &[DecodedParcel]) -> Vec<Vec<u8>> {
        parcels.iter().map(|p| p.body.clone()).collect()
    }

    #[test]
    fn single_roundtrip() {
        let frame = encode_single(b"hello parcel", ctx(3, 77, 123_456));
        assert_eq!(
            frame.len(),
            FRAME_HEADER_BYTES + PARCEL_LEN_BYTES + TRACE_CTX_BYTES + 12
        );
        let parcels = decode_frame(&frame).unwrap();
        assert_eq!(bodies(&parcels), vec![b"hello parcel".to_vec()]);
        assert_eq!(parcels[0].ctx, ctx(3, 77, 123_456));
        assert_eq!(trace_ctxs(&frame), vec![ctx(3, 77, 123_456)]);
    }

    #[test]
    fn batch_roundtrip_preserves_order_and_contexts() {
        let parcels: Vec<(Bytes, TraceCtx)> = vec![
            (Bytes::from(&b"a"[..]), ctx(0, 1, 10)),
            (Bytes::from(&b""[..]), ctx(0, 2, 20)),
            (Bytes::from(&b"ccc"[..]), ctx(1, 3, 30)),
        ];
        let frame = encode_batch(&parcels);
        let out = decode_frame(&frame).unwrap();
        assert_eq!(
            bodies(&out),
            vec![b"a".to_vec(), b"".to_vec(), b"ccc".to_vec()]
        );
        let ctxs: Vec<TraceCtx> = out.iter().map(|p| p.ctx).collect();
        assert_eq!(ctxs, vec![ctx(0, 1, 10), ctx(0, 2, 20), ctx(1, 3, 30)]);
        assert_eq!(trace_ctxs(&frame), ctxs);
    }

    #[test]
    fn stamp_allocates_unique_flow_ids() {
        let a = TraceCtx::stamp(0);
        let b = TraceCtx::stamp(1);
        assert_ne!(a.flow, b.flow);
        assert_eq!(b.origin, 1);
    }

    #[test]
    fn decoder_handles_byte_at_a_time_input() {
        let frame = encode_batch(&[
            (Bytes::from(&b"xy"[..]), ctx(0, 9, 90)),
            (Bytes::from(&b"z"[..]), ctx(0, 10, 91)),
        ]);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in frame.iter() {
            got.extend(dec.feed(&[*b]).unwrap());
        }
        assert_eq!(bodies(&got), vec![b"xy".to_vec(), b"z".to_vec()]);
        assert_eq!(got[1].ctx, ctx(0, 10, 91));
        assert!(dec.is_clean());
    }

    #[test]
    fn trace_ctx_split_across_two_chunk_boundaries() {
        // Regression: cut the stream twice *inside* the 20-byte trace
        // context — the decoder must hold state across both boundaries and
        // still deliver the exact ctx + body.
        let frame = encode_single(b"split me", ctx(2, 0xDEAD_BEEF_CAFE, 42));
        let ctx_start = FRAME_HEADER_BYTES + PARCEL_LEN_BYTES;
        let cut1 = ctx_start + 5; // 5 bytes into the ctx
        let cut2 = ctx_start + 17; // 17 bytes in: still 3 short of the body
        let mut dec = FrameDecoder::new();
        assert!(dec.feed(&frame[..cut1]).unwrap().is_empty());
        assert!(dec.feed(&frame[cut1..cut2]).unwrap().is_empty());
        assert!(!dec.is_clean());
        let got = dec.feed(&frame[cut2..]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ctx, ctx(2, 0xDEAD_BEEF_CAFE, 42));
        assert_eq!(got[0].body, b"split me".to_vec());
        assert!(dec.is_clean());
    }

    #[test]
    fn decoder_spans_multiple_frames_in_one_chunk() {
        let mut stream = encode_single(b"one", ctx(0, 1, 1)).to_vec();
        stream.extend_from_slice(&encode_batch(&[(Bytes::from(&b"two"[..]), ctx(0, 2, 2))]));
        let mut dec = FrameDecoder::new();
        let got = dec.feed(&stream).unwrap();
        assert_eq!(bodies(&got), vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(dec.is_clean());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_single(b"p", TraceCtx::default()).to_vec();
        frame[0] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn bad_kind_and_count_rejected() {
        let mut frame = encode_single(b"p", TraceCtx::default()).to_vec();
        frame[2] = 9;
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadKind(9))));
        let mut frame = encode_single(b"p", TraceCtx::default()).to_vec();
        frame[3] = 2; // single frame claiming two parcels
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadCount(2))));
        // A bare header claiming u32::MAX parcels: the send-side walk must
        // not reserve 80 GB for them before finding the frame too short.
        let mut header = encode_single(b"", TraceCtx::default())[..FRAME_HEADER_BYTES].to_vec();
        header[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_parcel_count(&header), u64::from(u32::MAX));
        assert!(trace_ctxs(&header).is_empty());
    }

    #[test]
    fn truncated_frame_yields_nothing_but_keeps_state() {
        let frame = encode_single(b"payload", ctx(1, 5, 50));
        let mut dec = FrameDecoder::new();
        let cut = frame.len() - 3;
        assert!(dec.feed(&frame[..cut]).unwrap().is_empty());
        assert!(!dec.is_clean());
        let got = dec.feed(&frame[cut..]).unwrap();
        assert_eq!(bodies(&got), vec![b"payload".to_vec()]);
        assert_eq!(got[0].ctx, ctx(1, 5, 50));
        assert!(dec.is_clean());
    }
}
