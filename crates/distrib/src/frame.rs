//! Parcel framing — the byte layout parcelports put on the wire.
//!
//! One frame carries one parcel:
//!
//! ```text
//! magic   u16  = 0x0C7E            (rejects desynchronized streams)
//! kind    u8   = 1
//! count   u32  (LE) = 1
//! len     u32  (LE)               body length (ctx not included)
//! origin  u32  (LE)  ┐
//! flow    u64  (LE)  ├ TraceCtx — causal-tracing header, 20 bytes
//! send_ns u64  (LE)  ┘
//! body    len bytes               one wire-encoded parcel
//! ```
//!
//! `kind` and `count` are constants: they are what is left of a second,
//! multi-parcel frame kind, kept so that no byte on the wire — and no
//! counter that sums wire bytes — moved when it went.
//!
//! Every parcel carries a [`TraceCtx`] — origin locality, process-unique
//! flow id, and send timestamp — so the receive side can emit the matching
//! half of a Chrome flow arrow and record the one-way latency without any
//! side channel. The context is wire state, not payload: `len` counts the
//! body only.
//!
//! The cluster writes a frame in place — [`request`] and [`response`] write
//! the header with a zero `len`, the trace context and the parcel, then
//! patch `len` — and [`encode`] frames a parcel image that already exists;
//! the bytes are the same. Every port delivers whole frames, so [`decode`]
//! takes one complete frame and borrows the body out of it; anything else —
//! cut short, too long, a header field off — is a [`FrameError`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::agas::{Gid, LocalityId};
use crate::parcel;
use crate::wire::{Wire, WireError, Writer};

/// Frame magic (two bytes, little-endian on the wire).
pub(crate) const FRAME_MAGIC: u16 = 0x0C7E;

/// Fixed per-frame header size: magic + kind + count.
pub const FRAME_HEADER_BYTES: usize = 7;

/// The parcel's length prefix inside a frame.
pub(crate) const PARCEL_LEN_BYTES: usize = 4;

/// The parcel's trace context carried after the length prefix:
/// origin `u32` + flow id `u64` + send timestamp `u64`.
pub(crate) const TRACE_CTX_BYTES: usize = 20;

/// The only frame kind.
const FRAME_KIND: u8 = 1;

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
    pub(crate) fn stamp(origin: u32) -> Self {
        TraceCtx {
            origin,
            flow: NEXT_FLOW.fetch_add(1, Ordering::Relaxed),
            send_ns: apex_lite::trace::now_ns(),
        }
    }
}

/// Why a buffer is not a frame (a desynchronized or corrupt stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does — what every strict prefix of
    /// a valid frame is.
    Truncated,
    /// The buffer does not start with [`FRAME_MAGIC`].
    BadMagic(u16),
    /// A frame kind other than 1.
    BadKind(u8),
    /// A parcel count other than 1.
    BadCount(u32),
    /// A length prefix exceeding [`MAX_PARCEL_BYTES`].
    Oversized(u32),
    /// This many bytes follow the body the length prefix announced.
    TrailingBytes(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame cut short"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadKind(k) => write!(f, "bad frame kind {k}"),
            FrameError::BadCount(c) => write!(f, "frame with parcel count {c}"),
            FrameError::Oversized(n) => write!(f, "parcel length {n} exceeds sanity bound"),
            FrameError::TrailingBytes(n) => write!(f, "{n} bytes after the parcel body"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Sanity bound on one parcel's length (a level-4 halo exchange is ~1 MiB;
/// anything near 1 GiB is a desynchronized stream, not a parcel).
pub(crate) const MAX_PARCEL_BYTES: u32 = 1 << 30;

/// Bytes in front of the body: header, length prefix, trace context.
pub(crate) const BODY_AT: usize = FRAME_HEADER_BYTES + PARCEL_LEN_BYTES + TRACE_CTX_BYTES;

/// Write one frame in place: the header with a zero `len`, the trace
/// context, then what `body` writes — and patch `len` to that body's length.
fn framed(ctx: TraceCtx, capacity: usize, body: impl FnOnce(&mut Writer)) -> Writer {
    let mut out = Writer::with_capacity(BODY_AT + capacity);
    FRAME_MAGIC.encode(&mut out);
    FRAME_KIND.encode(&mut out);
    1u32.encode(&mut out);
    0u32.encode(&mut out);
    ctx.origin.encode(&mut out);
    ctx.flow.encode(&mut out);
    ctx.send_ns.encode(&mut out);
    body(&mut out);
    let len = out.len() - BODY_AT;
    out.patch_u32(FRAME_HEADER_BYTES, len as u32);
    out
}

/// Room a frame starts with: enough for the small parcels (a `u64`
/// argument and its reply) never to grow.
const SMALL_PARCEL_BYTES: usize = 96;

/// Frame one parcel with its trace context.
pub fn encode(parcel: &[u8], ctx: TraceCtx) -> Vec<u8> {
    let out = framed(ctx, parcel.len(), |out| out.bytes(parcel));
    out.finish().expect("raw bytes carry no count")
}

/// Frame a request parcel in place: its fields, and the image `arg` writes
/// — `arg_len` bytes, which the frame makes room for up front — behind a
/// count patched afterwards. The bytes are [`encode`]'s of the
/// [`ParcelMsg::Request`](crate::ParcelMsg::Request) image whose payload is
/// that image; no payload or parcel buffer is built on the way. Fails when
/// a count does not fit its `u32` prefix.
pub fn request(
    ctx: TraceCtx,
    from: LocalityId,
    target: Gid,
    action: &str,
    call_id: u64,
    arg_len: usize,
    arg: impl FnOnce(&mut Writer),
) -> Result<Vec<u8>, WireError> {
    framed(ctx, SMALL_PARCEL_BYTES, |out| {
        parcel::write_request(out, from, target, action, call_id, arg_len, arg)
    })
    .finish()
}

/// Frame a response parcel in place: `result` writes the result's image, or
/// says why there is none (see
/// [`ParcelMsg::Response`](crate::ParcelMsg::Response)); a failure, or an
/// image whose count does not fit its prefix, travels as the `Err` arm.
pub fn response(
    ctx: TraceCtx,
    call_id: u64,
    result: impl FnOnce(&mut Writer) -> Result<(), String>,
) -> Vec<u8> {
    framed(ctx, SMALL_PARCEL_BYTES, |out| {
        parcel::write_response(out, call_id, result)
    })
    .finish()
    .expect("a failure description fits its count")
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FrameError> {
    let (head, rest) = buf.split_first_chunk().ok_or(FrameError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Read one complete frame: its trace context and its body, borrowed. Total
/// over arbitrary input — the peer wrote these bytes — and allocates nothing;
/// each header field is checked as soon as the buffer is long enough to hold
/// it, so a prefix of a valid frame is [`FrameError::Truncated`] and nothing
/// else.
pub fn decode(frame: &[u8]) -> Result<(TraceCtx, &[u8]), FrameError> {
    let mut rest = frame;
    let magic = u16::from_le_bytes(take(&mut rest)?);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let [kind] = take(&mut rest)?;
    if kind != FRAME_KIND {
        return Err(FrameError::BadKind(kind));
    }
    let count = u32::from_le_bytes(take(&mut rest)?);
    if count != 1 {
        return Err(FrameError::BadCount(count));
    }
    let len = u32::from_le_bytes(take(&mut rest)?);
    if len > MAX_PARCEL_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let ctx = TraceCtx {
        origin: u32::from_le_bytes(take(&mut rest)?),
        flow: u64::from_le_bytes(take(&mut rest)?),
        send_ns: u64::from_le_bytes(take(&mut rest)?),
    };
    match rest.len().checked_sub(len as usize) {
        None => Err(FrameError::Truncated),
        Some(0) => Ok((ctx, rest)),
        Some(extra) => Err(FrameError::TrailingBytes(extra)),
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

    #[test]
    fn roundtrip_borrows_the_body() {
        let frame = encode(b"hello parcel", ctx(3, 77, 123_456));
        assert_eq!(
            frame.len(),
            FRAME_HEADER_BYTES + PARCEL_LEN_BYTES + TRACE_CTX_BYTES + 12
        );
        let (got, body) = decode(&frame).unwrap();
        assert_eq!(got, ctx(3, 77, 123_456));
        assert_eq!(body, b"hello parcel");
        assert!(std::ptr::eq(body, &frame[frame.len() - 12..]));
        // An empty body is a frame too.
        assert_eq!(
            decode(&encode(b"", ctx(0, 1, 2))),
            Ok((ctx(0, 1, 2), &b""[..]))
        );
    }

    #[test]
    fn stamp_allocates_unique_flow_ids() {
        let a = TraceCtx::stamp(0);
        let b = TraceCtx::stamp(1);
        assert_ne!(a.flow, b.flow);
        assert_eq!(b.origin, 1);
    }

    #[test]
    fn every_strict_prefix_is_truncated() {
        let frame = encode(b"payload", ctx(1, 5, 50));
        for cut in 0..frame.len() {
            assert_eq!(decode(&frame[..cut]), Err(FrameError::Truncated), "{cut}");
        }
    }

    #[test]
    fn each_bad_field_has_its_own_error() {
        let good = encode(b"p", TraceCtx::default());
        let with = |at: usize, bytes: &[u8]| {
            let mut frame = good.clone();
            frame[at..at + bytes.len()].copy_from_slice(bytes);
            frame
        };
        assert_eq!(
            decode(&with(0, &[0x81, 0xF3])),
            Err(FrameError::BadMagic(0xF381))
        );
        assert_eq!(decode(&with(2, &[2])), Err(FrameError::BadKind(2)));
        assert_eq!(decode(&with(3, &[2])), Err(FrameError::BadCount(2)));
        assert_eq!(decode(&with(3, &[0])), Err(FrameError::BadCount(0)));
        let over = MAX_PARCEL_BYTES + 1;
        assert_eq!(
            decode(&with(FRAME_HEADER_BYTES, &over.to_le_bytes())),
            Err(FrameError::Oversized(over))
        );
        // The largest length allowed, with one byte behind it, is a short frame.
        assert_eq!(
            decode(&with(FRAME_HEADER_BYTES, &MAX_PARCEL_BYTES.to_le_bytes())),
            Err(FrameError::Truncated)
        );
        let mut long = good.clone();
        long.extend_from_slice(b"xyz");
        assert_eq!(decode(&long), Err(FrameError::TrailingBytes(3)));
        // A second frame behind the first is trailing bytes, not a stream.
        assert_eq!(
            decode(&[good.clone(), good.clone()].concat()),
            Err(FrameError::TrailingBytes(good.len()))
        );
    }
}
