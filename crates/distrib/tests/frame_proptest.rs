//! Property tests for the full parcel wire path: write in place → frame →
//! deframe → read in place, over arbitrary parcels and trace contexts — the
//! invariant every parcelport relies on — and the decoders against input
//! nobody encoded: they return, the wire decoder having asked the allocator
//! for no more than a constant multiple of what it was handed, and the frame
//! decoder and the in-place parcel reader for nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distrib::frame::{self, FrameError, TraceCtx};
use distrib::{from_bytes, to_bytes, Gid, LocalityId, Parcel, Wire};
use proptest::prelude::*;

thread_local! {
    /// Bytes the calling thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System`; the bookkeeping is a `Cell` in a const-init
// thread-local without a destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A parcel, owned: what [`Parcel`] reads in place, copied out.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Request {
        from: LocalityId,
        target: Gid,
        action: String,
        payload: Vec<u8>,
        call_id: u64,
    },
    Response {
        call_id: u64,
        result: Result<Vec<u8>, String>,
    },
}

impl Msg {
    /// Frame it with the cluster's in-place writers.
    fn frame(&self, ctx: TraceCtx) -> Vec<u8> {
        match self {
            Msg::Request {
                from,
                target,
                action,
                payload,
                call_id,
            } => {
                let image = |out: &mut _| u8::encode_slice(payload, out);
                frame::request(ctx, *from, *target, action, *call_id, payload.len(), image).unwrap()
            }
            Msg::Response { call_id, result } => {
                frame::response(ctx, *call_id, |out| match result {
                    Ok(image) => {
                        u8::encode_slice(image, out);
                        Ok(())
                    }
                    Err(why) => Err(why.clone()),
                })
            }
        }
    }

    /// Its parcel's image: the body of its frame.
    fn image(&self) -> Vec<u8> {
        frame::decode(&self.frame(TraceCtx::default()))
            .unwrap()
            .1
            .to_vec()
    }
}

impl From<Parcel<'_>> for Msg {
    fn from(parcel: Parcel<'_>) -> Self {
        match parcel {
            Parcel::Request {
                from,
                target,
                action,
                payload,
                call_id,
            } => Msg::Request {
                from,
                target,
                action: action.to_owned(),
                payload: payload.to_vec(),
                call_id,
            },
            Parcel::Response { call_id, result } => Msg::Response {
                call_id,
                result: result.map(<[u8]>::to_vec).map_err(str::to_owned),
            },
        }
    }
}

/// Arbitrary parcels. Gids carry the creator/sequence bit packing
/// production gids have.
fn arb_parcel() -> impl Strategy<Value = Msg> {
    let request = (
        0..64u32,
        0..64u32,
        0..200u64,
        ".{0,24}",
        proptest::collection::vec(any::<u8>(), 0..2048),
        any::<u64>(),
    )
        .prop_map(|(from, creator, seq, action, payload, call_id)| {
            let raw = (u64::from(creator) << 48) | seq;
            Msg::Request {
                from: LocalityId(from),
                target: from_bytes::<Gid>(&raw.to_le_bytes()).expect("a gid"),
                action,
                payload,
                call_id,
            }
        });
    let response = (
        any::<u64>(),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..2048).prop_map(Ok),
            ".{0,80}".prop_map(Err),
        ],
    )
        .prop_map(|(call_id, result)| Msg::Response { call_id, result });
    prop_oneof![request, response]
}

/// The halo and gravity-block messages of `octotiger::dist_driver`, by shape.
type Halo = Vec<(u64, Vec<f64>)>;
type Blocks = Vec<(u64, [Vec<f64>; 4])>;

fn arb_lane() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(any::<f64>(), 0..24)
}

/// A valid image of one of the three message types.
fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    let halo = proptest::collection::vec((any::<u64>(), arb_lane()), 0..6);
    let lanes = (arb_lane(), arb_lane(), arb_lane(), arb_lane());
    let blocks = proptest::collection::vec(
        (any::<u64>(), lanes.prop_map(|(m, x, y, z)| [m, x, y, z])),
        0..4,
    );
    prop_oneof![
        arb_parcel().prop_map(|p| p.image()),
        halo.prop_map(|h: Halo| to_bytes(&h).unwrap()),
        blocks.prop_map(|b: Blocks| to_bytes(&b).unwrap()),
    ]
}

/// Reading `bytes` as a parcel returns, and requests no memory.
fn reads_in_place(bytes: &[u8]) -> Result<(), TestCaseError> {
    REQUESTED.with(|r| r.set(0));
    let _ = Parcel::read(bytes);
    prop_assert_eq!(REQUESTED.with(Cell::get), 0, "Parcel::read allocated");
    Ok(())
}

/// Decoding `bytes` as each message type returns — with `Ok` or `Err`, both
/// are answers — having requested at most `8 × bytes.len()` bytes of memory.
/// (The widest element, a `Blocks` entry, is 104 bytes in memory for at
/// least 24 on the wire; the vectors inside it cost what they consumed.)
/// Reading them as a frame, and them or a frame's body as a parcel, returns
/// too, and requests none.
fn decodes_within_bounds(bytes: &[u8]) -> Result<(), TestCaseError> {
    fn requested_by<T: Wire>(bytes: &[u8]) -> usize {
        REQUESTED.with(|r| r.set(0));
        let _: Result<T, _> = from_bytes(bytes);
        REQUESTED.with(Cell::get)
    }
    REQUESTED.with(|r| r.set(0));
    let framed = frame::decode(bytes);
    prop_assert_eq!(REQUESTED.with(Cell::get), 0, "frame::decode allocated");
    if let Ok((_, body)) = framed {
        prop_assert!(bytes.ends_with(body), "the body is borrowed from the input");
        reads_in_place(body)?;
    }
    reads_in_place(bytes)?;
    for (ty, requested) in [
        ("Halo", requested_by::<Halo>(bytes)),
        ("Blocks", requested_by::<Blocks>(bytes)),
    ] {
        prop_assert!(
            requested <= 8 * bytes.len(),
            "{ty}: {requested} bytes requested for {} bytes of input",
            bytes.len()
        );
    }
    Ok(())
}

/// Arbitrary wire trace contexts — any bit pattern must round-trip.
fn arb_ctx() -> impl Strategy<Value = TraceCtx> {
    (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(origin, flow, send_ns)| TraceCtx {
        origin,
        flow,
        send_ns,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A parcel's image reads back in place as the parcel, and the frame the
    /// writers build around it is `frame::encode`'s of that image.
    #[test]
    fn parcel_image_reads_back(p in arb_parcel(), ctx in arb_ctx()) {
        let image = p.image();
        prop_assert_eq!(Msg::from(Parcel::read(&image).unwrap()), p.clone());
        prop_assert_eq!(p.frame(ctx), frame::encode(&image, ctx));
    }

    /// A framed parcel comes back whole, parcel and trace context both, and
    /// damaging the frame is answered, never obeyed: a strict prefix is
    /// `Truncated`, an extension `TrailingBytes`, and a flipped byte goes
    /// through the same bounds as any other foreign input.
    #[test]
    fn framed_parcel_roundtrips_and_damage_is_refused(
        p in arb_parcel(),
        ctx in arb_ctx(),
        at in any::<usize>(),
        flip in 1..256u32,
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let framed = p.frame(ctx);
        let (got, body) = frame::decode(&framed).unwrap();
        prop_assert_eq!(got, ctx);
        prop_assert_eq!(Msg::from(Parcel::read(body).unwrap()), p);
        let at = at % framed.len();
        prop_assert_eq!(frame::decode(&framed[..at]), Err(FrameError::Truncated));
        let longer = [&framed[..], &extra[..]].concat();
        prop_assert_eq!(
            frame::decode(&longer),
            Err(FrameError::TrailingBytes(extra.len()))
        );
        let mut flipped = framed;
        flipped[at] ^= flip as u8;
        decodes_within_bounds(&flipped)?;
    }

    /// Bytes nobody encoded. Most die at the first count, or at the frame
    /// magic; a small leading `u32` gets some of them past the one, a valid
    /// frame header all of them past the other.
    #[test]
    fn arbitrary_bytes_decode_within_bounds(
        small in 0..4u32,
        tail in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decodes_within_bounds(&tail)?;
        decodes_within_bounds(&[&small.to_le_bytes()[..], &tail].concat())?;
        let header = &frame::encode(&[], TraceCtx::default())[..frame::FRAME_HEADER_BYTES];
        decodes_within_bounds(&[header, &tail].concat())?;
    }

    /// A valid image with one byte flipped, or cut short — read as its own
    /// type and as the other two.
    #[test]
    fn damaged_images_decode_within_bounds(
        image in arb_image(),
        at in any::<usize>(),
        flip in 1..256u32,
    ) {
        decodes_within_bounds(&image)?;
        let at = at % image.len();
        decodes_within_bounds(&image[..at])?;
        let mut flipped = image;
        flipped[at] ^= flip as u8;
        decodes_within_bounds(&flipped)?;
    }
}
