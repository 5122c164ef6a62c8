//! Property tests for the full parcel wire path: serialize → frame →
//! deframe → deserialize, over arbitrary parcels and trace contexts — the
//! invariant every parcelport relies on — and both decoders against input
//! nobody encoded: they return, the wire decoder having asked the allocator
//! for no more than a constant multiple of what it was handed and the frame
//! decoder for nothing. The cluster's in-place path writes and reads the
//! same bytes: its frames equal the framed `ParcelMsg` images, and its
//! reader answers what `ParcelMsg::from_wire` answers, on any input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distrib::frame::{self, FrameError, TraceCtx};
use distrib::{from_bytes, to_bytes, Agas, LocalityId, Parcel, ParcelMsg, Wire};
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

/// Arbitrary parcels. Gids come out of a real `Agas` so they carry the same
/// creator/sequence bit packing production gids have.
fn arb_parcel() -> impl Strategy<Value = ParcelMsg> {
    let request = (
        0..64u32,
        0..64u32,
        0..200u64,
        ".{0,24}",
        proptest::collection::vec(any::<u8>(), 0..2048),
        any::<u64>(),
    )
        .prop_map(|(from, creator, skip, action, payload, call_id)| {
            let agas = Agas::new();
            for _ in 0..skip {
                agas.new_gid(LocalityId(creator));
            }
            ParcelMsg::Request {
                from: LocalityId(from),
                target: agas.new_gid(LocalityId(creator)),
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
        .prop_map(|(call_id, result)| ParcelMsg::Response { call_id, result });
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
        arb_parcel().prop_map(|p| p.to_wire().unwrap()),
        halo.prop_map(|h: Halo| to_bytes(&h).unwrap()),
        blocks.prop_map(|b: Blocks| to_bytes(&b).unwrap()),
    ]
}

/// The parcel read in place from `bytes` is what `ParcelMsg::from_wire`
/// reads: the same parcel, or the same error.
fn reads_in_place_as_parcel_msg(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        Parcel::read(bytes).map(ParcelMsg::from),
        ParcelMsg::from_wire(bytes)
    );
    Ok(())
}

/// Decoding `bytes` as each message type returns — with `Ok` or `Err`, both
/// are answers — having requested at most `8 × bytes.len()` bytes of memory.
/// (The widest element, a `Blocks` entry, is 104 bytes in memory for at
/// least 24 on the wire; the vectors inside it cost what they consumed.)
/// Reading them as a frame returns too, and requests none; the in-place
/// parcel reader agrees with `ParcelMsg`'s on them and on a frame's body.
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
        reads_in_place_as_parcel_msg(body)?;
    }
    reads_in_place_as_parcel_msg(bytes)?;
    for (ty, requested) in [
        ("ParcelMsg", requested_by::<ParcelMsg>(bytes)),
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

    /// wire encode/decode alone is lossless for any parcel.
    #[test]
    fn parcel_wire_roundtrip(p in arb_parcel()) {
        let bytes = p.to_wire().unwrap();
        prop_assert_eq!(ParcelMsg::from_wire(&bytes).unwrap(), p);
    }

    /// The in-place writers frame a parcel byte for byte as `frame::encode`
    /// frames its `ParcelMsg` image, and the in-place reader reads it back.
    #[test]
    fn in_place_frames_are_the_framed_parcel_images(p in arb_parcel(), ctx in arb_ctx()) {
        let in_place = match &p {
            ParcelMsg::Request { from, target, action, payload, call_id } => {
                let image = |out: &mut _| u8::encode_slice(payload, out);
                frame::request(ctx, *from, *target, action, *call_id, payload.len(), image)
                    .unwrap()
            }
            ParcelMsg::Response { call_id, result } => frame::response(ctx, *call_id, |out| {
                match result {
                    Ok(image) => {
                        u8::encode_slice(image, out);
                        Ok(())
                    }
                    Err(why) => Err(why.clone()),
                }
            }),
        };
        prop_assert_eq!(&in_place, &frame::encode(&p.to_wire().unwrap(), ctx));
        let (_, body) = frame::decode(&in_place).unwrap();
        prop_assert_eq!(ParcelMsg::from(Parcel::read(body).unwrap()), p);
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
        let framed = frame::encode(&p.to_wire().unwrap(), ctx);
        let (got, body) = frame::decode(&framed).unwrap();
        prop_assert_eq!(got, ctx);
        prop_assert_eq!(ParcelMsg::from_wire(body).unwrap(), p);
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
