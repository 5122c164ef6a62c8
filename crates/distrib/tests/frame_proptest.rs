//! Property tests for the full parcel wire path: serialize → frame →
//! (split) deframe → deserialize, over arbitrary parcels, arbitrary
//! single/batch frame mixes, arbitrary trace contexts, and arbitrary
//! stream chunking — the invariant every parcelport relies on — and the
//! wire decoder against input nobody encoded: it returns, and it asks the
//! allocator for no more than a constant multiple of what it was handed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use distrib::frame::{encode_batch, encode_single, DecodedParcel, FrameDecoder, TraceCtx};
use distrib::{from_bytes, to_bytes, Agas, LocalityId, ParcelMsg, Wire};
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
        arb_parcel().prop_map(|p| p.to_wire().unwrap().to_vec()),
        halo.prop_map(|h: Halo| to_bytes(&h).unwrap().to_vec()),
        blocks.prop_map(|b: Blocks| to_bytes(&b).unwrap().to_vec()),
    ]
}

/// Decoding `bytes` as each message type returns — with `Ok` or `Err`, both
/// are answers — having requested at most `8 × bytes.len()` bytes of memory.
/// (The widest element, a `Blocks` entry, is 104 bytes in memory for at
/// least 24 on the wire; the vectors inside it cost what they consumed.)
fn decodes_within_bounds(bytes: &[u8]) -> Result<(), TestCaseError> {
    fn requested_by<T: Wire>(bytes: &[u8]) -> usize {
        REQUESTED.with(|r| r.set(0));
        drop(from_bytes::<T>(bytes));
        REQUESTED.with(Cell::get)
    }
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

/// Feed `stream` to a fresh decoder, split at the (deduplicated, sorted)
/// cut points, and return every parcel it yields. Checks the decoder
/// ends cleanly at a frame boundary.
fn feed_split(stream: &[u8], cuts: &[usize]) -> Vec<DecodedParcel> {
    let mut idx: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    idx.sort_unstable();
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    let mut prev = 0;
    for i in idx {
        got.extend(dec.feed(&stream[prev..i]).expect("valid stream"));
        prev = i;
    }
    got.extend(dec.feed(&stream[prev..]).expect("valid stream"));
    assert!(dec.is_clean(), "stream must end on a frame boundary");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// wire encode/decode alone is lossless for any parcel.
    #[test]
    fn parcel_wire_roundtrip(p in arb_parcel()) {
        let bytes = p.to_wire().unwrap();
        prop_assert_eq!(ParcelMsg::from_wire(&bytes).unwrap(), p);
    }

    /// A stream of single-parcel frames survives arbitrary chunk splits,
    /// parcel and trace context both intact.
    #[test]
    fn single_frames_roundtrip_under_any_split(
        parcels in proptest::collection::vec((arb_parcel(), arb_ctx()), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut stream = Vec::new();
        for (p, ctx) in &parcels {
            stream.extend_from_slice(&encode_single(&p.to_wire().unwrap(), *ctx));
        }
        let decoded = feed_split(&stream, &cuts);
        prop_assert_eq!(decoded.len(), parcels.len());
        for (d, (p, ctx)) in decoded.iter().zip(&parcels) {
            prop_assert_eq!(&ParcelMsg::from_wire(&d.body).unwrap(), p);
            prop_assert_eq!(&d.ctx, ctx);
        }
    }

    /// One coalesced batch frame survives byte-at-a-time delivery.
    #[test]
    fn batch_frame_roundtrips_byte_at_a_time(
        parcels in proptest::collection::vec((arb_parcel(), arb_ctx()), 1..10),
    ) {
        let wires: Vec<(Bytes, TraceCtx)> = parcels
            .iter()
            .map(|(p, ctx)| (p.to_wire().unwrap(), *ctx))
            .collect();
        let frame = encode_batch(&wires);
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in frame.iter() {
            decoded.extend(dec.feed(&[*b]).unwrap());
        }
        prop_assert!(dec.is_clean());
        prop_assert_eq!(decoded.len(), parcels.len());
        for (d, (p, ctx)) in decoded.iter().zip(&parcels) {
            prop_assert_eq!(&ParcelMsg::from_wire(&d.body).unwrap(), p);
            prop_assert_eq!(&d.ctx, ctx);
        }
    }

    /// A mixed stream of single and batch frames — what a coalescing sender
    /// actually produces — preserves parcel order under arbitrary splits.
    #[test]
    fn mixed_frame_stream_preserves_order(
        groups in proptest::collection::vec(
            proptest::collection::vec((arb_parcel(), arb_ctx()), 1..5), 1..5),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for group in &groups {
            let wires: Vec<(Bytes, TraceCtx)> = group
                .iter()
                .map(|(p, ctx)| (p.to_wire().unwrap(), *ctx))
                .collect();
            // The coalescer frames a lone survivor as a single, a fuller
            // queue as a batch: mirror that here.
            if wires.len() == 1 {
                stream.extend_from_slice(&encode_single(&wires[0].0, wires[0].1));
            } else {
                stream.extend_from_slice(&encode_batch(&wires));
            }
            expected.extend(group.iter().cloned());
        }
        let decoded = feed_split(&stream, &cuts);
        let out: Vec<(ParcelMsg, TraceCtx)> = decoded
            .iter()
            .map(|d| (ParcelMsg::from_wire(&d.body).unwrap(), d.ctx))
            .collect();
        prop_assert_eq!(out, expected);
    }

    /// Bytes nobody encoded. Most die at the first count; a small leading
    /// `u32` gets some of them past it.
    #[test]
    fn arbitrary_bytes_decode_within_bounds(
        small in 0..4u32,
        tail in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decodes_within_bounds(&tail)?;
        let mut headed = small.to_le_bytes().to_vec();
        headed.extend_from_slice(&tail);
        decodes_within_bounds(&headed)?;
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
