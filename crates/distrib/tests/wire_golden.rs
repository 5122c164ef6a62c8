//! Golden wire images: the exact bytes of one value of every shape the
//! workspace sends, and of one parcel in its frame. The format is a contract
//! with every counter that sums wire bytes (`parcel_storm`'s exact counts,
//! `dist_l3_2loc`'s `distrib.bytes`, the Fig. 8 projection): an encoder
//! change that moves one byte fails here first. Every image also decodes
//! back to its value.

use distrib::frame::{self, TraceCtx};
use distrib::{from_bytes, to_bytes, Gid, LocalityId, Parcel, Wire};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The gid of the cluster's `seq`-th component, created on `creator`: the
/// locality in the upper 16 bits, the sequence below.
fn gid(creator: u32, seq: u64) -> Gid {
    from_bytes(&((u64::from(creator) << 48) | seq).to_le_bytes()).expect("a gid")
}

/// `to_bytes(value)` is `image` (spaces are for the reader), and `image`
/// decodes to something that encodes to `image` again — a round trip that
/// also holds for NaN, which `==` would reject.
macro_rules! golden {
    ($value:expr, $ty:ty, $image:expr) => {{
        let value: $ty = $value;
        let bytes = to_bytes(&value).expect("encodes");
        assert_eq!(
            hex(&bytes),
            $image.replace(' ', ""),
            "image of {}",
            stringify!($value)
        );
        let back: $ty = from_bytes(&bytes).expect("decodes");
        assert_eq!(to_bytes(&back).expect("encodes"), bytes);
    }};
}

/// The body of a frame the cluster writes: its parcel's image, which reads
/// back in place as `parcel`.
fn parcel_image(framed: &[u8], parcel: Parcel) -> String {
    let (_, body) = frame::decode(framed).expect("a frame");
    assert_eq!(Parcel::read(body), Ok(parcel));
    hex(body)
}

#[test]
fn parcel_images() {
    let (target, payload) = (gid(3, 2), [1, 2, 3, 4, 255]);
    let call_id = 0x0102_0304_0506_0708;
    let image = |out: &mut _| u8::encode_slice(&payload, out);
    let framed = frame::request(ctx(), LocalityId(1), target, "step", call_id, 5, image);
    let request = Parcel::Request {
        from: LocalityId(1),
        target,
        action: "step",
        payload: &payload,
        call_id,
    };
    // variant u32 | from u32 | target u64 | action len+utf8 | payload len+bytes | call_id u64
    assert_eq!(
        parcel_image(&framed.expect("encodes"), request),
        "00000000 01000000 0200000000000300 04000000 73746570 05000000 01020304ff \
         0807060504030201"
            .replace(' ', "")
    );
    // variant u32 | call_id u64 | Result variant u32 | Ok: len+bytes / Err: len+utf8
    let ok = frame::response(ctx(), 7, |out| {
        u8::encode_slice(&[9, 8, 7], out);
        Ok(())
    });
    assert_eq!(
        parcel_image(
            &ok,
            Parcel::Response {
                call_id: 7,
                result: Ok(&[9, 8, 7])
            }
        ),
        "01000000 0700000000000000 00000000 03000000 090807".replace(' ', "")
    );
    let err = frame::response(ctx(), 7, |_| Err("no".into()));
    assert_eq!(
        parcel_image(
            &err,
            Parcel::Response {
                call_id: 7,
                result: Err("no")
            }
        ),
        "01000000 0700000000000000 01000000 02000000 6e6f".replace(' ', "")
    );
}

fn ctx() -> TraceCtx {
    TraceCtx {
        origin: 1,
        flow: 0x0102_0304_0506_0708,
        send_ns: 0x1122_3344_5566_7788,
    }
}

#[test]
fn framed_parcel_image() {
    // What a parcelport carries: magic u16 | kind u8 | count u32 | body len u32 |
    // origin u32 | flow u64 | send_ns u64 | body (the `Ok` response above).
    let framed = frame::response(ctx(), 7, |out| {
        u8::encode_slice(&[9, 8, 7], out);
        Ok(())
    });
    assert_eq!(
        hex(&framed),
        "7e0c 01 01000000 17000000 01000000 0807060504030201 8877665544332211 \
         01000000 0700000000000000 00000000 03000000 090807"
            .replace(' ', "")
    );
    let (got, body) = frame::decode(&framed).expect("a frame");
    assert_eq!(got, ctx());
    assert!(framed.ends_with(body) && body.len() == 0x17);
}

#[test]
fn step_argument_images() {
    // The `step` action's `(step index, peer)`: a bare `u64` and gid, a
    // one-byte option tag.
    golden!(
        (1, Some(gid(1, 0))),
        (u64, Option<Gid>),
        "0100000000000000 01 0000000000000100"
    );
    golden!((1, None), (u64, Option<Gid>), "0100000000000000 00");
}

#[test]
fn halo_and_block_images() {
    // `HaloWire`: count | (leaf u64 | count | f64…)…
    golden!(
        vec![(5, vec![1.0, -2.5]), (6, vec![])],
        Vec<(u64, Vec<f64>)>,
        "02000000 0500000000000000 02000000 000000000000f03f 00000000000004c0 \
         0600000000000000 00000000"
    );
    // The blocks deposit: count | (leaf u64 | four length-prefixed lanes, no
    // array prefix)… — octotiger's `BlockSoA` writes this image with lanes of
    // 64 (its `block_images_are_four_counted_lanes`).
    golden!(
        vec![(9, [vec![1.0], vec![], vec![0.5, 0.25], vec![2.0]])],
        Vec<(u64, [Vec<f64>; 4])>,
        "01000000 0900000000000000 01000000 000000000000f03f 00000000 \
         02000000 000000000000e03f 000000000000d03f 01000000 0000000000000040"
    );
}

#[test]
fn scalar_images() {
    golden!(
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64,
        "010000000000f87f"
    );
    golden!(-0.0, f64, "0000000000000080");
    golden!(f64::INFINITY, f64, "000000000000f07f");
    golden!(1.5, f32, "0000c03f");
    golden!('λ', char, "bb030000");
    golden!(String::from("λ-wire"), String, "07000000 cebb2d77697265");
    golden!((), (), "");
    golden!(true, bool, "01");
    golden!(-2, i16, "feff");
    golden!(Some(0xabcd), Option<u16>, "01 cdab");
}
