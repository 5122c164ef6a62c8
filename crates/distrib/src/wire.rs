//! The wire format of parcels — the serialization layer of the parcelport
//! (HPX's `hpx::serialization`).
//!
//! Every remote action's arguments and results pass through
//! [`to_bytes`]/[`from_bytes`], so the link model charges *real* payload
//! sizes. The format is fixed-width, little-endian and not self-describing —
//! both ends know the type — and this table is its only description:
//!
//! | type | image |
//! |---|---|
//! | `u8`…`u64`, `i8`…`i64`, `f32`, `f64` | the value's little-endian bytes |
//! | `bool` | one byte, 0 or 1 |
//! | `char` | its scalar value as a `u32` |
//! | `()` | nothing |
//! | `String`, `Vec<T>` | element count as a `u32`, then the UTF-8 bytes / the elements |
//! | `Option<T>` | one tag byte: 0, or 1 followed by the value |
//! | `Result<T, E>`, [`ParcelMsg`](crate::ParcelMsg) | variant index as a `u32` (`Ok` = 0, `Err` = 1; `Request` = 0, `Response` = 1), then the variant's fields |
//! | tuples, `[T; N]`, structs ([`wire_struct!`](crate::wire_struct)), [`Gid`], [`LocalityId`] | the fields in declaration order, nothing added |
//!
//! Decoding is strict: it rejects a buffer with bytes left over, and a count
//! that what is left of the buffer cannot hold — before reserving anything
//! for it, so a hostile prefix costs no memory.

use std::fmt;

use crate::agas::{Gid, LocalityId};

/// Errors from encoding or decoding a parcel payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Decoder ran past the end of the buffer.
    Eof,
    /// An element count exceeded `u32::MAX` (encode) or what the rest of the
    /// buffer can hold (decode).
    BadLength,
    /// Invalid tag byte for a `bool` or an `Option`.
    BadTag(u8),
    /// Not the index of a variant of the enum being decoded.
    BadVariant(u32),
    /// Not a Unicode scalar value.
    BadChar(u32),
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// The value ended this many bytes before the buffer did.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of parcel payload"),
            WireError::BadLength => write!(f, "length prefix out of range"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::BadVariant(v) => write!(f, "invalid variant index {v}"),
            WireError::BadChar(c) => write!(f, "invalid char {c:#x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// The buffer a value is encoded into.
pub struct Writer {
    buf: Vec<u8>,
    /// A count did not fit its `u32` prefix: the image is void, and
    /// [`to_bytes`] reports it. Encoding cannot fail in any other way, which
    /// is why [`Wire::encode`] returns nothing.
    too_long: bool,
}

/// Where a [`Writer`] stood, to rewind it to.
#[derive(Clone, Copy)]
pub(crate) struct Mark {
    len: usize,
    too_long: bool,
}

impl Writer {
    /// An empty buffer with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
            too_long: false,
        }
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Make room for `additional` more bytes, to write them without a
    /// regrowth.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append `bytes` as they are.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append the image of a string (the image of a `String`).
    pub(crate) fn str(&mut self, s: &str) {
        encode_counted(s.as_bytes(), self);
    }

    /// Overwrite the `u32` at byte `at` with `value`.
    pub(crate) fn patch_u32(&mut self, at: usize, value: u32) {
        self.buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn mark(&self) -> Mark {
        Mark {
            len: self.buf.len(),
            too_long: self.too_long,
        }
    }

    /// Drop everything written since `mark`.
    pub(crate) fn rewind(&mut self, mark: Mark) {
        self.buf.truncate(mark.len);
        self.too_long = mark.too_long;
    }

    /// Append what `body` writes behind a `u32` count of its bytes, patched
    /// once `body` returns — the image of a `Vec<u8>` holding those bytes,
    /// written without one. Bytes that do not fit the count, or a count
    /// inside them that did not fit its own, void the image
    /// ([`WireError::BadLength`]), as any count does.
    pub(crate) fn counted<R>(
        &mut self,
        body: impl FnOnce(&mut Writer) -> R,
    ) -> Result<R, WireError> {
        let at = self.buf.len();
        self.bytes(&[0; 4]);
        let out = body(self);
        match u32::try_from(self.buf.len() - at - 4) {
            Ok(count) if !self.too_long => {
                self.patch_u32(at, count);
                Ok(out)
            }
            _ => {
                self.too_long = true;
                Err(WireError::BadLength)
            }
        }
    }

    /// The bytes written, unless a count did not fit its prefix.
    pub(crate) fn finish(self) -> Result<Vec<u8>, WireError> {
        match self.too_long {
            false => Ok(self.buf),
            true => Err(WireError::BadLength),
        }
    }
}

/// The bytes a value is decoded from, consumed front to back.
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(input: &'a [u8]) -> Self {
        Reader { input }
    }

    /// Read a `u32` count and borrow that many bytes — the bytes of a
    /// `Vec<u8>` image, or of a `String`'s.
    pub(crate) fn counted(&mut self) -> Result<&'a [u8], WireError> {
        let count = u32::decode(self)? as usize;
        let (bytes, rest) = self
            .input
            .split_at_checked(count)
            .ok_or(WireError::BadLength)?;
        self.input = rest;
        Ok(bytes)
    }

    /// Borrow the string of a `String` image.
    pub(crate) fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.counted()?).map_err(|_| WireError::BadUtf8)
    }

    /// Accept the end of the input, refusing bytes left over.
    pub(crate) fn end(self) -> Result<(), WireError> {
        match self.input.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// A type with a wire image (the module docs have the format).
pub trait Wire: Sized {
    /// A lower bound on the size of an image of this type.
    const MIN_BYTES: usize;

    /// The length of the image of `self`, which an encoder reserves before
    /// writing it, so the image is written once, into a buffer that does not
    /// grow. The default, [`Wire::MIN_BYTES`], is exact for a type without
    /// counts or tags. Less than the length is still correct; it costs the
    /// encoder a regrowth.
    fn image_len(&self) -> usize {
        Self::MIN_BYTES
    }

    /// Append the image of `self` to `out`.
    fn encode(&self, out: &mut Writer);

    /// Read one value off the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Append the images of `items`, without a count. The fixed-width
    /// numbers override this (and [`Wire::decode_vec`]) to move as one block.
    fn encode_slice(items: &[Self], out: &mut Writer) {
        for item in items {
            item.encode(out);
        }
    }

    /// [`Wire::image_len`] of the images of `items`, without a count. The
    /// fixed-width numbers override this to answer without a walk.
    fn slice_image_len(items: &[Self]) -> usize {
        items.iter().map(Wire::image_len).sum()
    }

    /// Read `count` values. `count` is an array's length or has been checked
    /// against what is left of `r`, so it is safe to reserve for.
    fn decode_vec(count: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::decode(r)?);
        }
        Ok(items)
    }
}

/// Encode `value` into a freshly allocated byte buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Writer::with_capacity(value.image_len());
    value.encode(&mut out);
    out.finish()
}

/// Decode a `T` from `bytes`; the whole buffer must be consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.end()?;
    Ok(value)
}

macro_rules! wire_numbers {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = size_of::<$ty>();
            fn encode(&self, out: &mut Writer) {
                out.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let (image, rest) = r.input.split_first_chunk().ok_or(WireError::Eof)?;
                r.input = rest;
                Ok(<$ty>::from_le_bytes(*image))
            }
            fn encode_slice(items: &[Self], out: &mut Writer) {
                out.buf.extend(items.iter().flat_map(|item| item.to_le_bytes()));
            }
            fn slice_image_len(items: &[Self]) -> usize {
                items.len() * size_of::<$ty>()
            }
            fn decode_vec(count: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
                let bytes = count.checked_mul(size_of::<$ty>()).ok_or(WireError::BadLength)?;
                let (block, rest) = r.input.split_at_checked(bytes).ok_or(WireError::Eof)?;
                r.input = rest;
                Ok(block.as_chunks().0.iter().map(|image| <$ty>::from_le_bytes(*image)).collect())
            }
        }
    )*};
}

wire_numbers!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// Types that travel as the image of another: `$ty as $image: to, back`,
/// where `back` refuses the images no value has.
macro_rules! wire_as {
    ($($ty:ty as $image:ty: $to:expr, $back:expr;)*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = <$image>::MIN_BYTES;
            fn encode(&self, out: &mut Writer) {
                let to: fn(&Self) -> $image = $to;
                to(self).encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let back: fn($image) -> Result<Self, WireError> = $back;
                back(<$image>::decode(r)?)
            }
        }
    )*};
}

wire_as! {
    bool as u8: |b| u8::from(*b), |tag| (tag <= 1).then_some(tag == 1).ok_or(WireError::BadTag(tag));
    char as u32: |c| u32::from(*c), |s| char::from_u32(s).ok_or(WireError::BadChar(s));
    LocalityId as u32: |id| id.0, |id| Ok(LocalityId(id));
    Gid as u64: |gid| gid.0, |raw| Ok(Gid(raw));
}

impl Wire for () {
    const MIN_BYTES: usize = 0;
    fn encode(&self, _: &mut Writer) {}
    fn decode(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// A count, then the items: the image of a `Vec`, and of a `String`'s bytes.
fn encode_counted<T: Wire>(items: &[T], out: &mut Writer) {
    out.too_long |= u32::try_from(items.len()).is_err();
    (items.len() as u32).encode(out);
    T::encode_slice(items, out);
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn image_len(&self) -> usize {
        4 + self.len()
    }
    fn encode(&self, out: &mut Writer) {
        out.str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn image_len(&self) -> usize {
        4 + T::slice_image_len(self)
    }
    fn encode(&self, out: &mut Writer) {
        encode_counted(self, out);
    }
    /// Refuses a count that what is left of the buffer cannot hold, before
    /// reserving for it. A zero-width `T` counts as one byte, which bounds
    /// the decoder's work by the input's length.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = u32::decode(r)? as usize;
        if count.saturating_mul(T::MIN_BYTES.max(1)) > r.input.len() {
            return Err(WireError::BadLength);
        }
        T::decode_vec(count, r)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn image_len(&self) -> usize {
        T::slice_image_len(self)
    }
    fn encode(&self, out: &mut Writer) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let items = T::decode_vec(N, r)?;
        items.try_into().map_err(|_| WireError::BadLength)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn image_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::image_len)
    }
    fn encode(&self, out: &mut Writer) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        bool::decode(r)?.then(|| T::decode(r)).transpose()
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN_BYTES: usize = 4;
    fn image_len(&self) -> usize {
        4 + self.as_ref().map_or_else(Wire::image_len, Wire::image_len)
    }
    fn encode(&self, out: &mut Writer) {
        u32::from(self.is_err()).encode(out);
        match self {
            Ok(value) => value.encode(out),
            Err(error) => error.encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u32::decode(r)? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            variant => Err(WireError::BadVariant(variant)),
        }
    }
}

macro_rules! wire_tuple {
    ($($idx:tt $T:ident),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            const MIN_BYTES: usize = 0 $(+ $T::MIN_BYTES)+;
            fn image_len(&self) -> usize {
                0 $(+ self.$idx.image_len())+
            }
            fn encode(&self, out: &mut Writer) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($T::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C, 3 D);

/// Implement [`Wire`] for a struct with named fields, which travel in the
/// order listed (list them as declared):
/// `wire_struct!(GhostMsg { face: u8, data: Vec<f64> });`
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_BYTES)+;
            fn image_len(&self) -> usize {
                0 $(+ <$ty as $crate::wire::Wire>::image_len(&self.$field))+
            }
            fn encode(&self, out: &mut $crate::wire::Writer) {
                $(<$ty as $crate::wire::Wire>::encode(&self.$field, out);)+
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $($field: <$ty as $crate::wire::Wire>::decode(r)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = to_bytes(&v).expect("encode");
        assert!(v.image_len() <= b.len(), "image_len of {v:?}");
        let back: T = from_bytes(&b).expect("decode");
        assert_eq!(back, v);
    }

    /// [`from_bytes`] with the type named up front.
    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
        from_bytes(bytes)
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(42u32);
        roundtrip(-7i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f32);
        roundtrip(std::f64::consts::PI);
        roundtrip('λ');
        roundtrip(String::from("parcel"));
        roundtrip(String::new());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1.0f64, 2.0, 3.0]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(vec![1u8, 2, 3]));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, -2i32, 3.0f64, String::from("t")));
        roundtrip([vec![1i16, -2], vec![], vec![3]]);
        roundtrip(vec![Ok(1u16), Err(String::from("no"))]);
    }

    #[derive(Debug, PartialEq)]
    struct Ghost {
        face: u8,
        level: u32,
        data: Vec<f64>,
        tag: Option<String>,
    }

    wire_struct!(Ghost {
        face: u8,
        level: u32,
        data: Vec<f64>,
        tag: Option<String>,
    });

    /// A hand-written enum impl, the way [`ParcelMsg`](crate::ParcelMsg)'s is.
    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping,
        Payload(Ghost),
        Pair { a: u64, b: u64 },
    }

    impl Wire for Msg {
        const MIN_BYTES: usize = 4;

        fn encode(&self, out: &mut Writer) {
            match self {
                Msg::Ping => 0u32.encode(out),
                Msg::Payload(ghost) => {
                    1u32.encode(out);
                    ghost.encode(out);
                }
                Msg::Pair { a, b } => {
                    2u32.encode(out);
                    a.encode(out);
                    b.encode(out);
                }
            }
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            match u32::decode(r)? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Payload(Wire::decode(r)?)),
                2 => Ok(Msg::Pair {
                    a: Wire::decode(r)?,
                    b: Wire::decode(r)?,
                }),
                variant => Err(WireError::BadVariant(variant)),
            }
        }
    }

    #[test]
    fn structs_and_enums_roundtrip() {
        roundtrip(Ghost {
            face: 3,
            level: 4,
            data: (0..512).map(|i| i as f64 * 0.5).collect(),
            tag: Some("rho".into()),
        });
        roundtrip(Msg::Ping);
        roundtrip(Msg::Pair { a: 1, b: 2 });
        roundtrip(Msg::Payload(Ghost {
            face: 0,
            level: 0,
            data: vec![],
            tag: None,
        }));
        assert_eq!(decode::<Msg>(&[3, 0, 0, 0]), Err(WireError::BadVariant(3)));
    }

    #[test]
    fn image_len_is_exact_where_it_is_not_the_default() {
        fn exact<T: Wire + std::fmt::Debug>(v: T) {
            assert_eq!(v.image_len(), to_bytes(&v).unwrap().len(), "{v:?}");
        }
        exact(String::from("parcel"));
        exact(vec![1.5f64; 7]);
        exact(vec![(3u64, vec![1.0f64; 5]), (4, vec![])]);
        exact([vec![1i16, -2], vec![], vec![3]]);
        exact((Some(vec![true]), Option::<u8>::None));
        exact(vec![Ok(1u16), Err(String::from("no"))]);
        exact(Ghost {
            face: 3,
            level: 4,
            data: vec![0.5; 9],
            tag: Some("rho".into()),
        });
    }

    #[test]
    fn encoding_is_compact() {
        // Vec<f64> of 512 entries: 4-byte length + 8×512 payload.
        let v: Vec<f64> = vec![1.0; 512];
        let b = to_bytes(&v).unwrap();
        assert_eq!(b.len(), 4 + 8 * 512);
    }

    #[test]
    fn block_and_element_paths_write_the_same_image() {
        // A `Vec<u32>` moves as one block; its numbers as `(low, high)` halves
        // move element by element.
        let block: Vec<u32> = (0..64).map(|i| i * 0x0101_0101).collect();
        let pairs: Vec<(u16, u16)> = block
            .iter()
            .map(|v| (*v as u16, (*v >> 16) as u16))
            .collect();
        assert_eq!(to_bytes(&block).unwrap(), to_bytes(&pairs).unwrap());
        roundtrip(pairs);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = to_bytes(&7u32).unwrap();
        b.push(0);
        assert_eq!(decode::<u32>(&b), Err(WireError::Trailing(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        // Inside a sequence the count no longer fits; elsewhere the value ends early.
        let b = to_bytes(&vec![1u64, 2, 3]).unwrap();
        assert_eq!(
            decode::<Vec<u64>>(&b[..b.len() - 1]),
            Err(WireError::BadLength)
        );
        let b = to_bytes(&(1u8, 2u64)).unwrap();
        assert_eq!(decode::<(u8, u64)>(&b[..b.len() - 1]), Err(WireError::Eof));
    }

    #[test]
    fn counts_the_buffer_cannot_hold_are_rejected_before_reserving() {
        // u32::MAX elements announced, none present.
        let huge = [0xff, 0xff, 0xff, 0xff];
        assert_eq!(decode::<Vec<u8>>(&huge), Err(WireError::BadLength));
        assert_eq!(decode::<String>(&huge), Err(WireError::BadLength));
        assert_eq!(
            decode::<Vec<(u64, Vec<f64>)>>(&huge),
            Err(WireError::BadLength)
        );
        // 12 bytes follow: room for one `(u64, Vec<f64>)`, not for two.
        let mut two = vec![2, 0, 0, 0];
        two.extend_from_slice(&[0; 12]);
        assert_eq!(
            decode::<Vec<(u64, Vec<f64>)>>(&two),
            Err(WireError::BadLength)
        );
        // Zero-width elements: as many as bytes remain, no more.
        assert_eq!(decode::<Vec<()>>(&huge), Err(WireError::BadLength));
        assert_eq!(decode::<Vec<()>>(&[0, 0, 0, 0]), Ok(vec![]));
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(decode::<bool>(&[7]), Err(WireError::BadTag(7)));
        assert_eq!(decode::<Option<u8>>(&[2, 0]), Err(WireError::BadTag(2)));
        assert_eq!(
            decode::<char>(&[0, 0xd8, 0, 0]),
            Err(WireError::BadChar(0xd800))
        );
        assert_eq!(
            decode::<Result<u8, u8>>(&[2, 0, 0, 0, 0]),
            Err(WireError::BadVariant(2))
        );
        assert_eq!(
            decode::<String>(&[1, 0, 0, 0, 0xff]),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn nested_options() {
        roundtrip(Some(Some(5u8)));
        roundtrip(Some(Option::<u8>::None));
    }

    #[test]
    fn f64_bit_exactness() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1e300, -1e-300, f64::INFINITY] {
            let b = to_bytes(&v).unwrap();
            let back: f64 = from_bytes(&b).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let b = to_bytes(&f64::NAN).unwrap();
        assert!(decode::<f64>(&b).unwrap().is_nan());
    }
}
