//! The parcel — HPX's unit of remote work — and its one wire layout.
//!
//! A parcel travels as the body of one [`crate::frame`]. The cluster writes
//! a parcel's fields and its argument's or result's image straight into the
//! frame ([`write_request`], [`write_response`]) and reads the frame in
//! place as a [`Parcel`], which borrows the action name and the payload from
//! it. The layout is written down once:
//!
//! ```text
//! Request  = 0u32 | from u32 | target u64 | action (u32 count + UTF-8) | payload (u32 count + image) | call_id u64
//! Response = 1u32 | call_id u64 | Ok: 0u32 + result (u32 count + image) / Err: 1u32 + why (u32 count + UTF-8)
//! ```

use crate::gid::{Gid, LocalityId};
use crate::wire::{Encode, Reader, Wire, WireError, Writer};

/// One parcel — a remote action request or its response — read in place:
/// the action name, the payload and the failure description borrowed from
/// the bytes it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Parcel<'a> {
    /// Action invocation travelling to the component's owner.
    Request {
        /// Caller locality.
        from: LocalityId,
        /// Target component.
        target: Gid,
        /// Registered action name.
        action: &'a str,
        /// The argument's image.
        payload: &'a [u8],
        /// Caller-local correlation id.
        call_id: u64,
    },
    /// Result travelling back to the caller.
    Response {
        /// Correlation id from the matching request.
        call_id: u64,
        /// The result's image, or the remote failure description.
        result: Result<&'a [u8], &'a str>,
    },
}

impl<'a> Parcel<'a> {
    /// Read a parcel that is all of `bytes`, without copying.
    pub fn read(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(bytes);
        let r = &mut reader;
        let parcel = match u32::decode(r)? {
            0 => Parcel::Request {
                from: Wire::decode(r)?,
                target: Wire::decode(r)?,
                action: r.str()?,
                payload: r.counted()?,
                call_id: Wire::decode(r)?,
            },
            1 => Parcel::Response {
                call_id: Wire::decode(r)?,
                result: match u32::decode(r)? {
                    0 => Ok(r.counted()?),
                    1 => Err(r.str()?),
                    variant => return Err(WireError::BadVariant(variant)),
                },
            },
            variant => return Err(WireError::BadVariant(variant)),
        };
        reader.end()?;
        Ok(parcel)
    }
}

/// Write a request parcel; `arg` writes the argument's image, `arg_len`
/// bytes long, which lands behind a count patched afterwards. An image that
/// does not fit the count voids the writer's, as any count does.
pub(crate) fn write_request(
    out: &mut Writer,
    from: LocalityId,
    target: Gid,
    action: &str,
    call_id: u64,
    arg_len: usize,
    arg: impl FnOnce(&mut Writer),
) {
    0u32.encode(out);
    from.encode(out);
    target.encode(out);
    out.str(action);
    // Room for the count, the image and the call id at once.
    out.reserve(4 + arg_len + call_id.image_len());
    // A void image is reported where the writer is finished.
    let _ = out.counted(arg);
    call_id.encode(out);
}

/// Write a response parcel; `result` writes the result's image, which lands
/// behind a count patched afterwards, or says why there is none. A failed
/// `result`, or an image that does not fit the count, leaves the failure in
/// the parcel instead, whatever `result` wrote before it failed.
pub(crate) fn write_response(
    out: &mut Writer,
    call_id: u64,
    result: impl FnOnce(&mut Writer) -> Result<(), String>,
) {
    1u32.encode(out);
    call_id.encode(out);
    let mark = out.mark();
    0u32.encode(out);
    let why = match out.counted(result) {
        Ok(Ok(())) => return,
        Ok(Err(why)) => why,
        Err(e) => format!("encode: {e}"),
    };
    out.rewind(mark);
    1u32.encode(out);
    out.str(&why);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both kinds of parcel, written by the writers, read back in place.
    #[test]
    fn parcels_read_back_what_was_written() {
        let target = Gid::new(LocalityId(0), 0);
        let payload = [1, 2, 3, 255];
        let mut out = Writer::with_capacity(0);
        let image = |out: &mut Writer| u8::encode_slice(&payload, out);
        write_request(&mut out, LocalityId(1), target, "solve_step", 42, 4, image);
        let request = Parcel::Request {
            from: LocalityId(1),
            target,
            action: "solve_step",
            payload: &payload,
            call_id: 42,
        };
        assert_eq!(Parcel::read(&out.finish().unwrap()), Ok(request));
        for result in [Ok(&[9u8; 100][..]), Err("action panicked")] {
            let mut out = Writer::with_capacity(0);
            write_response(&mut out, 7, |out| match result {
                Ok(image) => {
                    u8::encode_slice(image, out);
                    Ok(())
                }
                Err(why) => Err(why.to_string()),
            });
            let response = Parcel::Response { call_id: 7, result };
            assert_eq!(Parcel::read(&out.finish().unwrap()), Ok(response));
        }
    }
}
