//! The parcel — HPX's unit of remote work — and its one wire layout.
//!
//! A parcel travels as the body of one [`crate::frame`]. The cluster never
//! builds a [`ParcelMsg`] on its hot path: it writes a parcel's fields and
//! its argument's or result's image straight into the frame
//! ([`write_request`], [`write_response`]) and reads the frame in place as a
//! [`Parcel`], which borrows the action name and the payload from it.
//! `ParcelMsg`'s [`Wire`] impl goes through the same writer and reader, so
//! the layout below is written down once:
//!
//! ```text
//! Request  = 0u32 | from u32 | target u64 | action (u32 count + UTF-8) | payload (u32 count + image) | call_id u64
//! Response = 1u32 | call_id u64 | Ok: 0u32 + result (u32 count + image) / Err: 1u32 + why (u32 count + UTF-8)
//! ```

use crate::agas::{Gid, LocalityId};
use crate::wire::{self, Reader, Wire, WireError, Writer};

/// One parcel, owned: a remote action request or its response.
#[derive(Debug, Clone, PartialEq)]
pub enum ParcelMsg {
    /// Action invocation travelling to the component's owner.
    Request {
        /// Caller locality (the response's destination).
        from: LocalityId,
        /// Target component.
        target: Gid,
        /// Registered action name.
        action: String,
        /// Wire-encoded argument.
        payload: Vec<u8>,
        /// Caller-local correlation id.
        call_id: u64,
    },
    /// Result travelling back to the caller.
    Response {
        /// Correlation id from the matching request.
        call_id: u64,
        /// Wire-encoded result, or the remote failure description.
        result: Result<Vec<u8>, String>,
    },
}

impl ParcelMsg {
    /// Serialize to the binary wire form.
    pub fn to_wire(&self) -> Result<Vec<u8>, WireError> {
        wire::to_bytes(self)
    }

    /// Deserialize from the binary wire form.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::from_bytes(bytes)
    }
}

/// One parcel read in place: [`ParcelMsg`] with the action name, the
/// payload and the failure description borrowed from the bytes it was read
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Parcel<'a> {
    /// [`ParcelMsg::Request`], read in place.
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
    /// [`ParcelMsg::Response`], read in place.
    Response {
        /// Correlation id from the matching request.
        call_id: u64,
        /// The result's image, or the remote failure description.
        result: Result<&'a [u8], &'a str>,
    },
}

impl<'a> Parcel<'a> {
    /// Read a parcel that is all of `bytes` — what
    /// [`ParcelMsg::from_wire`] reads, with the same errors, without
    /// copying.
    pub fn read(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let parcel = Self::read_from(&mut r)?;
        r.end()?;
        Ok(parcel)
    }

    fn read_from(r: &mut Reader<'a>) -> Result<Self, WireError> {
        match u32::decode(r)? {
            0 => Ok(Parcel::Request {
                from: Wire::decode(r)?,
                target: Wire::decode(r)?,
                action: r.str()?,
                payload: r.counted()?,
                call_id: Wire::decode(r)?,
            }),
            1 => Ok(Parcel::Response {
                call_id: Wire::decode(r)?,
                result: match u32::decode(r)? {
                    0 => Ok(r.counted()?),
                    1 => Err(r.str()?),
                    variant => return Err(WireError::BadVariant(variant)),
                },
            }),
            variant => Err(WireError::BadVariant(variant)),
        }
    }
}

impl From<Parcel<'_>> for ParcelMsg {
    fn from(parcel: Parcel<'_>) -> Self {
        match parcel {
            Parcel::Request {
                from,
                target,
                action,
                payload,
                call_id,
            } => ParcelMsg::Request {
                from,
                target,
                action: action.to_owned(),
                payload: payload.to_vec(),
                call_id,
            },
            Parcel::Response { call_id, result } => ParcelMsg::Response {
                call_id,
                result: result.map(<[u8]>::to_vec).map_err(str::to_owned),
            },
        }
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

impl Wire for ParcelMsg {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Writer) {
        match self {
            ParcelMsg::Request {
                from,
                target,
                action,
                payload,
                call_id,
            } => write_request(
                out,
                *from,
                *target,
                action,
                *call_id,
                payload.len(),
                |out| out.bytes(payload),
            ),
            ParcelMsg::Response { call_id, result } => {
                write_response(out, *call_id, |out| match result {
                    Ok(image) => {
                        out.bytes(image);
                        Ok(())
                    }
                    Err(why) => Err(why.clone()),
                })
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Parcel::read_from(r).map(ParcelMsg::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let agas = crate::agas::Agas::new();
        let p = ParcelMsg::Request {
            from: LocalityId(1),
            target: agas.new_gid(LocalityId(0)),
            action: "solve_step".into(),
            payload: vec![1, 2, 3, 255],
            call_id: 42,
        };
        let bytes = p.to_wire().unwrap();
        assert_eq!(ParcelMsg::from_wire(&bytes).unwrap(), p);
    }

    #[test]
    fn response_roundtrips_both_arms() {
        for result in [Ok(vec![9u8; 100]), Err("action panicked".to_string())] {
            let p = ParcelMsg::Response { call_id: 7, result };
            let bytes = p.to_wire().unwrap();
            assert_eq!(ParcelMsg::from_wire(&bytes).unwrap(), p);
        }
    }
}
