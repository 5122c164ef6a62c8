//! The parcel — HPX's unit of remote work — as a wire-serializable message.
//!
//! Before the parcelport refactor, parcels were an in-memory enum handed
//! directly to the destination's channel; only their *payload* had a wire
//! form. Now the whole parcel serializes through [`crate::wire`], is framed
//! by [`crate::frame`], and travels through a [`crate::parcelport`] — so the
//! byte counts in [`crate::stats::PortStats`] are the length of the actual
//! wire image.

use crate::agas::{Gid, LocalityId};
use crate::wire::{self, WireError};

/// One parcel: a remote action request or its response.
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
