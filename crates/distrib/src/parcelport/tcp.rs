//! Eager TCP parcelport — one connection per peer, frames written to the
//! socket on the sending thread (HPX's classic TCP parcelport behaviour:
//! `asio` write on submission, no separate progress engine).

use apex_lite::trace::{self, Cat};
use bytes::Bytes;
use rv_machine::NetBackend;

use crate::agas::LocalityId;
use crate::stats::{PortSnapshot, PortStats};

use super::{Deliver, Parcelport};

/// The TCP backend (also hosts the Tofu-D link model, which shares the
/// eager semantics — see [`super::open`]).
pub struct TcpParcelport {
    deliver: Deliver,
    stats: PortStats,
    backend: NetBackend,
}

impl TcpParcelport {
    /// Open the port, delivering through `deliver`.
    pub fn new(deliver: Deliver) -> Self {
        Self::with_backend(deliver, NetBackend::Tcp)
    }

    /// Eager port carrying a different link model (Tofu-D reference runs).
    pub fn with_backend(deliver: Deliver, backend: NetBackend) -> Self {
        TcpParcelport {
            deliver,
            stats: PortStats::new(),
            backend,
        }
    }
}

impl Parcelport for TcpParcelport {
    fn backend(&self) -> NetBackend {
        self.backend
    }

    fn transmit(&self, to: LocalityId, frame: Bytes) {
        let _span = trace::span(Cat::Comm, "parcel_send");
        super::note_parcel_send(&frame);
        self.stats.record_frame(frame.len() as u64);
        (self.deliver)(to, frame);
    }

    fn progress(&self) -> usize {
        0 // eager: nothing is ever queued
    }

    fn flush(&self) {
        // Delivery happened inside transmit; nothing to wait for.
    }

    fn stats(&self) -> PortSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn note_step(&self, step: u64) {
        self.stats.note_step(step);
    }
}
