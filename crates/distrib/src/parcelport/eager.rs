//! Eager parcelport — frames are delivered on the sending thread, inside
//! [`Parcelport::transmit`]. Three backends share these semantics and
//! differ only in their link model ([`rv_machine::NetBackend::net_cost`]):
//!
//! * **TCP** — one connection per peer, `asio` write on submission, no
//!   separate progress engine (HPX's classic TCP parcelport);
//! * **MPI** — two-sided sends (OpenMPI 4.1.4 in the paper): `MPI_Isend`
//!   completes from the application's view on submission, the library's
//!   progress hidden from the caller. Its matching layer and extra buffer
//!   copies triple the per-message CPU cost on the in-order boards — the
//!   driver behind Fig. 8's 1.55× (MPI) vs 1.85× (TCP) speedups;
//! * **Tofu-D** — the link model of the Fugaku reference series, not a
//!   software stack we reproduce.

use apex_lite::trace::{self, Cat};

use crate::agas::LocalityId;
use crate::stats::{PortSnapshot, PortStats};

use super::{Deliver, Parcelport};

/// The eager port of TCP, MPI and Tofu-D.
pub(crate) struct EagerParcelport {
    deliver: Deliver,
    stats: PortStats,
}

impl EagerParcelport {
    /// Open the port, delivering through `deliver`.
    pub(crate) fn new(deliver: Deliver) -> Self {
        EagerParcelport {
            deliver,
            stats: PortStats::new(),
        }
    }
}

impl Parcelport for EagerParcelport {
    fn transmit(&self, to: LocalityId, frame: Vec<u8>) {
        let _span = trace::span(Cat::Comm, "parcel_send");
        super::note_parcel_send(&frame);
        self.stats.record_frame(frame.len() as u64);
        (self.deliver)(to, frame);
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
