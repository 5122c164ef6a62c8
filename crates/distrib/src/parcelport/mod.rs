//! Pluggable parcelports — the backend abstraction of HPX's parcel layer.
//!
//! §2.1 of the paper lists HPX's communication backends ("parcelports"):
//! TCP, MPI and LCI, selectable at startup without touching application
//! code. This module reproduces that seam: the cluster talks to a
//! [`Parcelport`] trait object; [`open`] instantiates the backend named by
//! the run configuration.
//!
//! # Contract
//!
//! A parcelport moves **framed** byte buffers (see [`crate::frame`]), one
//! parcel each, between localities:
//!
//! * [`Parcelport::transmit`] accepts one frame for a destination. *Eager*
//!   ports ([`EagerParcelport`]: TCP, MPI) deliver on the calling
//!   thread before returning. *Explicit-progress* ports
//!   ([`LciParcelport`]) only enqueue; delivery happens when the progress
//!   engine runs.
//! * [`Parcelport::flush`] blocks until every previously transmitted frame
//!   has been delivered — the barrier a sender needs before blocking on a
//!   response.
//! * [`Parcelport::stats`] exposes the measured per-port counters
//!   ([`PortSnapshot`]): frames, framed bytes and the queue-depth
//!   high-water mark.
//!
//! Delivery is *ordered per destination* for frames sent from one thread;
//! frames to dead destinations are dropped, like writes to a closed socket.
//! *Dispatch* order is not the port's: the cluster hands each delivered
//! frame to a task on the destination's runtime, and a locality with
//! several workers may run those tasks in any order.

mod eager;
mod lci;

use eager::EagerParcelport;
use lci::LciParcelport;

use std::sync::Arc;

use rv_machine::NetBackend;

use crate::agas::LocalityId;
use crate::stats::PortSnapshot;

/// Delivery sink: hands one frame to the destination locality, whose
/// runtime reads it. Must tolerate dead destinations (drop the frame).
pub(crate) type Deliver = Arc<dyn Fn(LocalityId, Vec<u8>) + Send + Sync>;

/// Emit the `"s"` flow event of the parcel in `frame`, pairing with the
/// receive side's `"f"` so Perfetto draws a cross-locality arrow out of
/// the enclosing `parcel_send` span. No-op (and no header read) when
/// tracing is off; a buffer that is not a frame is skipped — the receive
/// side reports it.
pub(crate) fn note_parcel_send(frame: &[u8]) {
    if !apex_lite::trace::enabled() {
        return;
    }
    if let Ok((ctx, _)) = crate::frame::decode(frame) {
        apex_lite::trace::flow_start(apex_lite::trace::Cat::Comm, "parcel", ctx.flow);
    }
}

/// One communication backend instance (see module docs for the contract).
pub(crate) trait Parcelport: Send + Sync {
    /// Hand one frame to the port for `to`.
    fn transmit(&self, to: LocalityId, frame: Vec<u8>);

    /// Block until all previously transmitted frames are delivered.
    fn flush(&self);

    /// Measured per-port counters.
    fn stats(&self) -> PortSnapshot;

    /// Zero the per-port counters.
    fn reset_stats(&self);

    /// Tell the port which application step is running, so queue-depth
    /// high-water marks can be attributed to the step that caused them
    /// (see [`PortSnapshot::queue_depth_hwm_step`]).
    fn note_step(&self, step: u64);
}

/// Instantiate the parcelport for `backend`, delivering through `deliver`.
///
/// The simulation only distinguishes *semantics* (eager vs explicit
/// progress): TCP, MPI and Tofu-D are one eager port; their link models
/// ([`NetBackend::net_cost`]) differ only in the projection.
pub(crate) fn open(backend: NetBackend, deliver: Deliver) -> Arc<dyn Parcelport> {
    match backend {
        NetBackend::Tcp | NetBackend::Mpi | NetBackend::TofuD => {
            Arc::new(EagerParcelport::new(deliver))
        }
        NetBackend::Lci => Arc::new(LciParcelport::new(deliver)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::lock;
    use std::sync::Mutex;

    type DeliveryLog = Arc<Mutex<Vec<(u32, Vec<u8>)>>>;

    fn collector() -> (Deliver, DeliveryLog) {
        let log: DeliveryLog = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let deliver: Deliver = Arc::new(move |to, frame| {
            lock(&log2).push((to.0, frame));
        });
        (deliver, log)
    }

    #[test]
    fn every_backend_opens_and_delivers() {
        for backend in NetBackend::ALL {
            let (deliver, log) = collector();
            let port = open(backend, deliver);
            port.transmit(LocalityId(1), b"frame".to_vec());
            port.flush();
            assert_eq!(*lock(&log), vec![(1, b"frame".to_vec())], "{backend:?}");
            assert_eq!(port.stats().messages, 1, "{backend:?}");
        }
    }

    #[test]
    fn eager_ports_deliver_inside_transmit() {
        for backend in [NetBackend::Tcp, NetBackend::Mpi] {
            let (deliver, log) = collector();
            let port = open(backend, deliver);
            port.transmit(LocalityId(1), b"frame".to_vec());
            assert_eq!(lock(&log).len(), 1, "{backend:?} must deliver eagerly");
            let s = port.stats();
            assert_eq!(s.messages, 1);
            assert_eq!(s.bytes, 5);
        }
    }

    #[test]
    fn lci_port_defers_until_progress() {
        let (deliver, log) = collector();
        let port = LciParcelport::new_manual(deliver);
        port.transmit(LocalityId(0), b"a".to_vec());
        port.transmit(LocalityId(0), b"bb".to_vec());
        assert!(
            lock(&log).is_empty(),
            "explicit progress: nothing moves yet"
        );
        assert_eq!(port.stats().queue_depth_hwm, 2);
        port.flush();
        let delivered = lock(&log).clone();
        assert_eq!(delivered, vec![(0, b"a".to_vec()), (0, b"bb".to_vec())]);
        let s = port.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 3);
    }

    #[test]
    fn flush_drains_lci_outbox() {
        let (deliver, log) = collector();
        let port = open(NetBackend::Lci, deliver);
        for i in 0..10u8 {
            port.transmit(LocalityId(1), vec![i]);
        }
        port.flush();
        assert_eq!(lock(&log).len(), 10);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let (deliver, _log) = collector();
        let port = open(NetBackend::Tcp, deliver);
        port.transmit(LocalityId(0), b"x".to_vec());
        port.reset_stats();
        assert_eq!(port.stats(), PortSnapshot::default());
    }
}
