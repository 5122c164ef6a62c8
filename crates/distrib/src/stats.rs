//! Communication statistics — the measured quantities the Fig. 8 projection
//! consumes (message counts and byte volumes per backend), plus the local
//! action count that the unified local/remote syntax makes free.
//!
//! Two sets of counters, both the cluster's:
//!
//! * [`NetStats`] — what the cluster sent: frames (one parcel each) and
//!   bytes actually put on the (simulated) wire, and the actions invoked,
//!   local and remote. `bytes` is the length of the real framed wire image,
//!   not an estimate. One snapshot ([`NetSnapshot`]) reads them all;
//!   [`PortSnapshot`] is its wire half.
//! * [`CommMetrics`] — what the receive tasks saw: the directed-link matrix
//!   and the parcel latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

use apex_lite::counters::AtomicHistogram;

#[derive(Debug, Default)]
struct LinkStats {
    parcels: AtomicU64,
    bytes: AtomicU64,
}

/// One directed locality link's traffic, as reported by
/// [`CommMetrics::links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkSnapshot {
    /// Sending locality.
    pub(crate) src: u32,
    /// Receiving locality.
    pub(crate) dst: u32,
    /// Parcels received over this link.
    pub parcels: u64,
    /// Payload bytes received over this link.
    pub bytes: u64,
}

/// Comms-level causal-tracing metrics: per-link parcel/byte matrices and
/// the latency histogram behind `/comms/parcel_latency`. One per cluster,
/// shared by every receive task on every locality. All recording is lock-free
/// relaxed atomics, so it stays on even when tracing is off — these are
/// counters, not spans.
#[derive(Debug)]
pub(crate) struct CommMetrics {
    localities: u32,
    /// Row-major `src * localities + dst` directed-link matrix.
    links: Vec<LinkStats>,
    /// Parcel latency, from the submit stamp to the start of the receive
    /// task on the destination (which includes waiting for a worker), ns.
    pub(crate) parcel_latency: AtomicHistogram,
}

impl CommMetrics {
    /// Fresh metrics for a cluster of `localities`.
    pub(crate) fn new(localities: u32) -> Self {
        CommMetrics {
            localities,
            links: (0..localities as usize * localities as usize)
                .map(|_| LinkStats::default())
                .collect(),
            parcel_latency: AtomicHistogram::new(),
        }
    }

    /// Record one received parcel of `payload_bytes` on the `src → dst`
    /// link. Out-of-range localities are ignored (a desynchronized header
    /// must not panic a receive task).
    pub(crate) fn record_link(&self, src: u32, dst: u32, payload_bytes: u64) {
        if src >= self.localities || dst >= self.localities {
            return;
        }
        let link = &self.links[src as usize * self.localities as usize + dst as usize];
        link.parcels.fetch_add(1, Ordering::Relaxed);
        link.bytes.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    /// Snapshot every link that carried traffic, `(src, dst)` ordered.
    pub(crate) fn links(&self) -> Vec<LinkSnapshot> {
        let n = self.localities as usize;
        let mut out = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                let link = &self.links[src * n + dst];
                let parcels = link.parcels.load(Ordering::Relaxed);
                let bytes = link.bytes.load(Ordering::Relaxed);
                if parcels > 0 {
                    out.push(LinkSnapshot {
                        src: src as u32,
                        dst: dst as u32,
                        parcels,
                        bytes,
                    });
                }
            }
        }
        out
    }
}

/// Thread-safe counters of what one cluster sent, recorded, reset and
/// snapshotted together.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    remote_actions: AtomicU64,
    local_actions: AtomicU64,
}

/// Immutable snapshot of [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSnapshot {
    /// Parcels put on the wire (requests + responses).
    pub messages: u64,
    /// Total bytes on the wire, headers included.
    pub bytes: u64,
    /// Action invocations that crossed localities.
    pub remote_actions: u64,
    /// Action invocations satisfied locally (no serialization on the wire).
    pub local_actions: u64,
}

/// The wire half of a [`NetSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortSnapshot {
    /// Frames put on the wire.
    pub messages: u64,
    /// Total framed bytes on the wire (headers included, measured).
    pub bytes: u64,
    /// Parcels carried: one per frame, so always `messages`.
    pub parcels: u64,
    /// Referee shim: the frozen referee reports this as `distrib.batches`.
    /// Always 0 — no frame carries two parcels.
    pub batches: u64,
    /// Referee shim: the frozen referee reports this as
    /// `distrib.queue_depth_hwm`. Always 0 — a frame is delivered inside
    /// the call that sends it, so none waits in a queue.
    pub queue_depth_hwm: u64,
}

impl NetStats {
    /// Record one frame of `frame_bytes` put on the wire.
    pub(crate) fn record_frame(&self, frame_bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame_bytes, Ordering::Relaxed);
    }

    /// Record a remote action invocation (its two parcels are counted as
    /// frames).
    pub(crate) fn record_remote_action(&self) {
        self.remote_actions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a locally satisfied action.
    pub(crate) fn record_local_action(&self) {
        self.local_actions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot all counters.
    pub(crate) fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            remote_actions: self.remote_actions.load(Ordering::Relaxed),
            local_actions: self.local_actions.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub(crate) fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.remote_actions.store(0, Ordering::Relaxed);
        self.local_actions.store(0, Ordering::Relaxed);
    }
}

impl NetSnapshot {
    /// The wire half: frames and bytes.
    pub(crate) fn port(self) -> PortSnapshot {
        PortSnapshot {
            messages: self.messages,
            bytes: self.bytes,
            parcels: self.messages,
            batches: 0,
            queue_depth_hwm: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_actions_are_one_set_of_counters() {
        let s = NetStats::default();
        s.record_frame(100);
        s.record_frame(300);
        s.record_remote_action();
        s.record_local_action();
        s.record_local_action();
        let snap = s.snapshot();
        assert_eq!((snap.messages, snap.bytes), (2, 400));
        assert_eq!((snap.remote_actions, snap.local_actions), (1, 2));
        let port = snap.port();
        assert_eq!((port.messages, port.bytes, port.parcels), (2, 400, 2));
        assert_eq!(port.batches, 0);
        assert_eq!(port.queue_depth_hwm, 0, "no frame waits in a queue");
        s.reset();
        assert_eq!(s.snapshot(), NetSnapshot::default());
        assert_eq!(s.snapshot().port(), PortSnapshot::default());
    }

    #[test]
    fn comm_metrics_track_links_and_latency_histograms() {
        let m = CommMetrics::new(2);
        m.record_link(0, 1, 100);
        m.record_link(0, 1, 50);
        m.record_link(1, 0, 7);
        m.record_link(5, 0, 999); // out of range: ignored, no panic
        let links = m.links();
        assert_eq!(links.len(), 2, "only links with traffic are reported");
        assert_eq!(
            links[0],
            LinkSnapshot {
                src: 0,
                dst: 1,
                parcels: 2,
                bytes: 150
            }
        );
        assert_eq!(links[1].parcels, 1);
        m.parcel_latency.record(1000);
        m.parcel_latency.record(2000);
        assert_eq!(m.parcel_latency.snapshot().count(), 2);
    }
}
