//! Communication statistics — the measured quantities the Fig. 8 projection
//! consumes (message counts and byte volumes per backend), plus the local
//! action count that the unified local/remote syntax makes free.
//!
//! Two layers of counters exist since the parcelport refactor:
//!
//! * [`PortStats`] — owned by one [`crate::parcelport::Parcelport`]: frames
//!   (one parcel each) and bytes actually put on the (simulated) wire, and
//!   the outbox high-water mark. These are the *measured* quantities:
//!   `bytes` is the length of the real framed wire image, not an estimate.
//! * [`NetStats`] — cluster-level action accounting (local vs remote
//!   invocations). [`crate::Cluster::net_stats`] merges both into one
//!   [`NetSnapshot`].

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

/// Thread-safe action counters for one cluster.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    remote_actions: AtomicU64,
    local_actions: AtomicU64,
}

/// A port's wire traffic next to the cluster's [`NetStats`].
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

impl NetStats {
    /// Fresh zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a remote action invocation (the port counts its two parcels).
    pub(crate) fn record_remote_action(&self) {
        self.remote_actions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a locally satisfied action.
    pub(crate) fn record_local_action(&self) {
        self.local_actions.fetch_add(1, Ordering::Relaxed);
    }

    /// The action counters, merged with the wire traffic `port` measured.
    pub(crate) fn snapshot(&self, port: &PortSnapshot) -> NetSnapshot {
        NetSnapshot {
            messages: port.messages,
            bytes: port.bytes,
            remote_actions: self.remote_actions.load(Ordering::Relaxed),
            local_actions: self.local_actions.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub(crate) fn reset(&self) {
        self.remote_actions.store(0, Ordering::Relaxed);
        self.local_actions.store(0, Ordering::Relaxed);
    }
}

/// Thread-safe counters owned by one parcelport instance.
#[derive(Debug, Default)]
pub(crate) struct PortStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    queue_depth_hwm: AtomicU64,
    /// Step index at which `queue_depth_hwm` was last raised — lines a
    /// comms spike up with the trace spans of the step that caused it.
    queue_depth_hwm_step: AtomicU64,
    /// Current application step, advanced by [`PortStats::note_step`].
    current_step: AtomicU64,
}

/// Immutable snapshot of [`PortStats`].
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
    /// High-water mark of queued-but-unsent frames (the explicit-progress
    /// port's outbox; eager ports queue nothing).
    pub queue_depth_hwm: u64,
    /// Step index during which the high-water mark was reached (0 when it
    /// was reached before the first [`PortStats::note_step`] call).
    pub queue_depth_hwm_step: u64,
}

impl PortStats {
    /// Fresh zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one frame of `frame_bytes`.
    pub(crate) fn record_frame(&self, frame_bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame_bytes, Ordering::Relaxed);
    }

    /// Raise the queue-depth high-water mark to at least `depth`,
    /// remembering the current step when it actually rises.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        let prev = self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
        if depth > prev {
            // Benign race: concurrent raisers may both store; either step
            // index is one during which the mark was at its maximum.
            self.queue_depth_hwm_step
                .store(self.current_step.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Tell the port which application step is running, so queue-depth
    /// spikes can be attributed to it.
    pub(crate) fn note_step(&self, step: u64) {
        self.current_step.store(step, Ordering::Relaxed);
    }

    /// Snapshot all counters.
    pub(crate) fn snapshot(&self) -> PortSnapshot {
        let messages = self.messages.load(Ordering::Relaxed);
        PortSnapshot {
            messages,
            bytes: self.bytes.load(Ordering::Relaxed),
            parcels: messages,
            batches: 0,
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            queue_depth_hwm_step: self.queue_depth_hwm_step.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters (high-water mark included; the step clock is
    /// left running).
    pub(crate) fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.queue_depth_hwm.store(0, Ordering::Relaxed);
        self.queue_depth_hwm_step.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_stats_count_one_parcel_per_frame() {
        let s = PortStats::new();
        s.record_frame(100);
        s.record_frame(300);
        s.note_queue_depth(3);
        s.note_queue_depth(2);
        let snap = s.snapshot();
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.bytes, 400);
        assert_eq!(snap.parcels, 2);
        assert_eq!(snap.batches, 0);
        assert_eq!(snap.queue_depth_hwm, 3, "hwm keeps the maximum");
        s.reset();
        assert_eq!(s.snapshot(), PortSnapshot::default());
    }

    #[test]
    fn queue_depth_hwm_remembers_the_step_that_set_it() {
        let s = PortStats::new();
        s.note_queue_depth(2);
        s.note_step(4);
        s.note_queue_depth(7);
        s.note_step(5);
        s.note_queue_depth(7); // does not raise: step stays 4
        s.note_queue_depth(3);
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth_hwm, 7);
        assert_eq!(snap.queue_depth_hwm_step, 4);
        // A higher observation in a later step moves the attribution.
        s.note_step(9);
        s.note_queue_depth(8);
        assert_eq!(s.snapshot().queue_depth_hwm_step, 9);
    }

    #[test]
    fn action_kinds_tracked_separately_next_to_the_port() {
        let s = NetStats::new();
        s.record_remote_action();
        s.record_local_action();
        s.record_local_action();
        let port = PortStats::new();
        port.record_frame(10);
        let snap = s.snapshot(&port.snapshot());
        assert_eq!((snap.messages, snap.bytes), (1, 10));
        assert_eq!(snap.remote_actions, 1);
        assert_eq!(snap.local_actions, 2);
        s.reset();
        assert_eq!(s.snapshot(&PortSnapshot::default()), NetSnapshot::default());
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
