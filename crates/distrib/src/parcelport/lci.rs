//! LCI parcelport — explicit-progress semantics.
//!
//! HPX's LCI backend (Lightweight Communication Interface) differs from
//! TCP/MPI in *who* moves the bytes: `transmit` only deposits the frame in
//! an outbox (a lightweight completion object), and a dedicated **progress
//! engine** drains it — either driven explicitly ([`Parcelport::flush`]) or
//! by the port's background progress thread, which mirrors HPX-LCI's
//! dedicated progress pthread. Decoupling submission from delivery is what
//! buys LCI its low per-message software overhead (the calling thread
//! returns immediately; no syscall, no matching) — the property the link
//! model's `per_message_us = 18` (vs TCP's 35, MPI's 110) encodes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use amt::lock;
use apex_lite::trace::{self, Cat};

use crate::agas::LocalityId;
use crate::stats::{PortSnapshot, PortStats};

use super::{Deliver, Parcelport};

struct LciShared {
    deliver: Deliver,
    stats: PortStats,
    outbox: Mutex<VecDeque<(LocalityId, Vec<u8>)>>,
    /// Signalled when the outbox gains work (progress thread) and when it
    /// drains empty (flushers).
    activity: Condvar,
    /// Frames popped from the outbox but not yet handed to `deliver` —
    /// `flush` must not report quiescence while one is in flight.
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
}

impl LciShared {
    /// Drain everything currently queued.
    fn drain(&self) {
        let mut delivered = false;
        loop {
            let next = {
                let mut outbox = lock(&self.outbox);
                let next = outbox.pop_front();
                if next.is_some() {
                    // Claimed under the outbox lock, so a flusher checking
                    // (empty && in_flight == 0) under the same lock cannot
                    // observe the frame as "gone" before it is delivered.
                    self.in_flight.fetch_add(1, Ordering::AcqRel);
                }
                next
            };
            match next {
                Some((to, frame)) => {
                    // The explicit-progress port's real send moment is the
                    // drain, not the transmit — flows start here so the
                    // network leg excludes outbox dwell only when the
                    // latency histogram (stamped at submit) includes it.
                    let _span = trace::span(Cat::Comm, "parcel_send");
                    super::note_parcel_send(&frame);
                    self.stats.record_frame(frame.len() as u64);
                    (self.deliver)(to, frame);
                    self.in_flight.fetch_sub(1, Ordering::AcqRel);
                    delivered = true;
                }
                None => break,
            }
        }
        if delivered {
            trace::instant(Cat::Comm, "progress");
            // Wake flushers waiting for the outbox to empty.
            self.activity.notify_all();
        }
    }

    /// Whether nothing is queued and nothing is mid-delivery. Call with
    /// the outbox lock held for an exact answer.
    fn quiescent(&self, outbox: &VecDeque<(LocalityId, Vec<u8>)>) -> bool {
        outbox.is_empty() && self.in_flight.load(Ordering::Acquire) == 0
    }
}

/// The LCI backend (see module docs).
pub(crate) struct LciParcelport {
    shared: Arc<LciShared>,
    progress_thread: Option<JoinHandle<()>>,
}

impl LciParcelport {
    /// Open the port with its background progress thread running.
    pub(crate) fn new(deliver: Deliver) -> Self {
        let mut port = Self::new_manual(deliver);
        let shared = Arc::clone(&port.shared);
        let join = std::thread::Builder::new()
            .name("lci-progress".into())
            .spawn(move || progress_loop(&shared))
            .expect("failed to spawn LCI progress thread");
        port.progress_thread = Some(join);
        port
    }

    /// Open the port *without* a progress thread: frames move only on
    /// explicit [`Parcelport::flush`] calls.
    /// Used by deterministic tests.
    pub(crate) fn new_manual(deliver: Deliver) -> Self {
        LciParcelport {
            shared: Arc::new(LciShared {
                deliver,
                stats: PortStats::new(),
                outbox: Mutex::new(VecDeque::new()),
                activity: Condvar::new(),
                in_flight: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
            progress_thread: None,
        }
    }
}

fn progress_loop(shared: &LciShared) {
    loop {
        shared.drain();
        let outbox = lock(&shared.outbox);
        if shared.shutdown.load(Ordering::Acquire) && outbox.is_empty() {
            return;
        }
        if outbox.is_empty() {
            // Nap until transmit signals new work (bounded: a transmit
            // racing past the notify must not strand its frame).
            drop(
                shared
                    .activity
                    .wait_timeout(outbox, Duration::from_micros(200)),
            );
        }
    }
}

impl Parcelport for LciParcelport {
    fn transmit(&self, to: LocalityId, frame: Vec<u8>) {
        trace::instant(Cat::Comm, "transmit");
        let depth = {
            let mut outbox = lock(&self.shared.outbox);
            outbox.push_back((to, frame));
            outbox.len() as u64
        };
        self.shared.stats.note_queue_depth(depth);
        self.shared.activity.notify_all();
    }

    fn flush(&self) {
        // Help drain, then wait for quiescence (the progress thread may be
        // mid-delivery of a frame it already popped; `drain` notifies when
        // it finishes a round).
        loop {
            self.shared.drain();
            let outbox = lock(&self.shared.outbox);
            if self.shared.quiescent(&outbox) {
                return;
            }
            drop(
                self.shared
                    .activity
                    .wait_timeout(outbox, Duration::from_micros(200)),
            );
        }
    }

    fn stats(&self) -> PortSnapshot {
        self.shared.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.shared.stats.reset();
    }

    fn note_step(&self, step: u64) {
        self.shared.stats.note_step(step);
    }
}

impl Drop for LciParcelport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.activity.notify_all();
        if let Some(join) = self.progress_thread.take() {
            let _ = join.join();
        }
    }
}
