//! Lock-light span tracer — the APEX stand-in.
//!
//! HPX ships with APEX ("Autonomic Performance Environment for eXascale"),
//! which attaches a begin/end event to every hpx-thread and flushes them as
//! OTF2/Chrome traces. This module reproduces the part the paper's analysis
//! actually leans on: scoped spans with nanosecond timestamps, recorded into
//! **per-thread ring buffers** so the hot path never takes a shared lock,
//! and drained post-run into a [`Trace`] for the Chrome exporter.
//!
//! Cost discipline:
//!
//! * **Disabled** (the default): [`span`] reads one relaxed atomic and
//!   returns a disarmed guard. No clock read, no allocation, no
//!   thread-local buffer is ever created — verified by the
//!   [`tracer_allocs`] test hook.
//! * **Enabled**: a span costs two `Instant` reads and one write into a
//!   pre-allocated ring slot behind the thread's own (uncontended) mutex.
//!   The ring overwrites its oldest events when full ([`RING_CAPACITY`]),
//!   counting drops, so tracing can stay on for arbitrarily long runs in
//!   bounded memory. Because a span is recorded at *completion*, parents
//!   complete after their children; overwriting the oldest records drops
//!   leaf children first and never breaks the nesting of what remains.
//!
//! Threads are identified by a process-wide unique `tid` plus a `pid`
//! label. Single-node runs leave `pid = 0`; the distrib cluster labels each
//! locality's workers with the locality id, so a merged trace shows one
//! Chrome "process" lane per locality.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before the ring starts overwriting the
/// oldest (drops are counted in [`Trace::dropped`]).
pub(crate) const RING_CAPACITY: usize = 65_536;

/// Span/event category — becomes the Chrome trace `cat` field, one per
/// instrumented layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cat {
    /// Scheduler task execution (`amt` worker running one task).
    Task,
    /// Scheduler machinery: steals, parks, yields.
    Sched,
    /// Application driver phases (hydro step, gravity solve, regrid...).
    Phase,
    /// Gravity solver internals (P2P/M2L batches, cache rebuilds).
    Gravity,
    /// Communication: parcelport transmits, progress, network flushes.
    Comm,
}

impl Cat {
    /// The Chrome-trace category string.
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Task => "task",
            Cat::Sched => "sched",
            Cat::Phase => "phase",
            Cat::Gravity => "gravity",
            Cat::Comm => "comm",
        }
    }
}

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (`ph: "X"` in Chrome terms).
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point event (`ph: "i"`).
    Instant,
    /// Start of a causal flow arrow (`ph: "s"`): the send side of a
    /// cross-thread/cross-locality edge, paired by `id`.
    FlowStart {
        /// Flow id matching the corresponding [`EventKind::FlowEnd`].
        id: u64,
    },
    /// End of a causal flow arrow (`ph: "f"`, binding point `"e"`).
    FlowEnd {
        /// Flow id matching the corresponding [`EventKind::FlowStart`].
        id: u64,
    },
}

/// One recorded event. `name` is `&'static str` by design: recording never
/// allocates or copies strings.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Category (layer).
    pub cat: Cat,
    /// Event name.
    pub name: &'static str,
    /// Start time, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
}

/// Identity of one recorded thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadMeta {
    /// Chrome process lane (locality id for cluster runs, 0 otherwise).
    pub pid: u32,
    /// Process-wide unique thread id.
    pub tid: u32,
    /// Human-readable lane name ("worker3", "driver", ...).
    pub name: String,
}

/// How a thread announces itself to the tracer before its first event.
/// `Copy` on purpose: labelling must not allocate (it runs on scheduler
/// startup paths that the zero-alloc guarantee covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadLabel {
    /// A scheduler worker: named `worker{index}`.
    Worker(u32),
    /// Any other named runtime thread.
    Named(&'static str),
}

/// Everything drained from the ring buffers: per-thread event streams in
/// completion order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One entry per thread that recorded at least one event (ever).
    pub threads: Vec<(ThreadMeta, Vec<Event>)>,
    /// Events lost to ring overwrites across all threads.
    pub dropped: u64,
}

impl Trace {
    /// Total events across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|(_, e)| e.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count events whose name matches `name` (spans and instants).
    pub fn count_name(&self, name: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .filter(|e| e.name == name)
            .count() as u64
    }

    /// Count events in category `cat`.
    pub fn count_cat(&self, cat: Cat) -> u64 {
        self.threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .filter(|e| e.cat == cat)
            .count() as u64
    }
}

struct Ring {
    events: Vec<Event>,
    /// Next overwrite position once `events` has reached capacity.
    write: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(e);
        } else {
            self.events[self.write] = e;
            self.write = (self.write + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Take the events in completion order, leaving the ring empty.
    fn drain(&mut self) -> (Vec<Event>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        let mut events = std::mem::take(&mut self.events);
        if self.write > 0 {
            events.rotate_left(self.write);
            self.write = 0;
        }
        (events, dropped)
    }
}

struct ThreadBuf {
    meta: Mutex<ThreadMeta>,
    ring: Mutex<Ring>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
/// Test hook: allocations performed by the tracer (ring-buffer creation).
static TRACER_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    /// Label announced before the thread's buffer exists (Copy — no alloc).
    static PENDING: RefCell<Option<(u32, ThreadLabel)>> = const { RefCell::new(None) };
}

/// Turn recording on or off, process-wide. Off is the default and costs
/// one relaxed load per [`span`] call.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Allocations the tracer has performed since process start — the
/// zero-cost-when-disabled test hook. Disabled tracing must leave this
/// unchanged across any amount of scheduler work.
pub fn tracer_allocs() -> u64 {
    TRACER_ALLOCS.load(Ordering::Relaxed)
}

/// Announce this thread's trace identity (pid lane + label) before it
/// records anything. Never allocates; the name string is only materialized
/// if/when the thread actually records an event with tracing enabled.
pub fn set_thread_label(pid: u32, label: ThreadLabel) {
    let updated = BUF.with(|b| {
        if let Some(buf) = b.borrow().as_ref() {
            let mut meta = buf.meta.lock().expect("tracer meta poisoned");
            meta.pid = pid;
            meta.name = label_name(label);
            true
        } else {
            false
        }
    });
    if !updated {
        PENDING.with(|p| *p.borrow_mut() = Some((pid, label)));
    }
}

fn label_name(label: ThreadLabel) -> String {
    match label {
        ThreadLabel::Worker(i) => format!("worker{i}"),
        ThreadLabel::Named(n) => n.to_string(),
    }
}

/// Nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn with_buf(f: impl FnOnce(&mut Ring)) {
    BUF.with(|b| {
        let mut slot = b.borrow_mut();
        if slot.is_none() {
            let (pid, label) = PENDING
                .with(|p| *p.borrow())
                .unwrap_or((0, ThreadLabel::Named("thread")));
            let name = match (label, std::thread::current().name()) {
                (ThreadLabel::Named("thread"), Some(os_name)) => os_name.to_string(),
                _ => label_name(label),
            };
            let buf = Arc::new(ThreadBuf {
                meta: Mutex::new(ThreadMeta {
                    pid,
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    name,
                }),
                ring: Mutex::new(Ring {
                    events: Vec::with_capacity(RING_CAPACITY),
                    write: 0,
                    dropped: 0,
                }),
            });
            TRACER_ALLOCS.fetch_add(1, Ordering::Relaxed);
            registry()
                .lock()
                .expect("tracer registry poisoned")
                .push(Arc::clone(&buf));
            *slot = Some(buf);
        }
        let buf = slot.as_ref().expect("just installed");
        f(&mut buf.ring.lock().expect("tracer ring poisoned"));
    });
}

/// RAII guard for one traced span. Records a completed span (start →
/// drop) into the calling thread's ring buffer; a disarmed guard (tracing
/// off at creation) does nothing on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    start_ns: u64,
    cat: Cat,
    name: &'static str,
    armed: bool,
}

/// Open a span of `cat`/`name` covering the guard's lifetime.
#[inline]
pub fn span(cat: Cat, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start_ns: 0,
            cat,
            name,
            armed: false,
        };
    }
    SpanGuard {
        start_ns: now_ns(),
        cat,
        name,
        armed: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let ev = Event {
            cat: self.cat,
            name: self.name,
            ts_ns: self.start_ns,
            kind: EventKind::Span {
                dur_ns: end.saturating_sub(self.start_ns),
            },
        };
        with_buf(|ring| ring.push(ev));
    }
}

/// Record a point event.
#[inline]
pub fn instant(cat: Cat, name: &'static str) {
    if !enabled() {
        return;
    }
    let ev = Event {
        cat,
        name,
        ts_ns: now_ns(),
        kind: EventKind::Instant,
    };
    with_buf(|ring| ring.push(ev));
}

/// Record the start of causal flow `id` (the send side of a parcel edge).
/// Use the same `name` on both ends — Perfetto pairs `"s"`/`"f"` events by
/// (name, id) and draws the arrow between their enclosing slices.
#[inline]
pub fn flow_start(cat: Cat, name: &'static str, id: u64) {
    if !enabled() {
        return;
    }
    let ev = Event {
        cat,
        name,
        ts_ns: now_ns(),
        kind: EventKind::FlowStart { id },
    };
    with_buf(|ring| ring.push(ev));
}

/// Record the end of causal flow `id` (the receive side of a parcel edge).
#[inline]
pub fn flow_end(cat: Cat, name: &'static str, id: u64) {
    if !enabled() {
        return;
    }
    let ev = Event {
        cat,
        name,
        ts_ns: now_ns(),
        kind: EventKind::FlowEnd { id },
    };
    with_buf(|ring| ring.push(ev));
}

/// Drain every thread's ring buffer into one [`Trace`], leaving the
/// buffers empty. Threads that have died since recording are included;
/// threads that never recorded are not.
pub fn drain() -> Trace {
    let bufs: Vec<Arc<ThreadBuf>> = registry()
        .lock()
        .expect("tracer registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut trace = Trace::default();
    for buf in bufs {
        let meta = buf.meta.lock().expect("tracer meta poisoned").clone();
        let (events, dropped) = buf.ring.lock().expect("tracer ring poisoned").drain();
        trace.dropped += dropped;
        if !events.is_empty() {
            trace.threads.push((meta, events));
        }
    }
    trace.threads.sort_by_key(|(m, _)| (m.pid, m.tid));
    trace
}

/// Discard everything recorded so far (all threads).
pub fn reset() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests in this module serialize on one
    // lock so they cannot see each other's events.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(false);
        g
    }

    #[test]
    fn disabled_records_nothing_and_never_allocates() {
        let _g = guard();
        let before = tracer_allocs();
        for _ in 0..100 {
            let _s = span(Cat::Task, "execute");
            instant(Cat::Sched, "steal");
        }
        assert_eq!(tracer_allocs(), before, "disabled tracer allocated");
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_records_spans_in_completion_order() {
        let _g = guard();
        set_enabled(true);
        {
            let _outer = span(Cat::Phase, "outer");
            {
                let _inner = span(Cat::Phase, "inner");
            }
            instant(Cat::Sched, "tick");
        }
        set_enabled(false);
        let t = drain();
        assert_eq!(t.len(), 3);
        let events: Vec<&Event> = t.threads.iter().flat_map(|(_, e)| e.iter()).collect();
        // Completion order: inner closes before outer.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "tick");
        assert_eq!(events[2].name, "outer");
        let (inner, outer) = (events[0], events[2]);
        let (EventKind::Span { dur_ns: di }, EventKind::Span { dur_ns: do_ }) =
            (inner.kind, outer.kind)
        else {
            panic!("expected spans");
        };
        assert!(outer.ts_ns <= inner.ts_ns, "outer starts first");
        assert!(
            outer.ts_ns + do_ >= inner.ts_ns + di,
            "outer ends last: outer {}+{} vs inner {}+{}",
            outer.ts_ns,
            do_,
            inner.ts_ns,
            di
        );
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = guard();
        set_enabled(true);
        for _ in 0..RING_CAPACITY + 10 {
            instant(Cat::Sched, "tick");
        }
        set_enabled(false);
        let t = drain();
        assert_eq!(t.len(), RING_CAPACITY);
        assert_eq!(t.dropped, 10);
        // Retained events are the most recent and still time-ordered.
        let events: Vec<&Event> = t.threads.iter().flat_map(|(_, e)| e.iter()).collect();
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn labels_apply_to_later_buffers_and_live_ones() {
        let _g = guard();
        set_enabled(true);
        std::thread::spawn(|| {
            set_thread_label(7, ThreadLabel::Worker(3));
            instant(Cat::Sched, "hello");
            // Relabelling a live buffer also works.
            set_thread_label(7, ThreadLabel::Named("renamed"));
            instant(Cat::Sched, "bye");
        })
        .join()
        .unwrap();
        set_enabled(false);
        let t = drain();
        let (meta, events) = &t.threads[0];
        assert_eq!(meta.pid, 7);
        assert_eq!(meta.name, "renamed");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn flow_events_record_ids_and_gate_on_enabled() {
        let _g = guard();
        flow_start(Cat::Comm, "parcel", 1);
        flow_end(Cat::Comm, "parcel", 1);
        assert!(drain().is_empty(), "disabled flows record nothing");
        set_enabled(true);
        flow_start(Cat::Comm, "parcel", 42);
        flow_end(Cat::Comm, "parcel", 42);
        set_enabled(false);
        let t = drain();
        assert_eq!(t.len(), 2);
        let events: Vec<&Event> = t.threads.iter().flat_map(|(_, e)| e.iter()).collect();
        assert_eq!(events[0].kind, EventKind::FlowStart { id: 42 });
        assert_eq!(events[1].kind, EventKind::FlowEnd { id: 42 });
    }

    #[test]
    fn count_helpers() {
        let _g = guard();
        set_enabled(true);
        instant(Cat::Comm, "transmit");
        instant(Cat::Comm, "transmit");
        {
            let _s = span(Cat::Gravity, "cache_rebuild");
        }
        set_enabled(false);
        let t = drain();
        assert_eq!(t.count_name("transmit"), 2);
        assert_eq!(t.count_cat(Cat::Gravity), 1);
        assert_eq!(t.count_name("nothing"), 0);
    }
}
