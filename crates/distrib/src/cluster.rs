//! Multi-locality cluster: components, remote actions and parcel routing.
//!
//! A [`Cluster`] simulates the paper's two-board VisionFive2 setup inside
//! one process: every locality owns its own `amt::Runtime` (one per board,
//! `--hpx:threads=4`). A remote action invocation writes its parcel, with
//! its argument's image, straight into one [`crate::frame`] (no payload or
//! parcel buffer in between) and delivers that buffer to the target
//! locality, whose runtime reads it in a *receive task*, the way HPX decodes
//! a parcel and runs its action on a worker of the target locality. For a
//! request the receive task hands the frame to the handler — which decodes
//! the argument from it in place, or, taking it as a [`Payload`], keeps the
//! frame itself — writes the result straight into the response frame and
//! sends the response; for a response it completes the caller's promise, so
//! the continuation that decodes the result from the frame runs on the
//! caller's locality. The byte/message statistics the Fig. 8
//! projection consumes are therefore measured off real framed wire images,
//! not guessed.
//!
//! Local invocations take HPX's "unified syntax" fast path: same API, no
//! wire bytes, a direct task on the local runtime.
//!
//! # Delivery
//!
//! There is one delivery path, whatever the backend: TCP, MPI, LCI and
//! Tofu-D differ only in their link model
//! ([`rv_machine::NetBackend::net_cost`]), which the Fig. 8 projection
//! applies to the counts measured here. A sent frame is counted
//! ([`Cluster::port_stats`]) and handed to a receive task on its
//! destination's runtime inline, before the call that sent it returns —
//! [`LocalityHandle::invoke`] for a request, the request's receive task for
//! the response. No thread and no queue of the cluster's own stands in
//! between, so the frames one thread sends to one destination are delivered
//! in the order sent. Dispatch order is not the cluster's: the receive
//! tasks are the destination runtime's, which may run them in any order.
//!
//! Delivery checks that a frame is readable — frame header and parcel
//! fields, in arrival order — before it hands the frame to a receive task.
//! The first buffer that is not (not a frame, or a frame whose body is not
//! a parcel) ends the cluster's remote traffic: it records why, naming the
//! destination locality, and fails every caller still waiting on a
//! response, on every locality. No frame delivered after it is dispatched,
//! and every later remote invocation fails with the same message; local
//! ones still run.
//!
//! On drop the cluster stops taking frames — any sent later are dropped,
//! like writes to a closed socket — and waits for the receive tasks of the
//! frames delivered before, since a runtime that shuts down abandons the
//! tasks still queued on it.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use amt::{lock, Future, Promise, Runtime};
use apex_lite::trace::{self, Cat};
use rv_machine::NetBackend;

use crate::frame::{self, TraceCtx};
use crate::gid::{Gid, LocalityId};
use crate::parcel::Parcel;
use crate::stats::{CommMetrics, NetSnapshot, NetStats, PortSnapshot};
use crate::wire::{self, Encode, Wire, WireError, Writer};

/// Referee shim: the frozen referee in `benchmark/` fills a `coalesce` field
/// of [`ClusterConfig`] (and of `octotiger`'s `DistConfig`) with
/// `CoalesceConfig::default()`. There is nothing to configure — every parcel
/// travels in its own frame — so this has no fields; it goes, with the two
/// fields, when a `[benchmark]` PR stops naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceConfig {}

/// Cluster construction parameters (the paper's cluster: 2 localities ×
/// 4 threads).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of localities (boards).
    pub localities: u32,
    /// Worker threads per locality (`--hpx:threads`).
    pub threads_per_locality: usize,
    /// Referee shim, ignored: the backends differ only in the Fig. 8 link
    /// model (see module docs). Goes, with `DistConfig`'s, when a
    /// `[benchmark]` PR stops naming it.
    pub backend: NetBackend,
    /// Referee shim, ignored (see [`CoalesceConfig`]).
    pub coalesce: CoalesceConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            localities: 2,
            threads_per_locality: 4,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
        }
    }
}

/// A waiting caller's continuation: decodes the result from its image in
/// the response frame — or fails the call with why there is none — and
/// completes the caller's future.
type Completion = Box<dyn FnOnce(Result<&[u8], &str>) + Send>;

/// An action's argument as it arrived: its image, inside the frame that
/// carried it, which the payload owns. An action that takes its payload
/// keeps the frame, and nothing is copied out of it.
pub struct Payload {
    frame: Vec<u8>,
    image: Range<usize>,
}

impl Payload {
    /// The argument's image.
    pub fn image(&self) -> &[u8] {
        &self.frame[self.image.clone()]
    }
}

/// A buffer that is all image: a local call's argument, or a test's.
impl From<Vec<u8>> for Payload {
    fn from(image: Vec<u8>) -> Self {
        let image_len = image.len();
        Payload {
            frame: image,
            image: 0..image_len,
        }
    }
}

/// What an action takes: a [`Wire`] value, decoded from the image in place,
/// or the [`Payload`] itself.
pub trait Arg: Sized {
    /// The argument of `payload`.
    fn take(payload: Payload) -> Result<Self, WireError>;
}

impl<T: Wire> Arg for T {
    fn take(payload: Payload) -> Result<Self, WireError> {
        wire::from_bytes(payload.image())
    }
}

impl Arg for Payload {
    fn take(payload: Payload) -> Result<Self, WireError> {
        Ok(payload)
    }
}

/// A registered action: its name, and what it runs — take the argument of
/// the payload, run, and append the image of the result to the writer, or
/// say why it could not.
struct Action {
    name: String,
    run: Box<ActionFn>,
}

type ActionFn =
    dyn Fn(&LocalityHandle, Gid, Payload, &mut Writer) -> Result<(), String> + Send + Sync;

struct LocalityInner {
    id: LocalityId,
    /// Each value is an `Arc<Mutex<T>>`: callers clone the `Arc` out and
    /// drop the map lock before locking the component itself.
    components: Mutex<HashMap<Gid, Arc<dyn Any + Send + Sync>>>,
    pending: Mutex<HashMap<u64, Completion>>,
    next_call: AtomicU64,
}

/// The receive tasks that have not finished, and whether the cluster still
/// takes frames (see module docs). Lock-free on the way of every frame; the
/// lock is only for the promise the closing cluster waits on.
#[derive(Default)]
struct Receipts {
    running: AtomicUsize,
    closed: AtomicBool,
    /// Completed by the last receive task to finish after the cluster
    /// closed.
    drained: Mutex<Option<Promise<()>>>,
}

impl Receipts {
    /// A place for one more receive task, unless the cluster closed.
    fn enter(self: &Arc<Self>) -> Option<Receipt> {
        // Count, then look: a close that looks after this count waits for
        // the task, and one that looked before has set the flag seen here.
        self.running.fetch_add(1, Ordering::SeqCst);
        let receipt = Receipt(Arc::clone(self));
        (!self.closed.load(Ordering::SeqCst)).then_some(receipt)
    }

    /// Take no more frames; the future of the last running receive task's
    /// end, if one is running.
    fn close(&self) -> Option<Future<()>> {
        self.closed.store(true, Ordering::SeqCst);
        let mut drained = lock(&self.drained);
        (self.running.load(Ordering::SeqCst) > 0).then(|| {
            let (promise, future) = amt::future_pair();
            *drained = Some(promise);
            future
        })
    }
}

/// One receive task's place in [`Receipts`], given up when the task ends —
/// or is dropped unrun.
struct Receipt(Arc<Receipts>);

impl Drop for Receipt {
    fn drop(&mut self) {
        let receipts = &self.0;
        if receipts.running.fetch_sub(1, Ordering::SeqCst) == 1
            && receipts.closed.load(Ordering::SeqCst)
        {
            // Under the lock `close` stores the promise with: either it saw
            // this task running and the promise is there, or it saw none.
            if let Some(drained) = lock(&receipts.drained).take() {
                drained.set_value(());
            }
        }
    }
}

struct ClusterInner {
    /// The sequence of the next gid, cluster-wide.
    next_gid: AtomicU64,
    actions: Mutex<HashMap<String, Arc<Action>>>,
    /// One handle per locality; a receive task lends its locality's to the
    /// handler it runs.
    localities: Vec<LocalityHandle>,
    /// What the cluster sent: frames, bytes and actions.
    stats: NetStats,
    /// Latency histogram and link matrix of the receive tasks; its own
    /// `Arc` so a counter registry can sample it after the cluster is gone.
    metrics: Arc<CommMetrics>,
    /// Its own `Arc`, so a receive task gives up its place only after it
    /// let go of the cluster.
    receipts: Arc<Receipts>,
    /// Why remote traffic ended, once a delivered buffer could not be read
    /// (see module docs).
    failure: OnceLock<String>,
    // Runtimes are deliberately kept *outside* the per-locality Arc:
    // handlers hold `Arc<LocalityInner>`, and a task running on a
    // locality's own worker must never be the one that drops that
    // locality's `Runtime` (a pool cannot join itself). The `Cluster` owner
    // drops the runtimes from its own thread instead.
    runtimes: Vec<Runtime>,
}

/// Read a delivered frame: its trace context and its parcel, in place.
fn read(framed: &[u8]) -> Result<(TraceCtx, Parcel<'_>), String> {
    let (ctx, body) =
        frame::decode(framed).map_err(|e| format!("bad frame on the parcel channel: {e}"))?;
    let parcel = Parcel::read(body).map_err(|e| format!("corrupt parcel in frame: {e}"))?;
    Ok((ctx, parcel))
}

impl ClusterInner {
    /// End remote traffic with `why`: record it (the first failure wins),
    /// then fail every caller waiting on a response, on every locality. The
    /// callers are failed outside the locks: their continuations may
    /// invoke again.
    fn fail(&self, why: String) {
        let why = self.failure.get_or_init(|| why);
        let waiting: Vec<_> = (self.localities.iter())
            .flat_map(|loc| lock(&loc.inner.pending).drain().collect::<Vec<_>>())
            .collect();
        for (_, complete) in waiting {
            complete(Err(why));
        }
    }

    /// Put `framed` on the wire to `to`: count it, and hand it to a
    /// receive task on `to`'s runtime before returning (see module docs) —
    /// unless `to` is no locality of this cluster, remote traffic has
    /// ended, the frame cannot be read (which ends it), or the cluster no
    /// longer takes frames. Each of those drops the frame.
    fn transmit(self: &Arc<Self>, to: LocalityId, framed: Vec<u8>) {
        let _span = trace::span(Cat::Comm, "parcel_send");
        self.stats.record_frame(framed.len() as u64);
        let Some(dest) = self.localities.get(to.0 as usize) else {
            return;
        };
        if self.failure.get().is_some() {
            return;
        }
        match read(&framed) {
            // The `"s"` flow event, paired with the receive task's `"f"`:
            // Perfetto draws the parcel's arrow out of this span.
            Ok((ctx, _)) => trace::flow_start(Cat::Comm, "parcel", ctx.flow),
            Err(why) => return self.fail(format!("locality {}: {why}", to.0)),
        }
        let Some(receipt) = self.receipts.enter() else {
            return;
        };
        let cluster = Arc::clone(self);
        dest.runtime.spawn_detached(move || {
            // Declared first, dropped last: the task lets go of the cluster
            // before it gives up its place.
            let _receipt = receipt;
            let cluster = cluster;
            cluster.receive(to, framed);
        });
    }

    /// The receive task of one frame on its destination `to`. Each parcel
    /// closes its causal-tracing loop here: a `parcel_recv` span encloses
    /// the `"f"` flow event matching the sender's `"s"`, the latency from
    /// the submit stamp in the wire header to the start of this task lands
    /// in the `/comms/parcel_latency` histogram, and the `origin → to` link
    /// counters advance. The histogram and link metrics stay on with
    /// tracing off — they are counters, not spans.
    fn receive(self: &Arc<Self>, to: LocalityId, framed: Vec<u8>) {
        let (ctx, parcel) = read(&framed).expect("read when delivered");
        let _span = trace::span(Cat::Comm, "parcel_recv");
        trace::flow_end(Cat::Comm, "parcel", ctx.flow);
        self.metrics
            .parcel_latency
            .record(trace::now_ns().saturating_sub(ctx.send_ns));
        let body = framed.len() - frame::BODY_AT;
        self.metrics.record_link(ctx.origin, to.0, body as u64);
        let me = &self.localities[to.0 as usize];
        match parcel {
            Parcel::Request {
                from,
                target,
                action,
                payload,
                call_id,
            } => {
                let handler = (lock(&self.actions).get(action).cloned())
                    .ok_or_else(|| format!("action {action:?} is not registered"));
                // The handler takes the frame, with where its argument lies.
                let at = payload.as_ptr().addr() - framed.as_ptr().addr();
                let image = at..at + payload.len();
                let payload = Payload {
                    frame: framed,
                    image,
                };
                let response = frame::response(TraceCtx::stamp(to.0), call_id, |out| {
                    let h = handler?;
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (h.run)(me, target, payload, out)
                    }))
                    .unwrap_or_else(|payload| {
                        // Carry the message to the caller: the run ends
                        // naming what failed, not just where.
                        let why = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("(no message)");
                        Err(format!("action {:?} panicked: {why}", h.name))
                    })
                });
                self.transmit(from, response);
            }
            Parcel::Response { call_id, result } => {
                let complete = lock(&me.inner.pending).remove(&call_id);
                if let Some(complete) = complete {
                    complete(result);
                }
            }
        }
    }
}

/// Handle to one locality of a [`Cluster`]; cloneable and `Send`, used both
/// by application drivers and inside action handlers (handlers receive the
/// handle of the locality they execute on).
#[derive(Clone)]
pub struct LocalityHandle {
    cluster: Weak<ClusterInner>,
    inner: Arc<LocalityInner>,
    runtime: amt::Handle,
}

impl LocalityHandle {
    fn cluster(&self) -> Arc<ClusterInner> {
        self.cluster.upgrade().expect("cluster has been dropped")
    }

    /// Submission handle for this locality's task runtime.
    pub fn runtime(&self) -> amt::Handle {
        self.runtime.clone()
    }

    /// Create a component *on this locality*; its gid names this locality.
    pub fn new_component<T: Send + 'static>(&self, value: T) -> Gid {
        let seq = self.cluster().next_gid.fetch_add(1, Ordering::Relaxed);
        let gid = Gid::new(self.inner.id, seq);
        lock(&self.inner.components).insert(gid, Arc::new(Mutex::new(value)));
        gid
    }

    /// Access a component stored on *this* locality. Returns `None` when no
    /// component of this locality has the gid, or it holds a different type.
    ///
    /// Only the component's own lock is held while `f` runs — the map lock
    /// is released first — so `f` may wait on work that reaches *other*
    /// components of this locality, on this very thread if the waiter helps
    /// the scheduler. Waiting on work that needs *this* component still
    /// deadlocks: do not wait under the lock of what the awaited work needs.
    pub fn with_component<T: Send + 'static, R>(
        &self,
        gid: Gid,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let any = Arc::clone(lock(&self.inner.components).get(&gid)?);
        let cell = any.downcast::<Mutex<T>>().ok()?;
        let mut guard = lock(&cell);
        Some(f(&mut guard))
    }

    /// Invoke `action` on the component `gid`, on the locality the gid
    /// names — HPX's remote function call with unified local/remote syntax.
    /// Returns the future of the (deserialized) result; remote failures
    /// (unknown action, decode errors, handler panics, remote traffic ended
    /// by an unreadable frame) surface as panics at `.get()`. Panics at once
    /// when the gid names no locality of this cluster: no frame could reach
    /// it, and the caller would wait for good.
    pub fn invoke<Req, Resp>(&self, gid: Gid, action: &str, req: &Req) -> Future<Resp>
    where
        Req: Encode + ?Sized,
        Resp: Wire + Send + 'static,
    {
        let cluster = self.cluster();
        let target = gid.creator();
        assert!(
            (target.0 as usize) < cluster.localities.len(),
            "unresolved gid {gid}: the cluster has no locality {}",
            target.0
        );
        if target == self.inner.id {
            cluster.stats.record_local_action();
            let payload = wire::to_bytes(req).expect("request serialization failed");
            let handler = lookup(&cluster, action);
            let me = self.clone();
            let action = action.to_string();
            return self.runtime().spawn(move || {
                let mut out = Writer::with_capacity(0);
                let bytes = (handler.run)(&me, gid, Payload::from(payload), &mut out)
                    .and_then(|()| out.finish().map_err(|e| format!("encode: {e}")))
                    .unwrap_or_else(|e| panic!("local action {action} failed: {e}"));
                wire::from_bytes(&bytes).expect("response deserialization failed")
            });
        }
        cluster.stats.record_remote_action();
        let me = self.inner.id;
        let call_id = self.inner.next_call.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceCtx::stamp(me.0);
        let request = frame::request(ctx, me, gid, action, call_id, req.image_len(), |out| {
            req.encode(out)
        })
        .expect("request serialization failed");
        let (promise, future) = amt::future_pair();
        let action = action.to_string();
        let complete: Completion = Box::new(move |reply| {
            // A failed call panics here, where the panic hook reports it,
            // and again at the caller's `get`.
            let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let image = reply.unwrap_or_else(|e| panic!("remote action {action} failed: {e}"));
                wire::from_bytes::<Resp>(image).expect("response deserialization failed")
            }));
            match decoded {
                Ok(resp) => promise.set_value(resp),
                Err(payload) => promise.set_panic(payload),
            }
        });
        lock(&self.inner.pending).insert(call_id, complete);
        // Insert, then look: a failure recorded after this look finds the
        // call in `pending` (`ClusterInner::fail` sets the flag first).
        match cluster.failure.get() {
            Some(why) => {
                let complete = lock(&self.inner.pending).remove(&call_id);
                if let Some(complete) = complete {
                    complete(Err(why));
                }
            }
            None => cluster.transmit(target, request),
        }
        future
    }
}

fn lookup(cluster: &ClusterInner, action: &str) -> Arc<Action> {
    lock(&cluster.actions)
        .get(action)
        .cloned()
        .unwrap_or_else(|| panic!("action {action:?} is not registered"))
}

/// The simulated cluster (see module docs). Dropping it waits for the
/// frames already delivered, then shuts down every locality's runtime.
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Boot a cluster per `config`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.localities >= 1, "need at least one locality");
        assert!(config.threads_per_locality >= 1, "need at least one thread");
        let runtimes: Vec<Runtime> = (0..config.localities)
            // Label each locality's workers with its id: a merged trace
            // shows one Chrome process lane per locality.
            .map(|i| Runtime::new_labeled(config.threads_per_locality, i))
            .collect();
        let inner = Arc::new_cyclic(|cluster: &Weak<ClusterInner>| {
            let localities = (0..config.localities)
                .map(|i| LocalityHandle {
                    cluster: cluster.clone(),
                    inner: Arc::new(LocalityInner {
                        id: LocalityId(i),
                        components: Mutex::new(HashMap::new()),
                        pending: Mutex::new(HashMap::new()),
                        next_call: AtomicU64::new(0),
                    }),
                    runtime: runtimes[i as usize].handle(),
                })
                .collect();
            ClusterInner {
                next_gid: AtomicU64::new(0),
                actions: Mutex::new(HashMap::new()),
                localities,
                stats: NetStats::default(),
                metrics: Arc::new(CommMetrics::new(config.localities)),
                receipts: Arc::default(),
                failure: OnceLock::new(),
                runtimes,
            }
        });
        Cluster { inner }
    }

    /// Register an action handler under `name` on **all** localities (like
    /// an HPX action: the same code is linked into every process image). Its
    /// argument is decoded from the frame it arrived in, or, taken as a
    /// [`Payload`], is that frame.
    pub fn register_action<Req, Resp, F>(&self, name: &str, f: F)
    where
        Req: Arg,
        Resp: Wire,
        F: Fn(&LocalityHandle, Gid, Req) -> Resp + Send + Sync + 'static,
    {
        let handler = Arc::new(Action {
            name: name.to_string(),
            run: Box::new(move |ctx, gid, arg, out| {
                let req = Req::take(arg).map_err(|e| format!("decode: {e}"))?;
                let resp = f(ctx, gid, req);
                out.reserve(resp.image_len());
                resp.encode(out);
                Ok(())
            }),
        });
        let prev = lock(&self.inner.actions).insert(name.to_string(), handler);
        assert!(prev.is_none(), "action {name:?} registered twice");
    }

    /// Handle to locality `i`.
    pub fn locality(&self, i: u32) -> LocalityHandle {
        (self.inner.localities.get(i as usize))
            .unwrap_or_else(|| panic!("no such locality {i}"))
            .clone()
    }

    /// Referee shim, a no-op: every frame is delivered inside the call
    /// that sends it (see module docs), so there is nothing to flush. Goes
    /// when a `[benchmark]` PR stops naming it.
    pub fn flush_network(&self) {}

    /// Communication statistics so far: what the cluster sent, measured
    /// wire traffic and actions.
    pub fn net_stats(&self) -> NetSnapshot {
        self.inner.stats.snapshot()
    }

    /// The wire half of [`Cluster::net_stats`] (frames, framed bytes) — the
    /// measured side of the Fig. 8 accounting.
    pub fn port_stats(&self) -> PortSnapshot {
        self.inner.stats.snapshot().port()
    }

    /// Zero the communication statistics (between measurement phases).
    pub fn reset_net_stats(&self) {
        self.inner.stats.reset();
    }

    /// Register this cluster's counters with an apex-lite registry:
    /// per-locality scheduler counters under `/runtime/locality{i}/...`
    /// (each with its own `imbalance` gauge), the cluster-wide
    /// `/runtime/imbalance` roll-up (max/mean busy time across *all*
    /// workers of *all* localities — the load-balance signal for the
    /// scale-out work), and comms counters under `/comms/...`. The comms
    /// provider holds a weak reference, so a registry never keeps the
    /// cluster alive.
    pub fn register_counters(&self, registry: &mut apex_lite::CounterRegistry) {
        for (i, rt) in self.inner.runtimes.iter().enumerate() {
            rt.handle()
                .register_counters(registry, &format!("/runtime/locality{i}"));
        }
        let handles: Vec<amt::Handle> = self.inner.runtimes.iter().map(|rt| rt.handle()).collect();
        registry.register("/runtime", move |c| {
            let all: Vec<amt::WorkerStats> =
                handles.iter().flat_map(|h| h.worker_stats()).collect();
            c.gauge("imbalance", amt::imbalance(&all));
        });
        let weak = Arc::downgrade(&self.inner);
        // The comm metrics outlive the cluster via their own Arc (they do
        // not keep runtimes alive), so the histograms stay sampleable
        // through the final post-run snapshot.
        let metrics = Arc::clone(&self.inner.metrics);
        registry.register("/comms", move |c| {
            let Some(inner) = weak.upgrade() else { return };
            let sent = inner.stats.snapshot();
            c.count("messages", sent.messages);
            c.count("bytes", sent.bytes);
            c.count("parcels", sent.port().parcels);
            c.count("remote_actions", sent.remote_actions);
            c.count("local_actions", sent.local_actions);
            c.histogram("parcel_latency", &metrics.parcel_latency.snapshot());
            for link in metrics.links() {
                c.count(
                    &format!("link{}_{}/parcels", link.src, link.dst),
                    link.parcels,
                );
                c.count(&format!("link{}_{}/bytes", link.src, link.dst), link.bytes);
            }
        });
    }

    /// Aggregate scheduler statistics across all localities.
    pub fn runtime_stats(&self) -> amt::RuntimeStats {
        let mut agg = amt::RuntimeStats::default();
        for rt in &self.inner.runtimes {
            let s = rt.stats();
            agg.tasks_spawned += s.tasks_spawned;
            agg.tasks_executed += s.tasks_executed;
            agg.steals += s.steals;
            agg.parks += s.parks;
            agg.yields += s.yields;
            agg.panics += s.panics;
        }
        agg
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Take no more frames and wait for the receive tasks of those
        // delivered: the runtimes would abandon them.
        if let Some(drained) = self.inner.receipts.close() {
            drained.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(threads_per_locality: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            localities: 2,
            threads_per_locality,
            ..ClusterConfig::default()
        })
    }

    fn two_node() -> Cluster {
        cluster(2)
    }

    #[test]
    fn component_lives_where_created() {
        let c = two_node();
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(123u64);
        assert!(l1.with_component::<u64, _>(gid, |v| *v).is_some());
        assert!(l0.with_component::<u64, _>(gid, |v| *v).is_none());
    }

    #[test]
    fn gid_encodes_creator_and_sequence() {
        let c = two_node();
        let g0 = c.locality(0).new_component(());
        let g1 = c.locality(1).new_component(());
        assert_eq!(g0.creator(), LocalityId(0));
        assert_eq!(g1.creator(), LocalityId(1));
        assert_ne!(g0, g1);
        assert_eq!(g0.sequence() + 1, g1.sequence());
    }

    #[test]
    fn gids_unique_across_threads() {
        let c = Cluster::new(ClusterConfig {
            localities: 4,
            threads_per_locality: 1,
            ..ClusterConfig::default()
        });
        let all: Vec<Gid> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let loc = c.locality(i);
                    s.spawn(move || (0..1000).map(|_| loc.new_component(())).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4000);
    }

    #[test]
    fn wrong_type_access_is_none() {
        let c = two_node();
        let l0 = c.locality(0);
        let gid = l0.new_component(1u64);
        assert!(l0.with_component::<String, _>(gid, |_| ()).is_none());
    }

    #[test]
    fn local_invoke_skips_the_wire() {
        let c = two_node();
        c.register_action("double", |ctx: &LocalityHandle, gid, x: u64| {
            ctx.with_component::<u64, _>(gid, |v| *v + x).unwrap()
        });
        let l0 = c.locality(0);
        let gid = l0.new_component(10u64);
        let r: u64 = l0.invoke(gid, "double", &5u64).get();
        assert_eq!(r, 15);
        let s = c.net_stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.local_actions, 1);
        assert_eq!(s.remote_actions, 0);
    }

    #[test]
    fn remote_invoke_crosses_the_wire() {
        let c = two_node();
        c.register_action("get", |ctx: &LocalityHandle, gid, (): ()| {
            ctx.with_component::<u64, _>(gid, |v| *v).unwrap()
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(77u64);
        let r: u64 = l0.invoke(gid, "get", &()).get();
        assert_eq!(r, 77);
        let s = c.net_stats();
        assert_eq!(s.remote_actions, 1);
        assert_eq!(s.messages, 2, "request + response");
        assert!(s.bytes > 0);
        let p = c.port_stats();
        assert_eq!(p.parcels, 2, "one parcel per frame");
        assert_eq!(p.batches, 0);
    }

    #[test]
    fn many_concurrent_remote_calls() {
        let c = two_node();
        c.register_action("add", |ctx: &LocalityHandle, gid, x: u64| {
            ctx.with_component::<u64, _>(gid, |v| {
                *v += x;
                *v
            })
            .unwrap()
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(0u64);
        let futures: Vec<amt::Future<u64>> =
            (0..100).map(|_| l0.invoke(gid, "add", &1u64)).collect();
        let results = amt::when_all(futures).get();
        assert_eq!(results.len(), 100);
        assert_eq!(l1.with_component::<u64, _>(gid, |v| *v), Some(100));
        assert_eq!(c.net_stats().remote_actions, 100);
    }

    #[test]
    fn handler_can_invoke_further_actions() {
        // Tree-traversal shape: an action on locality 1 calls back into an
        // action on locality 0.
        let c = two_node();
        c.register_action("leaf", |_ctx: &LocalityHandle, _gid, x: u64| x * 2);
        c.register_action("node", |ctx: &LocalityHandle, _gid, child: Gid| -> u64 {
            ctx.invoke::<u64, u64>(child, "leaf", &21).get()
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let leaf_gid = l0.new_component(());
        let node_gid = l1.new_component(());
        let r: u64 = l0.invoke(node_gid, "node", &leaf_gid).get();
        assert_eq!(r, 42);
    }

    #[test]
    fn unknown_action_panics_at_get() {
        let c = two_node();
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(0u64);
        let f: amt::Future<u64> = l0.invoke(gid, "missing", &());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get())).is_err());
    }

    #[test]
    fn handler_panic_reported_to_caller() {
        let c = two_node();
        c.register_action("boom", |_: &LocalityHandle, _, (): ()| -> u64 {
            panic!("handler exploded")
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(());
        let f: amt::Future<u64> = l0.invoke(gid, "boom", &());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get())).is_err());
    }

    /// Run `body` on its own thread and fail — never hang — if it has not
    /// finished after 30 s.
    fn under_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(()) => worker.join().expect("body finished"),
            // The sender is dropped without a send when the body panicked.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("body panicked"))
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("deadlock: the body is still running after 30 s")
            }
        }
    }

    #[test]
    fn a_gid_without_a_component_fails_the_call_and_never_hangs() {
        // A gid from the wire: locality bits, then the sequence.
        let raw = |locality: u64, seq: u64| -> Gid {
            crate::from_bytes(&((locality << 48) | seq).to_le_bytes()).expect("a gid")
        };
        let cases = [
            // No frame could reach locality 2: `invoke` itself panics.
            (
                raw(2, 0),
                true,
                "unresolved gid gid(2:0): the cluster has no locality 2",
            ),
            // Locality 1 has no component 999: the handler fails, and so
            // does the caller's `get`.
            (
                raw(1, 999),
                false,
                "remote action get failed: action \"get\" panicked: no component",
            ),
        ];
        for (gid, at_invoke, want) in cases {
            under_watchdog(move || {
                let c = two_node();
                c.register_action("get", |ctx: &LocalityHandle, gid, (): ()| {
                    ctx.with_component::<u64, _>(gid, |v| *v)
                        .expect("no component")
                });
                c.locality(1).new_component(7u64);
                let l0 = c.locality(0);
                let invoked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    l0.invoke::<(), u64>(gid, "get", &())
                }));
                assert_eq!(invoked.is_err(), at_invoke, "{gid}: where the call fails");
                let panic = invoked.map_or_else(
                    |panic| panic,
                    |call| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call.get()))
                            .expect_err("the caller's get fails")
                    },
                );
                let msg = panic.downcast::<String>().expect("formatted panic message");
                assert_eq!(*msg, want, "{gid}");
            });
        }
    }

    #[test]
    fn closure_may_wait_on_an_action_that_locks_another_component() {
        // The closure holds component `a` and waits for a local action that
        // locks component `b`. While `with_component` kept the component
        // *map* locked across the closure, the action's worker blocked on
        // the map for good.
        under_watchdog(|| {
            let c = two_node();
            c.register_action("read", |ctx: &LocalityHandle, gid, (): ()| -> u64 {
                ctx.with_component::<u64, _>(gid, |v| *v).unwrap()
            });
            let l0 = c.locality(0);
            let a = l0.new_component(1u64);
            let b = l0.new_component(41u64);
            let sum =
                l0.with_component::<u64, _>(a, |v| *v + l0.invoke::<(), u64>(b, "read", &()).get());
            assert_eq!(sum, Some(42));
        });
    }

    #[derive(Debug, PartialEq)]
    struct GhostMsg {
        face: u8,
        data: Vec<f64>,
    }

    crate::wire_struct!(GhostMsg {
        face: u8,
        data: Vec<f64>
    });

    #[test]
    fn structured_payloads_roundtrip_across_wire() {
        let c = two_node();
        c.register_action("reflect", |_: &LocalityHandle, _, g: GhostMsg| GhostMsg {
            face: g.face + 1,
            data: g.data.iter().map(|x| x * 2.0).collect(),
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(());
        let out: GhostMsg = l0
            .invoke(
                gid,
                "reflect",
                &GhostMsg {
                    face: 1,
                    data: vec![1.0, 2.0],
                },
            )
            .get();
        assert_eq!(
            out,
            GhostMsg {
                face: 2,
                data: vec![2.0, 4.0]
            }
        );
    }

    #[test]
    fn bytes_scale_with_payload() {
        let c = two_node();
        c.register_action("sink", |_: &LocalityHandle, _, _v: Vec<f64>| 0u8);
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(());
        let _: u8 = l0.invoke(gid, "sink", &vec![0.0f64; 10]).get();
        let small = c.net_stats().bytes;
        c.reset_net_stats();
        let _: u8 = l0.invoke(gid, "sink", &vec![0.0f64; 1000]).get();
        let large = c.net_stats().bytes;
        assert!(large > small + 7000, "small={small} large={large}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_action_registration_panics() {
        let c = two_node();
        c.register_action("a", |_: &LocalityHandle, _, (): ()| 0u8);
        c.register_action("a", |_: &LocalityHandle, _, (): ()| 0u8);
    }

    #[test]
    fn comm_metrics_surface_latency_histogram_and_links() {
        let c = two_node();
        c.register_action("get", |ctx: &LocalityHandle, gid, (): ()| {
            ctx.with_component::<u64, _>(gid, |v| *v).unwrap()
        });
        let l0 = c.locality(0);
        let l1 = c.locality(1);
        let gid = l1.new_component(9u64);
        for _ in 0..5 {
            let _: u64 = l0.invoke(gid, "get", &()).get();
        }
        let mut reg = apex_lite::CounterRegistry::new();
        c.register_counters(&mut reg);
        let snap = reg.sample();
        let h = snap
            .histogram("/comms/parcel_latency")
            .expect("latency histogram registered");
        // Every received parcel recorded exactly one latency observation.
        assert_eq!(h.count(), snap.count("/comms/parcels"));
        assert_eq!(h.count(), 10, "5 requests + 5 responses");
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        // Both directed links carried traffic: requests 0→1, responses 1→0.
        assert_eq!(snap.count("/comms/link0_1/parcels"), 5);
        assert_eq!(snap.count("/comms/link1_0/parcels"), 5);
        assert!(snap.count("/comms/link0_1/bytes") > 0);
    }

    #[test]
    fn bad_frame_fails_remote_invokes_naming_locality_and_error() {
        // A header of the retired multi-parcel kind, and a good frame around
        // a body that is no parcel, each straight onto the wire.
        let cases = [
            (
                vec![0x7e, 0x0c, 2, 2, 0, 0, 0],
                "locality 1: bad frame on the parcel channel: bad frame kind 2",
            ),
            (
                frame::encode(&[9, 0, 0, 0], TraceCtx::default()),
                "locality 1: corrupt parcel in frame: invalid variant index 9",
            ),
        ];
        for (bad, want) in cases {
            under_watchdog(move || {
                let c = two_node();
                c.register_action("get", |ctx: &LocalityHandle, gid, (): ()| {
                    ctx.with_component::<u64, _>(gid, |v| *v).unwrap()
                });
                let l0 = c.locality(0);
                let gid = c.locality(1).new_component(7u64);
                c.inner.transmit(LocalityId(1), bad);
                // The first call may go out before the loop meets the bad
                // buffer (its promise is failed with the rest), the second after.
                for call in ["first", "second"] {
                    let f: amt::Future<u64> = l0.invoke(gid, "get", &());
                    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()))
                        .expect_err("a remote invoke after a bad frame fails");
                    let msg = panic.downcast::<String>().expect("formatted panic message");
                    assert_eq!(*msg, format!("remote action get failed: {want}"), "{call}");
                }
                assert_eq!(c.inner.failure.get().map(String::as_str), Some(want));
            });
        }
    }

    /// Register `name` on `c`: an action that takes one message off the
    /// returned sender's channel, then counts its call.
    fn gated_action(c: &Cluster, name: &str) -> (Arc<AtomicUsize>, std::sync::mpsc::Sender<()>) {
        let (open, gate) = std::sync::mpsc::channel();
        let gate = Mutex::new(gate);
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        c.register_action(name, move |_: &LocalityHandle, _, (): ()| {
            lock(&gate).recv().expect("the test holds the sender");
            counter.fetch_add(1, Ordering::SeqCst);
        });
        (calls, open)
    }

    #[test]
    fn no_frame_after_a_bad_frame_is_dispatched() {
        under_watchdog(|| {
            let c = two_node();
            let (calls, open) = gated_action(&c, "touch");
            for _ in 0..2 {
                open.send(()).expect("gate");
            }
            let gid = c.locality(1).new_component(());
            let request = |call_id| {
                let ctx = TraceCtx::stamp(0);
                frame::request(ctx, LocalityId(0), gid, "touch", call_id, 0, |_| ()).unwrap()
            };
            // Straight onto the wire: a request, a frame of the retired
            // multi-parcel kind, the same request again.
            c.inner.transmit(LocalityId(1), request(100));
            c.inner
                .transmit(LocalityId(1), vec![0x7e, 0x0c, 2, 2, 0, 0, 0]);
            c.inner.transmit(LocalityId(1), request(101));
            // Dropping the cluster waits for the receive tasks of what was
            // delivered.
            drop(c);
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "only the first request ran"
            );
        });
    }

    #[test]
    fn requests_are_delivered_inside_invoke_in_the_order_sent() {
        under_watchdog(|| {
            let c = cluster(1);
            let (open, gate) = std::sync::mpsc::channel::<()>();
            let gate = Mutex::new(gate);
            c.register_action("log", move |ctx: &LocalityHandle, gid, i: u64| {
                if i == 0 {
                    lock(&gate).recv().expect("the test holds the sender");
                }
                ctx.with_component::<Vec<u64>, _>(gid, |log| log.push(i))
                    .unwrap();
            });
            let gid = c.locality(1).new_component(Vec::<u64>::new());
            let l0 = c.locality(0);
            // The first call holds locality 1's one worker, so no response
            // is sent and no receive task ends until the gate opens: each
            // invoke must have counted its request and handed it to a
            // receive task on locality 1 by the time it returns, which
            // delivers them in the order sent.
            let calls: Vec<Future<()>> = (0..20u64)
                .map(|i| {
                    let call = l0.invoke(gid, "log", &i);
                    assert_eq!(c.port_stats().messages, i + 1, "request {i} counted");
                    let running = c.inner.receipts.running.load(Ordering::SeqCst);
                    assert_eq!(running as u64, i + 1, "request {i} handed over");
                    call
                })
                .collect();
            open.send(()).expect("the first call waits on the gate");
            amt::when_all(calls).get();
            assert_eq!(c.port_stats().messages, 40, "and the responses");
            // One worker dispatches them in arrival order: it takes a
            // backlog from its injector in batches and pops each batch
            // oldest first.
            let log = (c.locality(1))
                .with_component::<Vec<u64>, _>(gid, |log| log.clone())
                .unwrap();
            assert_eq!(log, (0..20).collect::<Vec<_>>(), "each once, in order");
        });
    }

    #[test]
    fn drop_dispatches_every_frame_delivered_before_it() {
        under_watchdog(|| {
            let c = cluster(1);
            let (calls, open) = gated_action(&c, "gated");
            let gid = c.locality(1).new_component(());
            let l0 = c.locality(0);
            // Their responses are sent after the drop, and dropped.
            let _in_flight: Vec<Future<()>> =
                (0..20).map(|_| l0.invoke(gid, "gated", &())).collect();
            // The first call holds locality 1's one worker until the
            // cluster has closed, so the drop meets the other frames still
            // queued.
            let receipts = Arc::clone(&c.inner.receipts);
            let opener = std::thread::spawn(move || {
                while !receipts.closed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                for _ in 0..20 {
                    open.send(()).expect("the calls wait on the gate");
                }
            });
            drop(c);
            opener.join().expect("opener");
            assert_eq!(calls.load(Ordering::SeqCst), 20);
        });
    }
}
