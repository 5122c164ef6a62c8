//! The step as data: one [`StepPlan`] per (topology generation, ownership)
//! holds a time step's dependency graph over the owned leaves and the
//! deposits exchanged with each peer, and one countdown executor
//! ([`StepPlan::execute`]) runs it on `amt` tasks — the paper's HPX
//! futurization (§3.1) at sub-grid granularity, parcels included.
//!
//! ```text
//! Cfl(k) ─┬─────────────► Dt ◄── RateIn(p) ◄── p's deposit
//!         └► RateOut(p)    ├──► Gravity(j), j = 0 … n−1, then
//!         │                └──► Hydro(j), j in reverse wavefront order
//! P2m(k) ─┬─────────────► Moments ◄── BlocksIn(p) ◄── p's deposit
//!         ├► BlocksOut(p)   └──► Gravity(j), j = 0 … n−1
//!         └─────────────► WriteBack(k) ◄── Hydro(j) for every owned j whose gather reads k
//! HaloOut(p) ───────────► WriteBack(k) for every k that p's gathers read
//! HaloIn(p) ◄── p's deposit; ──► Hydro(j) for every owned j whose gather reads p's leaves
//! WriteBack(k), Gravity(k) ──► Source(k)
//! ```
//!
//! Kernel nodes get a task each; every other node runs inline where its
//! last predecessor retires (an in-node where its deposit completes), all in
//! one scope that the step waits on once. One root task runs the halo sends
//! and spawns CFL, then P2M, so its worker pops P2M first. `Dt` releases
//! gravity below hydro, so one worker runs every hydro task and write-back
//! before the first gravity task, and pops hydro in wavefront order: a
//! result is held only until the order has passed its leaf's readers.

use std::sync::atomic::{AtomicU32, Ordering};

use amt::par::{scope, Scope};
use amt::{Future, Handle};
use distrib::{Encode, Payload};
use Kind::*;

/// The kinds of a step's nodes, in id order. The first four are kernels: a
/// leaf's CFL rate, P2M blocks, hydro update (held until the write-back) and
/// gravity solve. `WriteBack` applies the held update, `Source` the gravity
/// source; `Dt` folds every CFL rate, `Moments` runs the M2M pass and the
/// lists over the completed block table. Per peer, the `…Out` nodes ship
/// this step's deposit of their kind — the interior of each leaf the peer's
/// gathers read, the step's CFL rate, the P2M blocks of each owned leaf
/// (leaves by position) — and the `…In` nodes install the peer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Cfl,
    P2m,
    Hydro,
    Gravity,
    WriteBack,
    Source,
    Dt,
    Moments,
    HaloOut,
    RateOut,
    BlocksOut,
    HaloIn,
    RateIn,
    BlocksIn,
}

/// A node of a step: its kind and index — the owned leaf's for the first
/// six kinds, 0 for `Dt` and `Moments`, the peer's for the rest.
pub(crate) type Node = (Kind, usize);

/// Every kind, in id order; the first `TASKS` are kernel tasks.
const KINDS: [Kind; 14] = [
    Cfl, P2m, Hydro, Gravity, WriteBack, Source, Dt, Moments, HaloOut, RateOut, BlocksOut, HaloIn,
    RateIn, BlocksIn,
];
const TASKS: usize = 4;

/// What the plan knows of one peer.
pub(crate) struct Peer<'a> {
    /// The owned leaf positions its gathers read (`HaloOut` ships them).
    pub(crate) reads: &'a [usize],
    /// Whether it owns the leaf at a position.
    pub(crate) owns: &'a dyn Fn(usize) -> bool,
}

/// Ship a send node's deposit: its image, written straight into the frame
/// that carries it to the peer.
pub(crate) type Ship<'a> = dyn Fn(&dyn Encode) + 'a;

/// What a step's nodes do: `run(node, deposit, ship)` runs `node`; an
/// in-node gets the deposit it installs — the frame it arrived in — and a
/// send node writes the one it ships through `ship`.
pub(crate) type Run<'a> = dyn Fn(Node, Option<Payload>, &Ship) + Sync + 'a;

/// Write a send node's image into a frame to its peer; the future of its
/// delivery.
pub(crate) type Sender<'a> = dyn Fn(Node, &dyn Encode) -> Future<()> + Sync + 'a;

/// A step's link to its peers.
pub(crate) struct Link<'a> {
    /// Per in-node, in id order: the future of the peer's deposit, a frame.
    pub(crate) arrivals: Vec<Future<Payload>>,
    /// What ships the send nodes' deposits.
    pub(crate) send: &'a Sender<'a>,
}

/// The dependency graph of one step over `n` owned leaves and `peers`
/// peers.
pub(crate) struct StepPlan {
    /// Ids are kind-major: kind `KINDS[i]`'s nodes are ids
    /// `start[i]..start[i + 1]`, in index order.
    start: [usize; KINDS.len() + 1],
    /// Per node: how many predecessors retire before it runs (an in-node's
    /// one is its deposit).
    preds: Vec<u32>,
    /// Node `i`'s successors, in release order: `succ[first[i]..first[i + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
}

impl StepPlan {
    /// The plan over the owned leaves at `owned` (ascending leaf positions),
    /// whose gathers read the leaves at `sources(pos)` (ascending:
    /// [`crate::octree::Octree::gather_sources`]; halo leaves are no node),
    /// exchanging with `peers`.
    pub(crate) fn new<'s>(
        owned: &[usize],
        sources: impl Fn(usize) -> &'s [u32],
        peers: &[Peer],
    ) -> Self {
        let (n, np) = (owned.len(), peers.len());
        let mut start = [0; KINDS.len() + 1];
        for i in 0..KINDS.len() {
            // `n` of each leaf kind, one `Dt` and one `Moments`, `np` of each peer kind.
            start[i + 1] = start[i] + [n, 1, np][usize::from(i >= 6) + usize::from(i >= 8)];
        }
        let mut plan = StepPlan {
            start,
            preds: vec![0; start[KINDS.len()]],
            first: vec![0],
            succ: Vec::new(),
        };
        let owned_at = |pos: usize| owned.binary_search(&pos).ok();
        let sources = |j: usize| sources(owned[j]).iter().map(|&pos| pos as usize);
        // Per owned leaf, the owned leaves its gather reads.
        let reads: Vec<Vec<usize>> = (0..n)
            .map(|j| sources(j).filter_map(owned_at).collect())
            .collect();
        // A worker pops the last released first: the wavefront order, reversed.
        let release: Vec<usize> = wavefront_order(&reads).into_iter().rev().collect();
        let per_peer = |kind| (0..np).map(move |p| (kind, p));
        for id in 0..plan.preds.len() {
            let next: Vec<Node> = match plan.node(id) {
                (Cfl, _) => per_peer(RateOut).chain([(Dt, 0)]).collect(),
                (P2m, k) => [(WriteBack, k)]
                    .into_iter()
                    .chain(per_peer(BlocksOut))
                    .chain([(Moments, 0)])
                    .collect(),
                (Hydro, j) => reads[j].iter().map(|&k| (WriteBack, k)).collect(),
                (Gravity | WriteBack, k) => vec![(Source, k)],
                (Source | RateOut | BlocksOut, _) => Vec::new(),
                (Dt, _) => (0..n)
                    .map(|j| (Gravity, j))
                    .chain(release.iter().map(|&j| (Hydro, j)))
                    .collect(),
                (Moments, _) => (0..n).map(|j| (Gravity, j)).collect(),
                (HaloOut, p) => (peers[p].reads.iter())
                    .filter_map(|&pos| owned_at(pos))
                    .map(|k| (WriteBack, k))
                    .collect(),
                (HaloIn, p) => (release.iter())
                    .filter(|&&j| sources(j).any(peers[p].owns))
                    .map(|&j| (Hydro, j))
                    .collect(),
                (RateIn, _) => vec![(Dt, 0)],
                (BlocksIn, _) => vec![(Moments, 0)],
            };
            for node in next {
                let s = plan.id(node);
                plan.preds[s] += 1;
                plan.succ.push(s as u32);
            }
            plan.first.push(plan.succ.len() as u32);
        }
        for id in plan.in_nodes() {
            plan.preds[id] += 1;
        }
        plan
    }

    fn node(&self, id: usize) -> Node {
        let i = self.start.partition_point(|&s| s <= id) - 1;
        (KINDS[i], id - self.start[i])
    }

    fn id(&self, (kind, i): Node) -> usize {
        self.start[kind as usize] + i
    }

    fn successors(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.first[id] as usize..self.first[id + 1] as usize;
        self.succ[range].iter().map(|&s| s as usize)
    }

    /// The nodes of `kinds`, in id order.
    fn ids(&self, kinds: std::ops::Range<Kind>) -> std::ops::Range<usize> {
        self.start[kinds.start as usize]..self.start[kinds.end as usize]
    }

    /// The nodes without predecessors: the halo sends, the CFL, then the P2M
    /// tasks.
    fn roots(&self) -> Vec<usize> {
        self.ids(HaloOut..RateOut)
            .chain(self.ids(Cfl..Hydro))
            .collect()
    }

    /// The in-nodes, in id order: the nodes a deposit releases.
    fn in_nodes(&self) -> std::ops::Range<usize> {
        self.start[HaloIn as usize]..self.start[KINDS.len()]
    }

    /// Run every node once, after all its predecessors, by calling `run` on
    /// it; an in-node once its deposit in `link` has arrived. A countdown is
    /// released by each predecessor and acquired by the one that empties it.
    /// No task waits, on the wire or on another task: this waits, once.
    pub(crate) fn execute(&self, handle: &Handle, link: Option<Link>, run: &Run) {
        let alone = |_, _: &dyn Encode| unreachable!("a plan without peers ships nothing");
        let Link { arrivals, send } = link.unwrap_or(Link {
            arrivals: Vec::new(),
            send: &alone,
        });
        assert_eq!(arrivals.len(), self.in_nodes().len(), "in-nodes");
        let exec = Countdown {
            plan: self,
            left: self.preds.iter().map(|&p| p.into()).collect(),
            run,
            send,
        };
        let exec = &exec;
        let roots = self.roots();
        scope(handle, |sc| {
            for (id, arrival) in self.in_nodes().zip(arrivals) {
                sc.then(arrival, move |deposit| {
                    exec.left[id].fetch_sub(1, Ordering::AcqRel);
                    exec.retire(id, Some(deposit), sc);
                });
            }
            sc.spawn(move || roots.into_iter().for_each(|id| exec.release(id, sc)));
        });
        let ran = exec.left.iter().all(|c| c.load(Ordering::Relaxed) == 0);
        assert!(ran, "every node ran once");
    }
}

/// The Cuthill–McKee order of the reader graph (`reads[j]`: the leaves
/// `j`'s gather reads): each component breadth first from a pseudo-peripheral
/// leaf (where a pass from one of least degree ends), neighbours by
/// ascending degree. Hydro in this order holds a result about one front
/// long: 159 at level 4, against 241 in leaf order and 173 in the reverse
/// order.
fn wavefront_order(reads: &[Vec<usize>]) -> Vec<usize> {
    let degree = |j: &usize| reads[*j].len();
    // Append `start`'s component, breadth first, to `order`.
    let visit = |start: usize, order: &mut Vec<usize>, seen: &mut [bool]| {
        let mut next = order.len();
        seen[start] = true;
        order.push(start);
        while let Some(&j) = order.get(next) {
            next += 1;
            let mut fresh: Vec<usize> = (reads[j].iter().copied())
                .filter(|&k| !std::mem::replace(&mut seen[k], true))
                .collect();
            fresh.sort_by_key(degree);
            order.extend(fresh);
        }
    };
    let mut starts: Vec<usize> = (0..reads.len()).collect();
    starts.sort_by_key(degree);
    let (mut order, mut seen) = (Vec::with_capacity(reads.len()), vec![false; reads.len()]);
    for start in starts {
        if seen[start] {
            continue;
        }
        let from = order.len();
        visit(start, &mut order, &mut seen);
        let far = order[order.len() - 1];
        for &j in &order[from..] {
            seen[j] = false;
        }
        order.truncate(from);
        visit(far, &mut order, &mut seen);
    }
    order
}

/// One execution of a plan: the countdowns still open, per node (an
/// in-node's last one is left to its deposit).
struct Countdown<'a> {
    plan: &'a StepPlan,
    left: Vec<AtomicU32>,
    run: &'a Run<'a>,
    send: &'a Sender<'a>,
}

impl Countdown<'_> {
    /// Node `id` is ready: spawn it if it is a kernel, else run it here.
    fn release<'s>(&'s self, id: usize, sc: &'s Scope<'s, '_>) {
        if id < self.plan.start[TASKS] {
            sc.spawn(move || self.retire(id, None, sc));
        } else {
            self.retire(id, None, sc);
        }
    }

    /// Run node `id` (an in-node with its `deposit`, dropped when it
    /// returns) and send what it ships, the scope holding on until it is
    /// delivered; then count its successors down and release each one it
    /// empties.
    fn retire<'s>(&'s self, id: usize, deposit: Option<Payload>, sc: &'s Scope<'s, '_>) {
        let node = self.plan.node(id);
        let ship = |image: &dyn Encode| sc.then((self.send)(node, image), |()| ());
        (self.run)(node, deposit, &ship);
        for s in self.plan.successors(id) {
            if self.left[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.release(s, sc);
            }
        }
    }
}

#[cfg(test)]
impl StepPlan {
    /// The test-only executor: the plans of one step of a run's localities,
    /// each with its `run` (locality `i`'s one peer is locality `1 − i`),
    /// every node on the calling thread in one seeded random order over all
    /// of them, and each deposit — its image, in a buffer of its own —
    /// delivered, its in-node run, at a random point after the node that
    /// ships it.
    pub(crate) fn execute_shuffled(seed: u64, steps: &[(&StepPlan, &Run)]) {
        let mut left: Vec<Vec<u32>> = steps.iter().map(|(plan, _)| plan.preds.clone()).collect();
        // (locality, node id, the deposit an in-node installs)
        let mut ready: Vec<(usize, usize, Option<Payload>)> = (steps.iter().enumerate())
            .flat_map(|(i, (plan, _))| plan.roots().into_iter().map(move |id| (i, id, None)))
            .collect();
        let (mut state, mut ran) = (seed, vec![0; steps.len()]);
        while !ready.is_empty() {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let pick = ((z ^ (z >> 31)) % ready.len() as u64) as usize;
            let (i, id, deposit) = ready.swap_remove(pick);
            let (plan, run) = steps[i];
            let node = plan.node(id);
            let shipped = std::cell::Cell::new(None);
            run(node, deposit, &|image| {
                let image = distrib::to_bytes(image).expect("a deposit encodes");
                shipped.set(Some(Payload::from(image)));
            });
            if let Some(out) = shipped.into_inner() {
                let into = match node.0 {
                    HaloOut => (HaloIn, 0),
                    RateOut => (RateIn, 0),
                    BlocksOut => (BlocksIn, 0),
                    _ => unreachable!("only a send node ships"),
                };
                let peer = 1 - i;
                ready.push((peer, steps[peer].0.id(into), Some(out)));
            }
            ran[i] += 1;
            for s in plan.successors(id) {
                left[i][s] -= 1;
                if left[i][s] == 0 {
                    ready.push((i, s, None));
                }
            }
        }
        for (i, (plan, _)) in steps.iter().enumerate() {
            assert_eq!(
                ran[i],
                plan.preds.len(),
                "locality {i}: every node ran once"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four owned leaves of six in a row; each gathers from its neighbours.
    /// Without peers the plan has no remote node; with one that owns the
    /// two end leaves, its deposits release `Dt`, `Moments` and the hydro
    /// of the leaves next to it, and the sends follow what they ship.
    #[test]
    fn plan_has_the_step_s_shape() {
        let owned = [1, 2, 3, 4];
        let sources: Vec<Vec<u32>> = (0..6)
            .map(|pos: u32| (pos.saturating_sub(1)..(pos + 2).min(6)).collect())
            .collect();
        let ends = |pos: usize| pos == 0 || pos == 5;
        let reads = [1, 4];
        let peer = Peer {
            reads: &reads,
            owns: &ends,
        };
        let n = owned.len();
        for peers in [&[][..], &[peer]] {
            let plan = StepPlan::new(&owned, |pos| &sources[pos], peers);
            let np = peers.len();
            let preds = |node| plan.preds[plan.id(node)] as usize;
            let succ = |node| -> Vec<Node> {
                (plan.successors(plan.id(node)))
                    .map(|s| plan.node(s))
                    .collect()
            };
            for k in 0..n {
                // The old interior's reads: its P2M task, every owned gather
                // of it and, for a leaf the peer reads, the halo send.
                let readers = (owned.iter())
                    .filter(|&&pos| sources[pos].contains(&(owned[k] as u32)))
                    .count();
                let shipped = np * usize::from(reads.contains(&owned[k]));
                assert_eq!(preds((WriteBack, k)), 1 + readers + shipped, "leaf {k}");
                assert_eq!(preds((Source, k)), 2);
                // The end leaves' neighbours also wait for the peer's halo.
                let next_to_peer = k == 0 || k == n - 1;
                assert_eq!(preds((Hydro, k)), 1 + np * usize::from(next_to_peer));
                // Gravity waits for the moments pass and the CFL fold.
                assert_eq!(preds((Gravity, k)), 2);
                let to_peer: Vec<Node> = (0..np).map(|p| (BlocksOut, p)).collect();
                assert_eq!(
                    succ((P2m, k)),
                    [&[(WriteBack, k)], &to_peer[..], &[(Moments, 0)]].concat()
                );
                let rate: Vec<Node> = (0..np).map(|p| (RateOut, p)).collect();
                assert_eq!(succ((Cfl, k)), [&rate[..], &[(Dt, 0)]].concat());
            }
            assert_eq!(succ((Hydro, 0)), [(WriteBack, 0), (WriteBack, 1)]);
            assert_eq!(preds((Dt, 0)), n + np);
            assert_eq!(preds((Moments, 0)), n + np);
            let sourceless: Vec<usize> = (0..plan.preds.len())
                .filter(|&id| plan.preds[id] == 0)
                .collect();
            let mut roots = plan.roots();
            roots.sort_unstable();
            assert_eq!(roots, sourceless);
            let roots: Vec<Node> = plan.roots().into_iter().map(|id| plan.node(id)).collect();
            let want: Vec<Node> = (0..np)
                .map(|p| (HaloOut, p))
                .chain((0..n).map(|k| (Cfl, k)))
                .chain((0..n).map(|k| (P2m, k)))
                .collect();
            assert_eq!(roots, want, "halo sends, CFL, then P2M");
            // Gravity below hydro, and hydro popped in the Cuthill–McKee
            // order of the owned row: breadth first from leaf 3, where a
            // pass from leaf 0, the first of least degree, ends.
            let gravity: Vec<Node> = (0..n).map(|k| (Gravity, k)).collect();
            let hydro: Vec<Node> = (0..n).map(|k| (Hydro, k)).collect();
            assert_eq!(succ((Dt, 0)), [&gravity[..], &hydro[..]].concat());
            assert_eq!(succ((Moments, 0)), gravity);
            for id in 0..plan.preds.len() {
                assert_eq!(plan.id(plan.node(id)), id);
            }
            let remote = (0..plan.preds.len())
                .filter(|&id| plan.node(id).0 as usize >= HaloOut as usize)
                .count();
            assert_eq!(remote, 6 * np, "no remote node without a peer");
            if np == 0 {
                assert!(plan.in_nodes().is_empty());
                continue;
            }
            // The in-nodes: one predecessor, the deposit.
            for node in [(HaloIn, 0), (RateIn, 0), (BlocksIn, 0)] {
                assert_eq!(preds(node), 1, "{node:?}");
            }
            let in_nodes: Vec<Node> = plan.in_nodes().map(|id| plan.node(id)).collect();
            assert_eq!(in_nodes, [(HaloIn, 0), (RateIn, 0), (BlocksIn, 0)]);
            assert_eq!(succ((HaloIn, 0)), [(Hydro, 0), (Hydro, 3)], "as `Dt`");
            assert_eq!(succ((RateIn, 0)), [(Dt, 0)]);
            assert_eq!(succ((BlocksIn, 0)), [(Moments, 0)]);
            // The sends: released by what they ship.
            assert_eq!(preds((HaloOut, 0)), 0);
            assert_eq!(succ((HaloOut, 0)), [(WriteBack, 0), (WriteBack, 3)]);
            assert_eq!(preds((RateOut, 0)), n);
            assert_eq!(preds((BlocksOut, 0)), n);
            assert!(succ((RateOut, 0)).is_empty() && succ((BlocksOut, 0)).is_empty());
        }
    }

    /// The level-4 star's plan, simulated as one worker runs it: every P2M
    /// task, then the hydro tasks in the order it pops them off `Dt`, each
    /// result held from its task until its leaf's write-back. The wavefront
    /// order holds at most 180 results; leaf order held 241.
    #[test]
    fn the_level_4_star_s_hydro_order_holds_a_small_wavefront() {
        use crate::config::OctoConfig;
        use crate::octree::Octree;
        use crate::star::RotatingStar;
        let config = OctoConfig {
            max_level: 4,
            ..OctoConfig::default()
        };
        let mut tree = Octree::build_topology(&RotatingStar::paper_default(), &config, 1.0);
        let owned: Vec<usize> = (0..tree.leaf_count()).collect();
        assert_eq!(owned.len(), 1576);
        let sources = tree.gather_sources();
        let plan = StepPlan::new(&owned, |pos| sources.of(pos), &[]);
        let held = |pops: &[usize]| {
            let mut left = plan.preds.clone();
            for s in plan.ids(P2m..Hydro).flat_map(|id| plan.successors(id)) {
                left[s] -= 1;
            }
            let (mut now, mut most) = (0, 0);
            for &id in pops {
                now += 1;
                most = most.max(now);
                for s in plan.successors(id) {
                    left[s] -= 1;
                    now -= usize::from(left[s] == 0);
                }
            }
            most
        };
        let mut pops: Vec<usize> = (plan.successors(plan.id((Dt, 0))))
            .filter(|&id| plan.node(id).0 == Hydro)
            .collect();
        pops.reverse();
        assert_eq!(pops.len(), owned.len());
        let wavefront = held(&pops);
        assert!(wavefront <= 180, "{wavefront} held");
        assert_eq!(held(&plan.ids(Hydro..Gravity).collect::<Vec<_>>()), 241);
    }
}
