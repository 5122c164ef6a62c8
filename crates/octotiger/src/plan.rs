//! The step as data: one [`StepPlan`] per (topology generation, ownership)
//! holds a time step's dependency graph over the owned leaves, and one
//! countdown executor ([`StepPlan::execute`]) runs it on `amt` tasks — the
//! paper's HPX futurization (§3.1) at sub-grid granularity.
//!
//! ```text
//! Cfl(k) ──────► Dt ──► Hydro(j), j = n−1 … 0
//! P2m(k) ─┬────► Moments ──► Gravity(j), j = 0 … n−1
//!         └────► WriteBack(k) ◄── Hydro(j) for every owned j whose gather reads k
//! WriteBack(k), Gravity(k) ──► Source(k)
//! ```
//!
//! Kernel nodes get a task each; a join, write-back or source runs inline in
//! the task that retires its last predecessor. The tasks a node makes ready
//! are spawned in successor order in a nested scope: the roots (CFL, then
//! P2M) from one root task, so its worker pops P2M first; hydro last leaf
//! first, so it pops in leaf order behind the gather wavefront.

use std::sync::atomic::{AtomicU32, Ordering};

use amt::par::scope;
use amt::Handle;
use Node::*;

/// One node of a step; the index is the owned leaf's. The first four kinds
/// are kernels: a leaf's CFL rate, P2M blocks, hydro update (held until the
/// write-back) and gravity solve. `WriteBack` applies the held update,
/// `Source` the gravity source; `Dt` folds every CFL rate, `Moments`
/// completes the block table and runs the M2M pass and the lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    Cfl(usize),
    P2m(usize),
    Hydro(usize),
    Gravity(usize),
    WriteBack(usize),
    Source(usize),
    Dt,
    Moments,
}

/// Node ids are kind-major: `KINDS[i](k)` is id `i·n + k`; `Dt` and
/// `Moments` follow. The first `TASKS` kinds are kernel tasks.
const KINDS: [fn(usize) -> Node; 6] = [Cfl, P2m, Hydro, Gravity, WriteBack, Source];
const TASKS: usize = 4;

/// The dependency graph of one step over `n` owned leaves.
pub(crate) struct StepPlan {
    n: usize,
    /// Per node: how many predecessors retire before it runs.
    preds: Vec<u32>,
    /// Node `i`'s successors, in release order: `succ[first[i]..first[i + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
}

impl StepPlan {
    /// The plan over the owned leaves at `owned` (ascending leaf positions),
    /// whose gathers read the leaves at `sources(pos)` (ascending:
    /// [`crate::octree::Octree::gather_sources`]; halo leaves are no node).
    pub(crate) fn new<'s>(owned: &[usize], sources: impl Fn(usize) -> &'s [u32]) -> Self {
        let n = owned.len();
        let mut plan = StepPlan {
            n,
            preds: vec![0; KINDS.len() * n + 2],
            first: vec![0],
            succ: Vec::new(),
        };
        for id in 0..plan.preds.len() {
            let next: Vec<Node> = match plan.node(id) {
                Cfl(_) => vec![Dt],
                P2m(k) => vec![WriteBack(k), Moments],
                Hydro(j) => (sources(owned[j]).iter())
                    .filter_map(|&pos| owned.binary_search(&(pos as usize)).ok())
                    .map(WriteBack)
                    .collect(),
                Gravity(k) | WriteBack(k) => vec![Source(k)],
                Source(_) => Vec::new(),
                Dt => (0..n).rev().map(Hydro).collect(),
                Moments => (0..n).map(Gravity).collect(),
            };
            for node in next {
                let s = plan.id(node);
                plan.preds[s] += 1;
                plan.succ.push(s as u32);
            }
            plan.first.push(plan.succ.len() as u32);
        }
        plan
    }

    fn node(&self, id: usize) -> Node {
        match id.checked_sub(KINDS.len() * self.n) {
            None => KINDS[id / self.n](id % self.n),
            Some(0) => Dt,
            Some(_) => Moments,
        }
    }

    fn id(&self, node: Node) -> usize {
        let (kind, k) = match node {
            Cfl(k) => (0, k),
            P2m(k) => (1, k),
            Hydro(k) => (2, k),
            Gravity(k) => (3, k),
            WriteBack(k) => (4, k),
            Source(k) => (5, k),
            Dt => (KINDS.len(), 0),
            Moments => (KINDS.len(), 1),
        };
        kind * self.n + k
    }

    fn successors(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.first[id] as usize..self.first[id + 1] as usize;
        self.succ[range].iter().map(|&s| s as usize)
    }

    /// The nodes without predecessors: the CFL, then the P2M tasks.
    fn roots(&self) -> Vec<usize> {
        (0..2 * self.n).collect()
    }

    /// Run every node once, after all its predecessors, by calling `run` on
    /// it. A countdown is released by each predecessor and acquired by the
    /// one that empties it; no task waits but a scope on its own children, so
    /// a help-stealing waiter never sits above its own producer.
    pub(crate) fn execute(&self, handle: &Handle, run: &(dyn Fn(Node) + Sync)) {
        let exec = Countdown {
            plan: self,
            left: self.preds.iter().map(|&p| p.into()).collect(),
            handle,
            run,
        };
        let roots = self.roots();
        scope(handle, |sc| sc.spawn(|| exec.spawn(roots)));
        let ran = exec.left.iter().all(|c| c.load(Ordering::Relaxed) == 0);
        assert!(ran, "every node ran once");
    }
}

/// One execution of a plan: the countdowns still open, per node.
struct Countdown<'a> {
    plan: &'a StepPlan,
    left: Vec<AtomicU32>,
    handle: &'a Handle,
    run: &'a (dyn Fn(Node) + Sync),
}

impl Countdown<'_> {
    /// Spawn the kernel tasks `ready`, in order, and wait for them.
    fn spawn(&self, ready: Vec<usize>) {
        scope(self.handle, |sc| {
            for id in ready {
                sc.spawn(move || {
                    let mut next = Vec::new();
                    self.retire(id, &mut next);
                    if !next.is_empty() {
                        self.spawn(next);
                    }
                })
            }
        });
    }

    /// Run node `id`, then count its successors down: run the inline ones
    /// it empties, collect the kernel ones in `ready`.
    fn retire(&self, id: usize, ready: &mut Vec<usize>) {
        (self.run)(self.plan.node(id));
        for s in self.plan.successors(id) {
            if self.left[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                if s < TASKS * self.plan.n {
                    ready.push(s);
                } else {
                    self.retire(s, ready);
                }
            }
        }
    }
}

#[cfg(test)]
impl StepPlan {
    /// The test-only executor: every node on the calling thread, in a
    /// seeded random topological order.
    pub(crate) fn execute_shuffled(&self, seed: u64, run: &(dyn Fn(Node) + Sync)) {
        let mut left = self.preds.clone();
        let mut ready = self.roots();
        let (mut state, mut ran) = (seed, 0);
        while !ready.is_empty() {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let id = ready.swap_remove(((z ^ (z >> 31)) % ready.len() as u64) as usize);
            run(self.node(id));
            ran += 1;
            for s in self.successors(id) {
                left[s] -= 1;
                if left[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(ran, self.preds.len(), "every node ran once");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four owned leaves of six in a row; each gathers from its neighbours.
    #[test]
    fn plan_has_the_step_s_shape() {
        let owned = [1, 2, 3, 4];
        let sources: Vec<Vec<u32>> = (0..6)
            .map(|pos: u32| (pos.saturating_sub(1)..(pos + 2).min(6)).collect())
            .collect();
        let plan = StepPlan::new(&owned, |pos| &sources[pos]);
        let n = owned.len();
        let preds = |node| plan.preds[plan.id(node)];
        let succ = |node| -> Vec<Node> {
            (plan.successors(plan.id(node)))
                .map(|s| plan.node(s))
                .collect()
        };
        for k in 0..n {
            // The old interior's reads: its P2M task and every owned
            // gather of it (leaf positions 0 and 5 are halo).
            let readers = (owned.iter())
                .filter(|&&pos| sources[pos].contains(&(owned[k] as u32)))
                .count();
            assert_eq!(preds(WriteBack(k)) as usize, 1 + readers, "leaf {k}");
            assert_eq!(preds(Source(k)), 2);
            assert_eq!(preds(Hydro(k)), 1);
            assert_eq!(preds(Gravity(k)), 1);
            assert_eq!(succ(P2m(k)), [WriteBack(k), Moments]);
        }
        assert_eq!(succ(Hydro(0)), [WriteBack(0), WriteBack(1)]);
        assert_eq!(preds(Dt) as usize, n);
        assert_eq!(preds(Moments) as usize, n);
        let sourceless: Vec<usize> = (0..plan.preds.len())
            .filter(|&id| plan.preds[id] == 0)
            .collect();
        assert_eq!(plan.roots(), sourceless);
        let roots: Vec<Node> = plan.roots().into_iter().map(|id| plan.node(id)).collect();
        let want: Vec<Node> = (0..n).map(Cfl).chain((0..n).map(P2m)).collect();
        assert_eq!(roots, want, "CFL, then P2M");
        let hydro: Vec<Node> = (0..n).rev().map(Hydro).collect();
        assert_eq!(succ(Dt), hydro, "last leaf first");
        assert_eq!(succ(Moments), (0..n).map(Gravity).collect::<Vec<_>>());
        for id in 0..plan.preds.len() {
            assert_eq!(plan.id(plan.node(id)), id);
        }
    }
}
