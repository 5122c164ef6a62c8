//! Ghost-exchange agreement suite: the cached copy plan must fill every face
//! ghost with **bitwise** the value per-cell sampling reads
//! (`Octree::sample` at the ghost cell's centre — the exchange this plan
//! replaced), on any refinement history, for any worker count; it must be
//! rebuilt exactly once per topology generation and never in between; it
//! must not allocate once built; and the work it reports must follow the
//! formula the machine projection was calibrated on (640 values per face).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::apex_lite::CounterValue;
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::octree::{GhostFaces, NodeId, Octree, FACE_VALUES};
use octotiger_riscv_repro::octotiger::star::NF;
use octotiger_riscv_repro::octotiger::subgrid::{Face, NG, NT, NX};
use octotiger_riscv_repro::octotiger::{DistConfig, DistRun, Driver, OctoConfig, RotatingStar};

// ---- allocations made by the calling thread --------------------------------

thread_local! {
    /// `(allocations, largest single allocation in bytes)` on this thread.
    static ALLOCS: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

struct CountingAlloc;

// SAFETY: defers to `System`; the bookkeeping is a `Cell` in a const-init
// thread-local without a destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| {
            let (n, max) = a.get();
            a.set((n + 1, max.max(layout.size())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, largest)` the calling thread made while running `f`.
fn allocations_during(f: impl FnOnce()) -> (u64, usize) {
    ALLOCS.with(|a| a.set((0, 0)));
    f();
    ALLOCS.with(Cell::get)
}

// ---- the sampling oracle ---------------------------------------------------

/// Bits no computed value has: what the ghost shell holds before an exchange.
const POISON: f64 = f64::from_bits(0x7ff8_dead_beef_0001);

fn star_tree(max_level: u32) -> Octree {
    let cfg = OctoConfig {
        max_level,
        ..OctoConfig::default()
    };
    Octree::build(&RotatingStar::paper_default(), &cfg, 1.0)
}

/// How many of a ghost-frame cell's coordinates lie in the ghost shell:
/// 0 = interior, 1 = face ghost, 2–3 = edge/corner (never exchanged).
fn shell_rank(c: [usize; 3]) -> usize {
    c.iter().filter(|&&i| !(NG..NG + NX).contains(&i)).count()
}

fn frame_cells() -> impl Iterator<Item = [usize; 3]> {
    (0..NT).flat_map(|x| (0..NT).flat_map(move |y| (0..NT).map(move |z| [x, y, z])))
}

fn frame_at(tree: &Octree, leaf: NodeId, f: usize, c: [usize; 3]) -> f64 {
    let ng = NG as i64;
    tree.subgrid(leaf)
        .at(f, c[0] as i64 - ng, c[1] as i64 - ng, c[2] as i64 - ng)
}

fn poison_shell(tree: &mut Octree, leaf: NodeId) {
    let ng = NG as i64;
    let grid = tree.subgrid_mut(leaf);
    for c in frame_cells().filter(|&c| shell_rank(c) > 0) {
        for f in 0..NF {
            grid.set(
                f,
                c[0] as i64 - ng,
                c[1] as i64 - ng,
                c[2] as i64 - ng,
                POISON,
            );
        }
    }
}

/// What sampling says every face ghost of `leaf` must hold, as
/// `(field, frame cell, bits)`.
fn sampled_ghosts(tree: &Octree, leaf: NodeId) -> Vec<(usize, [usize; 3], u64)> {
    let ng = NG as i64;
    let grid = tree.subgrid(leaf);
    let mut out = Vec::new();
    for c in frame_cells().filter(|&c| shell_rank(c) == 1) {
        let p = grid.cell_center(c[0] as i64 - ng, c[1] as i64 - ng, c[2] as i64 - ng);
        for f in 0..NF {
            out.push((f, c, tree.sample(f, p).to_bits()));
        }
    }
    out
}

fn assert_ghosts(tree: &Octree, leaf: NodeId, want: &[(usize, [usize; 3], u64)], label: &str) {
    for &(f, c, bits) in want {
        assert_eq!(
            frame_at(tree, leaf, f, c).to_bits(),
            bits,
            "{label}: leaf {leaf} field {f} ghost {c:?}"
        );
    }
}

/// Face census by geometry alone — the classification the parent's per-step
/// `ghost_fast_path` made, written out independently of the plan.
#[derive(Debug, Default, PartialEq, Eq)]
struct Census {
    same_level: u64,
    coarse_to_fine: u64,
    fine_to_coarse: u64,
    boundary: u64,
}

impl Census {
    fn of(tree: &Octree, leaves: impl Iterator<Item = NodeId>) -> Census {
        let mut c = Census::default();
        for leaf in leaves {
            let n = tree.node(leaf);
            for face in Face::ALL {
                let kind = match tree.neighbor_coords(n.level, n.coords, face) {
                    None => &mut c.boundary,
                    Some(nc) => match tree.node_at(n.level, nc) {
                        // No node at this level there: the neighbour is coarser.
                        None => &mut c.coarse_to_fine,
                        Some(nid) if tree.children_of(nid).is_some() => &mut c.fine_to_coarse,
                        Some(_) => &mut c.same_level,
                    },
                };
                *kind += 1;
            }
        }
        c
    }

    fn faces(&self) -> GhostFaces {
        GhostFaces {
            slab: self.same_level,
            indexed: self.coarse_to_fine + self.fine_to_coarse + self.boundary,
        }
    }
}

/// Poison every ghost shell, exchange on `workers` workers (0 = the serial
/// entry point), and check the whole frame of every leaf: face ghosts equal
/// the oracle, interiors are untouched, edges and corners are still poison.
fn check_exchange(tree: &mut Octree, workers: usize, label: &str) {
    let leaves: Vec<NodeId> = tree.leaf_ids().to_vec();
    let interiors: Vec<Vec<f64>> = leaves
        .iter()
        .map(|&l| tree.subgrid(l).interior_data())
        .collect();
    for &l in &leaves {
        poison_shell(tree, l);
    }
    let filled = match workers {
        0 => tree.fill_ghosts(),
        w => tree.exchange_ghosts(&Runtime::new(w).handle(), |_| true),
    };
    let census = Census::of(tree, leaves.iter().copied());
    assert_eq!(filled, census.faces(), "{label}: faces filled");
    assert_eq!(tree.ghost_stats().faces, census.faces(), "{label}: census");
    for (&l, interior) in leaves.iter().zip(&interiors) {
        assert_ghosts(tree, l, &sampled_ghosts(tree, l), label);
        let now = tree.subgrid(l).interior_data();
        assert!(
            now.iter()
                .zip(interior)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{label}: exchange wrote an interior cell of leaf {l}"
        );
        for c in frame_cells().filter(|&c| shell_rank(c) > 1) {
            assert_eq!(
                frame_at(tree, l, 0, c).to_bits(),
                POISON.to_bits(),
                "{label}: exchange wrote edge/corner {c:?} of leaf {l}"
            );
        }
    }
}

#[test]
fn every_face_kind_matches_the_sampling_oracle_for_1_and_3_workers() {
    let mut tree = star_tree(2);
    // One mid-run sweep on top of the built tree, so the plan's first build
    // is for a generation other than 0.
    let victim = tree.leaf_ids()[0];
    tree.regrid(&[victim]);
    let census = Census::of(&tree, tree.leaf_ids().iter().copied());
    assert!(
        census.same_level > 0
            && census.coarse_to_fine > 0
            && census.fine_to_coarse > 0
            && census.boundary > 0,
        "the tree must exercise every face kind: {census:?}"
    );
    for workers in [0, 1, 3] {
        check_exchange(&mut tree, workers, &format!("{workers} workers"));
    }
    assert_eq!(tree.ghost_stats().plan_rebuilds, 1, "one generation used");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random refine sequences: after every sweep the plan is rebuilt for
    /// the new generation and the exchange still equals sampling.
    #[test]
    fn random_refine_sequences_match_the_sampling_oracle(
        level in 1u32..3,
        three_workers in any::<bool>(),
        sweeps in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..4), 1..4),
    ) {
        let workers = if three_workers { 3 } else { 1 };
        let mut tree = star_tree(level);
        check_exchange(&mut tree, workers, "built tree");
        let mut generations = 1;
        for picks in &sweeps {
            let victims: Vec<NodeId> = picks
                .iter()
                .map(|&i| tree.leaf_ids()[i % tree.leaf_count()])
                .collect();
            let before = tree.generation();
            tree.regrid(&victims);
            generations += tree.generation() - before;
            check_exchange(&mut tree, workers, &format!("after sweep {picks:?}"));
            prop_assert_eq!(tree.ghost_stats().plan_rebuilds, generations);
        }
    }
}

#[test]
fn masked_exchange_fills_the_targets_and_nothing_else() {
    // A distributed locality fills the ghosts of the leaves it owns, reading
    // the halo leaves it does not.
    let mut tree = star_tree(2);
    let leaves: Vec<NodeId> = tree.leaf_ids().to_vec();
    let owned: Vec<bool> = leaves
        .iter()
        .map(|&l| tree.node_geometry(l).0[0] < 0.0)
        .collect();
    for &l in &leaves {
        poison_shell(&mut tree, l);
    }
    let rt = Runtime::new(2);
    let filled = tree.exchange_ghosts(&rt.handle(), |pos| owned[pos]);
    let owned_leaves = || {
        leaves
            .iter()
            .zip(&owned)
            .filter(|(_, &o)| o)
            .map(|(&l, _)| l)
    };
    assert_eq!(filled, Census::of(&tree, owned_leaves()).faces());
    for (&l, &o) in leaves.iter().zip(&owned) {
        if o {
            assert_ghosts(&tree, l, &sampled_ghosts(&tree, l), "owned leaf");
        } else {
            for c in frame_cells().filter(|&c| shell_rank(c) > 0) {
                assert_eq!(frame_at(&tree, l, 0, c).to_bits(), POISON.to_bits());
            }
        }
    }
}

#[test]
fn plan_is_rebuilt_once_per_generation_and_steps_equal_the_oracle() {
    for workers in [1, 3] {
        let mut d = Driver::new(OctoConfig {
            max_level: 2,
            threads: workers,
            ..OctoConfig::default()
        });
        let rt = Runtime::new(workers);
        assert_eq!(d.tree().ghost_stats().plan_rebuilds, 0, "built lazily");
        // A step exchanges first, then updates interiors only: its ghosts
        // are the samples of the state it started from.
        let checked_step = |d: &mut Driver, rebuilds: u64| {
            let leaves: Vec<NodeId> = d.tree().leaf_ids().to_vec();
            let want: Vec<_> = leaves
                .iter()
                .map(|&l| sampled_ghosts(d.tree(), l))
                .collect();
            d.step(&rt);
            for (&l, want) in leaves.iter().zip(&want) {
                assert_ghosts(d.tree(), l, want, &format!("{workers} workers"));
            }
            assert_eq!(d.tree().ghost_stats().plan_rebuilds, rebuilds);
        };
        checked_step(&mut d, 1);
        checked_step(&mut d, 1);
        checked_step(&mut d, 1);
        let victims: Vec<NodeId> = d.tree().leaf_ids()[..3].to_vec();
        assert!(d.regrid(&rt, &victims).leaves_refined >= 3);
        assert_eq!(
            d.tree().ghost_stats().plan_rebuilds,
            1,
            "a regrid only invalidates; the next exchange rebuilds"
        );
        checked_step(&mut d, 2);
        checked_step(&mut d, 2);
        // An empty sweep bumps no generation, so it costs no rebuild.
        assert_eq!(d.regrid(&rt, &victims).leaves_refined, 0);
        checked_step(&mut d, 2);
    }
}

#[test]
fn ghost_work_follows_the_640_values_per_face_formula() {
    assert_eq!(FACE_VALUES, 640);
    let cfg = OctoConfig {
        max_level: 2,
        stop_step: 3,
        threads: 2,
        ..OctoConfig::default()
    };
    let mut d = Driver::new(cfg.clone());
    let m = d.run(2);
    let faces = Census::of(d.tree(), d.tree().leaf_ids().iter().copied()).faces();
    let steps = u64::from(m.steps);
    assert_eq!(m.work.ghost_samples, steps * faces.indexed * 640);
    assert_eq!(m.work.ghost_slab_bytes, steps * faces.slab * 640 * 8);
    let count = |name: &str| match m.counters.get(name) {
        Some(CounterValue::Count(n)) => n,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(count("/work/ghost_samples"), m.work.ghost_samples);
    assert_eq!(count("/work/ghost_slab_bytes"), m.work.ghost_slab_bytes);
    assert_eq!(count("/ghost/plan_rebuilds"), 1);
    assert_eq!(count("/ghost/faces_slab"), faces.slab);
    assert_eq!(count("/ghost/faces_indexed"), faces.indexed);

    // Two localities fill the ghosts of the leaves they own: between them
    // every face once per step, each from a plan built once.
    let dist = DistRun::execute(DistConfig {
        nodes: 2,
        threads_per_node: 1,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo: cfg,
    });
    assert_eq!(dist.work.ghost_samples, m.work.ghost_samples);
    assert_eq!(dist.work.ghost_slab_bytes, m.work.ghost_slab_bytes);
    for loc in 0..2 {
        let key = format!("/ghost/locality{loc}/plan_rebuilds");
        assert_eq!(dist.counters.get(&key), Some(CounterValue::Count(1)));
    }
}

#[test]
fn steady_state_exchange_allocates_no_buffers() {
    let mut tree = star_tree(2);
    tree.fill_ghosts(); // builds the plan and sizes its scratch
    let (allocs, _) = allocations_during(|| {
        tree.fill_ghosts();
    });
    assert_eq!(allocs, 0, "the per-leaf copy path must not allocate");

    // On a runtime the only allocations left are the scheduler's: a few
    // small boxes per spawned task, nothing the size of a face (5 KB).
    let rt = Runtime::new(2);
    let handle = rt.handle();
    tree.exchange_ghosts(&handle, |_| true);
    let (allocs, largest) = allocations_during(|| {
        tree.exchange_ghosts(&handle, |_| true);
    });
    let leaves = tree.leaf_count() as u64;
    assert!(
        allocs <= 4 * leaves + 16 && largest < 1024,
        "{allocs} allocations (largest {largest} B) for {leaves} leaf tasks"
    );
}
