//! Ghost-gather agreement suite: the cached plan must gather every face
//! ghost of a leaf's frame with **bitwise** the value per-cell sampling reads
//! (`Octree::sample` at the ghost cell's centre), and the frame's interior
//! must be the leaf's, on any refinement history, from tasks on any worker
//! count; the plan must be rebuilt exactly once per topology generation and
//! never in between, and a plan patched along the split log must equal a
//! whole rebuild as data; a gather must not allocate; and the work it reports
//! must follow the formula the machine projection was calibrated on (640
//! values per face).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use octotiger_riscv_repro::amt::par::scope;
use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::apex_lite::CounterValue;
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::octree::{GhostFaces, NodeId, Octree, FACE_VALUES};
use octotiger_riscv_repro::octotiger::star::NF;
use octotiger_riscv_repro::octotiger::subgrid::{
    frame_index, Face, FRAME_CELLS, FRAME_LEN, NG, NX,
};
use octotiger_riscv_repro::octotiger::{DistConfig, DistRun, Driver, OctoConfig, RotatingStar};

// ---- allocations made by the calling thread --------------------------------

thread_local! {
    /// Allocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System`; the bookkeeping is a `Cell` in a const-init
// thread-local without a destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread made while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    f();
    ALLOCS.with(Cell::get)
}

// ---- the sampling oracle ---------------------------------------------------

/// Bits no computed value has: what a frame holds before a gather.
const POISON: f64 = f64::from_bits(0x7ff8_dead_beef_0001);

fn star_tree(max_level: u32) -> Octree {
    let cfg = OctoConfig {
        max_level,
        ..OctoConfig::default()
    };
    Octree::build(&RotatingStar::paper_default(), &cfg, 1.0)
}

/// Every frame cell `[i, j, k]` (interior-relative) with how many of its
/// coordinates lie in the ghost shell: 0 = interior, 1 = face ghost, 2–3 =
/// edge/corner (never gathered).
fn frame_cells() -> impl Iterator<Item = ([i64; 3], usize)> {
    let span = || -(NG as i64)..(NX + NG) as i64;
    let cells = span().flat_map(move |i| span().flat_map(move |j| span().map(move |k| [i, j, k])));
    cells.map(|c| {
        (
            c,
            c.iter().filter(|&&x| !(0..NX as i64).contains(&x)).count(),
        )
    })
}

fn frame_at(frame: &[f64], f: usize, c: [i64; 3]) -> f64 {
    frame[f * FRAME_CELLS + frame_index(c[0], c[1], c[2])]
}

/// The frame of the leaf at `pos`, gathered into a poisoned buffer.
fn gathered(tree: &Octree, pos: usize) -> Vec<f64> {
    let mut frame = vec![POISON; FRAME_LEN];
    tree.gather_frame(pos, &mut frame, |n| tree.subgrid(n));
    frame
}

/// Check one gathered frame of `leaf` whole: face ghosts equal sampling at
/// their centres, the interior equals the leaf's, edges and corners are
/// still poison.
fn check_frame(tree: &Octree, leaf: NodeId, frame: &[f64], label: &str) {
    let grid = tree.subgrid(leaf);
    for (c, rank) in frame_cells() {
        for f in 0..NF {
            let want = match rank {
                0 => grid.at(f, c[0], c[1], c[2]),
                1 => tree.sample(f, grid.cell_center(c[0], c[1], c[2])),
                _ => POISON,
            };
            assert_eq!(
                frame_at(frame, f, c).to_bits(),
                want.to_bits(),
                "{label}: leaf {leaf} field {f} frame cell {c:?} (shell rank {rank})"
            );
        }
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

/// The current plan, patched along the split log since the generation it
/// was first built for, equals a whole rebuild of the same tree as data:
/// faces, cells, reader table and face census.
fn assert_patched_is_fresh(tree: &Octree, label: &str) {
    assert!(
        *tree.ghost_plan() == tree.fresh_ghost_plan(),
        "{label}: the patched plan differs from a whole rebuild"
    );
}

/// Plan, then gather every leaf's frame — one task per leaf on `workers`
/// workers, as the hydro tasks do (0 = on the calling thread) — and check
/// each frame whole.
fn check_gather(tree: &mut Octree, workers: usize, label: &str) {
    let planned = tree.plan_ghosts(|_| true);
    let leaves: Vec<NodeId> = tree.leaf_ids().to_vec();
    let census = Census::of(tree, leaves.iter().copied());
    assert_eq!(planned, census.faces(), "{label}: faces planned");
    assert_eq!(tree.ghost_stats().faces, census.faces(), "{label}: census");
    let tree = &*tree;
    let mut frames: Vec<Vec<f64>> = vec![Vec::new(); leaves.len()];
    match workers {
        0 => {
            for (pos, frame) in frames.iter_mut().enumerate() {
                *frame = gathered(tree, pos);
            }
        }
        w => scope(&Runtime::new(w).handle(), |sc| {
            for (pos, frame) in frames.iter_mut().enumerate() {
                sc.spawn(move || *frame = gathered(tree, pos));
            }
        }),
    }
    for (&leaf, frame) in leaves.iter().zip(&frames) {
        check_frame(tree, leaf, frame, label);
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
        check_gather(&mut tree, workers, &format!("{workers} workers"));
    }
    assert_eq!(tree.ghost_stats().plan_rebuilds, 1, "one generation used");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random refine sequences: after every sweep the plan is patched for
    /// the new generation, equals a whole rebuild, and the gathered frames
    /// still equal sampling.
    #[test]
    fn random_refine_sequences_match_the_sampling_oracle(
        level in 1u32..3,
        three_workers in any::<bool>(),
        sweeps in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..4), 1..4),
    ) {
        let workers = if three_workers { 3 } else { 1 };
        let mut tree = star_tree(level);
        check_gather(&mut tree, workers, "built tree");
        let mut generations = 1;
        for picks in &sweeps {
            let victims: Vec<NodeId> = picks
                .iter()
                .map(|&i| tree.leaf_ids()[i % tree.leaf_count()])
                .collect();
            let before = tree.generation();
            tree.regrid(&victims);
            generations += tree.generation() - before;
            let label = format!("after sweep {picks:?}");
            tree.plan_ghosts(|_| true);
            assert_patched_is_fresh(&tree, &label);
            check_gather(&mut tree, workers, &label);
            prop_assert_eq!(tree.ghost_stats().plan_rebuilds, generations);
        }
    }
}

#[test]
fn masked_plan_counts_the_targets_and_gathers_their_frames() {
    // A distributed locality plans for the leaves it owns: the census it is
    // charged is theirs, the halo it reads is what their frames need, and
    // their frames are the oracle's.
    let mut tree = star_tree(2);
    let leaves: Vec<NodeId> = tree.leaf_ids().to_vec();
    let owned: Vec<bool> = leaves
        .iter()
        .map(|&l| tree.node_geometry(l).0[0] < 0.0)
        .collect();
    let planned = tree.plan_ghosts(|pos| owned[pos]);
    let owned_leaves = leaves
        .iter()
        .zip(&owned)
        .filter(|(_, &o)| o)
        .map(|(&l, _)| l);
    assert_eq!(planned, Census::of(&tree, owned_leaves).faces());
    let halo = tree.halo_sources(|pos| owned[pos]);
    assert!(!halo.is_empty() && halo.iter().all(|&pos| !owned[pos]));
    for (pos, &leaf) in leaves.iter().enumerate().filter(|&(pos, _)| owned[pos]) {
        check_frame(&tree, leaf, &gathered(&tree, pos), "owned leaf");
    }
    assert_eq!(
        tree.ghost_stats().plan_rebuilds,
        1,
        "the mask is no topology"
    );
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
        // A step plans at its start and updates interiors only: after it the
        // plan is current and gathers the new state's oracle.
        let checked_step = |d: &mut Driver, rebuilds: u64| {
            d.step(&rt);
            let tree = d.tree();
            for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
                let label = format!("{workers} workers");
                check_frame(tree, leaf, &gathered(tree, pos), &label);
            }
            assert_eq!(tree.ghost_stats().plan_rebuilds, rebuilds);
            assert_patched_is_fresh(tree, &format!("{workers} workers"));
        };
        checked_step(&mut d, 1);
        checked_step(&mut d, 1);
        checked_step(&mut d, 1);
        let victims: Vec<NodeId> = d.tree().leaf_ids()[..3].to_vec();
        assert!(d.regrid(&rt, &victims).leaves_refined >= 3);
        assert_eq!(
            d.tree().ghost_stats().plan_rebuilds,
            1,
            "a regrid only invalidates; the next step rebuilds"
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

    // Two localities gather the frames of the leaves they own: between them
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
fn steady_state_gather_allocates_nothing() {
    let mut tree = star_tree(2);
    tree.plan_ghosts(|_| true);
    let mut frame = vec![0.0; FRAME_LEN];
    let allocs = allocations_during(|| {
        tree.plan_ghosts(|_| true); // current: no rebuild
        for pos in 0..tree.leaf_count() {
            tree.gather_frame(pos, &mut frame, |n| tree.subgrid(n));
        }
    });
    assert_eq!(
        allocs, 0,
        "planning a current plan and gathering must not allocate"
    );
    assert_eq!(tree.ghost_stats().plan_rebuilds, 1);
}
