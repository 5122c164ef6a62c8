//! The gate of the one-stepper design: a distributed run is the node-level
//! step with an ownership mask and a parcel exchange, so after k steps every
//! leaf must hold the node-level driver's bits — on one locality or two,
//! on one to three workers per locality, on the scalar oracle and at two
//! lane counts. (The parcelports differ only in their link model, so one
//! delivery path serves them all.) A node-level run's bits do not follow
//! its worker count either.
//!
//! Every run is under a watchdog (a deadlock fails, never hangs). Budget of
//! the whole file: ≤ 60 s in the tier-1 (debug) profile — 38–51 s measured
//! on two vCPUs (median 46 s of seven runs), most of it the node-level runs
//! on four workers, the level-2 runs and the forty repeats.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::star::{field, NF};
use octotiger_riscv_repro::octotiger::{
    DistConfig, DistMetrics, DistRun, Driver, InitialModel, OctoConfig, RotatingStar,
};

const STEPS: u32 = 3;

/// Run `body` on its own thread; fail if it has not finished after a minute
/// (a healthy run of this file's sizes takes well under a second).
fn watched<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(value) => value,
        // Dropped without a send: the body panicked — pass the panic on.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("body panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("deadlock: {what} still running after 60 s"),
    }
}

fn octo(level: u32, simd_width: usize) -> OctoConfig {
    OctoConfig {
        max_level: level,
        stop_step: STEPS,
        simd_width,
        ..OctoConfig::default()
    }
}

fn node_level(cfg: OctoConfig) -> Vec<u64> {
    let mut driver = Driver::new(cfg);
    assert_eq!(driver.run(2).steps, STEPS);
    driver.leaf_hashes()
}

fn config(nodes: u32, workers: usize, octo: OctoConfig) -> DistConfig {
    DistConfig {
        nodes,
        threads_per_node: workers,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo,
    }
}

fn distributed(nodes: u32, workers: usize, octo: OctoConfig) -> DistMetrics {
    let what = format!("{nodes} × {workers} workers");
    watched(&what, move || {
        DistRun::execute(config(nodes, workers, octo))
    })
}

#[test]
fn level_1_matrix_has_the_node_level_bits() {
    let want = node_level(octo(1, 4));
    for nodes in [1, 2] {
        for workers in [1, 2, 3] {
            let got = distributed(nodes, workers, octo(1, 4));
            assert_eq!(got.leaf_hashes, want, "{nodes} × {workers} workers");
        }
    }
}

/// A rotating star centred at the given point. The paper's star at
/// (−0.45, −0.45, 0) is off the x = 0 plane and off y = 0: the octants it
/// reaches refine, the (x > 0, y > 0) ones do not, so leaves meet across the
/// cut both at the same level and across a level jump. (The centred star
/// mirrors in x — its leaves never change level across the cut.)
struct OffCentre(RotatingStar, [f64; 3]);

impl InitialModel for OffCentre {
    fn density_at(&self, x: f64, y: f64, z: f64) -> f64 {
        let [a, b, c] = self.1;
        self.0.density_at(x - a, y - b, z - c)
    }

    fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        let [a, b, c] = self.1;
        InitialModel::conserved_at(&self.0, x - a, y - b, z - c)
    }

    fn reference_density(&self) -> f64 {
        self.0.reference_density()
    }
}

/// `(same-level, level-jump)` leaf pairs that share a face in the x = 0 plane.
fn pairs_across_the_cut(driver: &Driver) -> (usize, usize) {
    let tree = driver.tree();
    let boxes: Vec<([f64; 3], f64)> = tree
        .leaf_ids()
        .iter()
        .map(|&leaf| {
            let (origin, dx) = tree.node_geometry(leaf);
            (origin, 8.0 * dx)
        })
        .collect();
    let (mut same, mut jump) = (0, 0);
    for (lo, lo_size) in boxes.iter().filter(|(o, size)| o[0] + size == 0.0) {
        for (hi, hi_size) in boxes.iter().filter(|(o, _)| o[0] == 0.0) {
            let overlap = |d: usize| lo[d] < hi[d] + hi_size && hi[d] < lo[d] + lo_size;
            if overlap(1) && overlap(2) {
                *(if lo_size == hi_size {
                    &mut same
                } else {
                    &mut jump
                }) += 1;
            }
        }
    }
    (same, jump)
}

/// Runs on a tree with both kinds of face across the cut, on the scalar
/// oracle and two lane counts — which share one set of bits: the width-8
/// run is held to the width-4 node-level hashes.
#[test]
fn level_2_runs_have_the_node_level_bits_across_level_jumps() {
    let model = || OffCentre(RotatingStar::paper_default(), [-0.45, -0.45, 0.0]);
    let node_level = |width: usize| {
        let mut driver = Driver::with_model(&model(), octo(2, width));
        assert_eq!(driver.run(2).steps, STEPS);
        let (same, jump) = pairs_across_the_cut(&driver);
        assert!(same > 0 && jump > 0, "{same} same-level, {jump} jumps");
        driver.leaf_hashes()
    };
    let (scalar, vector) = (node_level(0), node_level(4));
    assert_ne!(scalar, vector, "the oracle sums in plain list order");
    for (width, want) in [(0, &scalar), (4, &vector), (8, &vector)] {
        let got = watched(&format!("level 2 at width {width}"), move || {
            DistRun::execute_with_model(&model(), config(2, 2, octo(2, width)))
        });
        assert_eq!(&got.leaf_hashes, want, "width {width}");
        assert!(got.owned_per_node.iter().all(|&owned| owned > 0));
    }
}

/// Two localities of two workers each: the configuration in which a worker
/// waiting under the component locks used to pick up the peer's request and
/// lock again (about one run in thirty hung for good).
#[test]
fn forty_back_to_back_2x2_runs_finish_with_the_same_bits() {
    let want = node_level(octo(1, 4));
    for run in 0..40 {
        let got = distributed(2, 2, octo(1, 4));
        assert_eq!(got.leaf_hashes, want, "run {run}");
    }
}

/// A step writes each leaf back when its last reader has gathered, in an
/// order the schedule picks; the bits must not follow it. Node-level runs of
/// a level-3 tree on 1, 2 and 4 workers end with the same leaf hashes, and
/// ten 4-worker runs in a row agree; so do 1, 2 and 4 workers with an
/// `amr`-style regrid (every ninth leaf) behind the first step. The scalar
/// oracle and a small star in one octant (22 leaves: 8 at level 3 in one
/// level-2 node, level jumps on every side) keep the debug-profile runs
/// short: the schedule is under test, not a kernel.
#[test]
fn node_level_bits_do_not_follow_the_worker_count() {
    let run = |workers: usize, regrid: bool| {
        let what = format!("level 3 on {workers} workers, regrid {regrid}");
        watched(&what, move || {
            let star = OffCentre(RotatingStar::new(0.2, 1.0, 0.2), [0.75; 3]);
            let mut driver = Driver::with_model(&star, octo(3, 0));
            assert_eq!(driver.tree().leaf_count(), 22);
            let runtime = Runtime::new(workers);
            for step in 0..STEPS {
                driver.step(&runtime);
                if regrid && step == 0 {
                    let victims: Vec<_> = driver
                        .tree()
                        .leaf_ids()
                        .iter()
                        .step_by(9)
                        .copied()
                        .collect();
                    assert!(driver.regrid(&runtime, &victims).leaves_refined > 0);
                }
            }
            driver.leaf_hashes()
        })
    };
    let want = run(1, false);
    assert_eq!(run(2, false), want, "2 workers");
    for repeat in 0..10 {
        assert_eq!(run(4, false), want, "4 workers, run {repeat}");
    }
    let want = run(1, true);
    for workers in [2, 4] {
        assert_eq!(run(workers, true), want, "{workers} workers after a regrid");
    }
}

/// The rotating star with one NaN density.
struct PoisonedStar(RotatingStar);

impl InitialModel for PoisonedStar {
    fn density_at(&self, x: f64, y: f64, z: f64) -> f64 {
        self.0.density_at(x, y, z)
    }

    fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        let mut u = InitialModel::conserved_at(&self.0, x, y, z);
        // One level-1 cell centre (cells are 1/8 wide), on locality 1's side.
        let cell = 0.3125;
        if [x, y, z].iter().all(|c| (c - cell).abs() < 0.05) {
            u[field::RHO] = f64::NAN;
        }
        u
    }

    fn reference_density(&self) -> f64 {
        self.0.reference_density()
    }
}

/// `f64::max` drops the NaN cell from step 0's CFL rate; its gravity solve
/// carries the NaN mass into every leaf of both localities, and step 1's
/// reduction must end the run with `global_dt`'s message where the run was
/// started — not with a hang, and not with half a cluster stepping on.
#[test]
fn nan_poisoned_run_ends_with_the_cfl_message_on_the_supervisor() {
    let outcome = watched("the poisoned run", || {
        std::panic::catch_unwind(|| {
            DistRun::execute_with_model(
                &PoisonedStar(RotatingStar::paper_default()),
                config(2, 2, octo(1, 4)),
            )
        })
        .map(|metrics| metrics.steps)
    });
    let payload = outcome.expect_err("a poisoned run must not finish");
    let message = payload.downcast_ref::<String>().expect("panic message");
    assert!(
        message.contains("step 1: the CFL reduction returned dt = NaN"),
        "{message}"
    );
}
