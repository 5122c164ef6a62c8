//! Work-aggregation agreement suite: batched (fused mega-stream) execution
//! must be **bitwise identical** to the per-leaf path for every SIMD width
//! and batch size — including ragged tails (batch size that does not divide
//! the leaf count), flush-only seals (batch size > leaf count), split
//! monopole/multipole batch families, and refinement between steps.
//!
//! The per-leaf baseline is simply batch size 1 (`*_host_tasks = 1`), which
//! the aggregation layer guarantees degenerates to the historical graph.

use proptest::prelude::*;

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::octotiger::{Driver, OctoConfig};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Level-1 rotating star: 8 leaves after the initial refinement pass, so a
/// batch size of 7 leaves a ragged 1-leaf tail and 16 / `leaves + 1` seal
/// only on flush.
fn config(width: usize, batches: (usize, usize, usize)) -> OctoConfig {
    OctoConfig {
        max_level: 1,
        stop_step: 2,
        threads: 2,
        simd_width: width,
        monopole_host_tasks: batches.0,
        multipole_host_tasks: batches.1,
        hydro_host_tasks: batches.2,
        ..OctoConfig::default()
    }
}

/// Run `stop_step` steps (optionally refining one leaf between the first and
/// second step) and return the bit-exact observable state: the simulation
/// time and every leaf's interior data, in leaf order.
fn run(cfg: OctoConfig, refine_between: bool) -> (u64, Vec<Vec<f64>>) {
    let steps = cfg.stop_step;
    let threads = cfg.threads;
    let mut d = Driver::new(cfg);
    let rt = Runtime::new(threads);
    for s in 0..steps {
        d.step(&rt);
        if refine_between && s == 0 {
            let victim = d.tree().leaf_ids()[0];
            d.refine_leaf(victim);
        }
    }
    let data = d
        .tree()
        .leaf_ids()
        .iter()
        .map(|&leaf| d.tree().subgrid(leaf).interior_data())
        .collect();
    (d.sim_time().to_bits(), data)
}

fn assert_bitwise(base: &(u64, Vec<Vec<f64>>), got: &(u64, Vec<Vec<f64>>), label: &str) {
    assert_eq!(got.0, base.0, "sim_time bits diverged: {label}");
    assert_eq!(got.1.len(), base.1.len(), "leaf count diverged: {label}");
    for (i, (a, b)) in base.1.iter().zip(&got.1).enumerate() {
        let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "leaf {i} interior data diverged: {label}");
    }
}

/// The ISSUE's core matrix: W ∈ {1, 2, 4, 8} × batch ∈ {1, 2, 7, 16,
/// leaves + 1} on the per-batch task graph.
#[test]
fn batched_futurized_matches_per_leaf_for_all_widths() {
    for w in WIDTHS {
        let base = run(config(w, (1, 1, 1)), false);
        let leaves = base.1.len();
        for b in [2, 7, 16, leaves + 1] {
            let got = run(config(w, (b, b, b)), false);
            assert_bitwise(&base, &got, &format!("w={w} batch={b}"));
        }
    }
}

/// `monopole_host_tasks != multipole_host_tasks` takes the split path (two
/// batch families joined per leaf by a pending counter) instead of the
/// unified gravity batch — it must still be bit-exact.
#[test]
fn split_gravity_batch_families_match_unified_path() {
    let base = run(config(4, (1, 1, 1)), false);
    for (mono, multi, hydro) in [(2, 5, 3), (7, 2, 16), (1, 4, 1)] {
        let got = run(config(4, (mono, multi, hydro)), false);
        assert_bitwise(
            &base,
            &got,
            &format!("split mono={mono} multi={multi} hydro={hydro}"),
        );
    }
}

/// Refining a leaf between steps changes the leaf count mid-run (and
/// invalidates the interaction cache); batch boundaries shift but the state
/// must stay bit-exact against the per-leaf run with the same refinement.
#[test]
fn refine_between_steps_stays_bitwise_equal() {
    let base = run(config(4, (1, 1, 1)), true);
    let leaves = base.1.len();
    for b in [2, 7, leaves + 1] {
        let got = run(config(4, (b, b, b)), true);
        assert_bitwise(&base, &got, &format!("refine batch={b}"));
    }
}

/// Aggregation must actually aggregate: with batch size > 1 the driver fuses
/// launches (fewer `amt` tasks) and the counters record the seals.
#[test]
fn aggregation_reduces_spawned_tasks_and_records_seals() {
    let mut per_leaf = Driver::new(config(4, (1, 1, 1)));
    let m1 = per_leaf.run(2);
    let s1 = per_leaf.aggregation_stats();
    // `fused_launches` counts sealed batches; at batch size 1 every batch
    // holds exactly one leaf, so the average degenerates to 1.
    assert_eq!(s1.batch_size_avg(), 1.0, "batch size 1 must not aggregate");

    let mut batched = Driver::new(config(4, (4, 4, 4)));
    let m4 = batched.run(2);
    let s4 = batched.aggregation_stats();
    assert!(
        s4.fused_launches > 0,
        "batched run recorded no fused launches"
    );
    assert!(
        s4.batch_size_avg() > 1.0,
        "fused batches averaged <= 1 leaf"
    );
    assert!(
        s4.seals_on_full + s4.seals_on_flush > 0,
        "no seals recorded"
    );
    assert!(
        m4.runtime_stats.tasks_spawned < m1.runtime_stats.tasks_spawned,
        "batching did not reduce task count: {} vs {}",
        m4.runtime_stats.tasks_spawned,
        m1.runtime_stats.tasks_spawned
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corner of the matrix: independent batch sizes per kernel
    /// family and a random width.
    #[test]
    fn random_batch_combos_match_per_leaf(
        wi in 0usize..WIDTHS.len(),
        mono in 1usize..12,
        multi in 1usize..12,
        hydro in 1usize..12,
    ) {
        let w = WIDTHS[wi];
        let base = run(config(w, (1, 1, 1)), false);
        let got = run(config(w, (mono, multi, hydro)), false);
        prop_assert_eq!(got.0, base.0, "sim_time bits diverged");
        prop_assert_eq!(&got.1, &base.1, "interior data diverged");
    }
}
