//! Incremental interaction-list invalidation agreement suite: after any
//! sequence of mid-run regrid sweeps, the incrementally maintained cache
//! (retained lists spliced around the rebuilt neighbour cone) must leave the
//! simulation **bitwise identical** to the full-rebuild reference
//! (`Driver::invalidate_interaction_lists` before every step, which
//! re-traverses every leaf) — across SIMD widths.
//!
//! A separate counter check pins the point of the tentpole: a mid-run sweep
//! must *retain* most lists (`/gravity/cache/leaves_retained`), and the
//! retained leaves must not be counted as rebuilt.

use proptest::prelude::*;

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::octotiger::{Driver, OctoConfig};

const WIDTHS: [usize; 3] = [1, 4, 8];

fn config(width: usize) -> OctoConfig {
    OctoConfig {
        max_level: 1,
        stop_step: 3,
        threads: 2,
        simd_width: width,
        ..OctoConfig::default()
    }
}

/// Run `stop_step` steps, regridding the leaves named by `plan[s]` (indices
/// into the current leaf order, deduplicated by the sweep itself) after step
/// `s`; `rebuild` drops the cached lists before every step (the reference).
/// Returns the bit-exact observable state and the driver for counter
/// inspection.
fn run(cfg: OctoConfig, rebuild: bool, plan: &[Vec<usize>]) -> ((u64, Vec<Vec<f64>>), Driver) {
    let steps = cfg.stop_step as usize;
    let threads = cfg.threads;
    let mut d = Driver::new(cfg);
    let rt = Runtime::new(threads);
    for s in 0..steps {
        if rebuild {
            d.invalidate_interaction_lists();
        }
        d.step(&rt);
        if let Some(picks) = plan.get(s) {
            let leaves: Vec<_> = picks
                .iter()
                .map(|&i| d.tree().leaf_ids()[i % d.tree().leaf_count()])
                .collect();
            d.regrid(&rt, &leaves);
        }
    }
    let data = d
        .tree()
        .leaf_ids()
        .iter()
        .map(|&leaf| d.tree().subgrid(leaf).interior_data())
        .collect();
    ((d.sim_time().to_bits(), data), d)
}

fn assert_bitwise(base: &(u64, Vec<Vec<f64>>), got: &(u64, Vec<Vec<f64>>), label: &str) {
    assert_eq!(got.0, base.0, "sim_time bits diverged: {label}");
    assert_eq!(got.1.len(), base.1.len(), "leaf count diverged: {label}");
    for (i, (a, b)) in base.1.iter().zip(&got.1).enumerate() {
        let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "leaf {i} interior data diverged: {label}");
    }
}

/// The deterministic core: W ∈ {1, 4, 8}, with two sweeps (one multi-leaf,
/// one single) landing between the steps.
#[test]
fn incremental_matches_full_rebuild_across_widths_and_modes() {
    let plan = vec![vec![0, 3, 5], vec![1]];
    for w in WIDTHS {
        let (base, _) = run(config(w), true, &plan);
        let (got, d) = run(config(w), false, &plan);
        assert_bitwise(&base, &got, &format!("w={w}"));
        let cs = d.cache_stats();
        assert!(
            cs.partial_rebuilds >= 1,
            "mid-run sweeps must take the incremental path (w={w}): {cs:?}"
        );
    }
}

/// The tentpole's accounting contract at a depth where neighbour cones are
/// strictly local: a single split at level 2 (64 leaves) must rebuild only
/// the cone and *retain* the rest — and retained leaves are not rebuilt
/// (the two counters partition every leaf the partial sweeps visited).
#[test]
fn partial_rebuild_retains_leaves_outside_the_neighbour_cone() {
    let cfg = OctoConfig {
        max_level: 2,
        stop_step: 2,
        threads: 2,
        ..OctoConfig::default()
    };
    let mut d = Driver::new(cfg);
    let rt = Runtime::new(2);
    d.step(&rt);
    let before = d.cache_stats();
    assert_eq!(before.partial_rebuilds, 0);
    let victim = d.tree().leaf_ids()[0]; // a corner leaf: small cone
    let report = d.regrid(&rt, &[victim]);
    assert_eq!(report.leaves_refined, 1, "corner split needs no grading");
    d.step(&rt);
    // The stats are cumulative (the cold build counts every leaf as
    // rebuilt); the sweep's effect is the delta across the second step.
    let cs = d.cache_stats();
    let rebuilt = cs.leaves_rebuilt - before.leaves_rebuilt;
    let retained = cs.leaves_retained - before.leaves_retained;
    let leaves = d.tree().leaf_count() as u64;
    assert_eq!(cs.partial_rebuilds, 1, "{cs:?}");
    assert_eq!(
        rebuilt + retained,
        leaves,
        "rebuilt + retained must partition the leaf set: {cs:?}"
    );
    assert!(
        retained > 0,
        "a corner split must retain lists outside its cone: {cs:?}"
    );
    assert!(
        rebuilt < leaves,
        "retained leaves must not be rebuilt: {cs:?}"
    );
    // The deep-tree gate in miniature: the cone is a small minority.
    assert!(
        rebuilt * 2 < leaves,
        "one corner split should rebuild a minority of {leaves} leaves: {cs:?}"
    );
}

/// Regression: one sweep early in the run, then cache *hits* for the rest.
/// This is the shape that exposed the moment-dependent MAC — with the COM
/// in the opening test, lists built at different steps disagreed and a
/// cached hit diverged from the rebuild-every-step reference. The geometric
/// MAC makes lists a pure function of (topology, θ), so hit == rebuild.
#[test]
fn single_sweep_then_cache_hits_match_full_rebuild() {
    let plan = vec![vec![23, 30]];
    let (base, _) = run(config(1), true, &plan);
    let (got, d) = run(config(1), false, &plan);
    assert_bitwise(&base, &got, "single sweep then hits");
    let cs = d.cache_stats();
    assert_eq!(cs.partial_rebuilds, 1, "{cs:?}");
    assert!(cs.hits >= 1, "later steps must hit: {cs:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized refine sequences: up to three sweeps of up to three leaf
    /// picks each, random width. Incremental must stay bitwise equal to the
    /// full-rebuild reference under every history.
    #[test]
    fn random_refine_sequences_match_full_rebuild(
        wi in 0usize..WIDTHS.len(),
        picks in proptest::collection::vec(
            proptest::collection::vec(0usize..32, 0..3), 1..3),
    ) {
        let w = WIDTHS[wi];
        let (base, _) = run(config(w), true, &picks);
        let (got, d) = run(config(w), false, &picks);
        prop_assert_eq!(got.0, base.0, "sim_time bits diverged");
        prop_assert_eq!(&got.1, &base.1, "interior data diverged");
        let cs = d.cache_stats();
        prop_assert!(
            cs.leaves_rebuilt + cs.leaves_retained >= cs.leaves_rebuilt,
            "counters overflowed"
        );
    }
}
