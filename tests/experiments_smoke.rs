//! End-to-end smoke test: regenerate every exhibit in quick mode and check
//! the paper's headline shapes (who wins, by roughly what factor).

use std::sync::OnceLock;

use octotiger_riscv_repro::octo_core::experiments;
use octotiger_riscv_repro::octo_core::Exhibit;

/// Every exhibit in quick mode, built once for the whole binary.
fn all() -> &'static [Exhibit] {
    static ALL: OnceLock<Vec<Exhibit>> = OnceLock::new();
    ALL.get_or_init(|| experiments::run_all(true))
}

/// The exhibit with id `id`.
fn exhibit(id: &str) -> &'static Exhibit {
    all().iter().find(|e| e.id == id).expect("exhibit built")
}

#[test]
fn every_exhibit_regenerates() {
    let all = all();
    assert_eq!(all.len(), experiments::EXHIBIT_IDS.len());
    for e in all {
        assert!(
            experiments::EXHIBIT_IDS.contains(&e.id.as_str()),
            "unknown exhibit {}",
            e.id
        );
        let text = e.render();
        assert!(text.contains(&e.id), "render must carry the id");
    }
}

#[test]
fn run_one_rejects_unknown_ids() {
    assert!(experiments::run_one("fig99", true).is_none());
    assert!(experiments::run_one("table2", true).is_some());
}

#[test]
fn headline_shapes_hold_together() {
    let (fig4a, fig8) = (exhibit("fig4a"), exhibit("fig8"));

    // §6.1: RISC-V ≈5× slower than A64FX at matched core counts.
    let a64 = fig4a.series_by_label("a64fx").unwrap().y_at(4.0).unwrap();
    let rv = fig4a
        .series_by_label("riscv-u74")
        .unwrap()
        .y_at(4.0)
        .unwrap();
    let gap = a64 / rv;
    assert!((3.5..6.5).contains(&gap), "async gap {gap} should be ≈5");

    // §6.2.2: both backends scale to two boards, TCP better; Fugaku ≈7×.
    let tcp = fig8.series_by_label("RISC-V TCP").unwrap();
    let mpi = fig8.series_by_label("RISC-V MPI").unwrap();
    let fugaku = fig8.series_by_label("Fugaku (4 cores)").unwrap();
    assert!(tcp.y_at(2.0).unwrap() > mpi.y_at(2.0).unwrap());
    let octo_gap = fugaku.y_at(1.0).unwrap() / tcp.y_at(1.0).unwrap();
    assert!(
        (4.0..9.5).contains(&octo_gap),
        "Octo-Tiger gap {octo_gap} should be ≈7"
    );
}
