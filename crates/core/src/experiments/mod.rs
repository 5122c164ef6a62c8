//! One runner per paper exhibit. Every runner *executes the real workload
//! on the host* (collecting counts) and projects the paper's series through
//! `crate::project`; see DESIGN.md §5 for the methodology.

mod ablation;
mod dist_figs;
mod fig7;
mod maclaurin_figs;
mod tables;
mod whatif;

pub use dist_figs::run_fig8;
pub use maclaurin_figs::run_fig4a;
pub use whatif::run_whatif;

use ablation::{run_ablation_chunks, run_ablation_theta};
use dist_figs::run_fig9;
use fig7::run_fig7;
use maclaurin_figs::{run_fig4b, run_fig5, run_fig6a, run_fig6b, run_flops};
use tables::{run_table1, run_table2};
use whatif::run_membench;

use crate::report::Exhibit;

/// Run every exhibit. `quick` shrinks workload sizes (for tests/CI);
/// the full mode uses the paper's parameters.
pub fn run_all(quick: bool) -> Vec<Exhibit> {
    let mut out = vec![
        run_table1(),
        run_table2(),
        run_flops(quick),
        run_fig4a(quick),
        run_fig4b(quick),
        run_fig5(quick),
        run_fig6a(quick),
        run_fig6b(quick),
        run_fig7(quick),
    ];
    let (fig8, fig9) = dist_figs::run_fig8_and_fig9(quick);
    out.push(fig8);
    out.push(fig9);
    out.push(run_whatif(quick));
    out.push(run_membench(quick));
    out.push(run_ablation_theta(quick));
    out.push(run_ablation_chunks(quick));
    out
}

/// Exhibit ids accepted by the `figures` binary.
pub const EXHIBIT_IDS: [&str; 15] = [
    "table1",
    "table2",
    "flops",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "whatif",
    "membench",
    "ablation_theta",
    "ablation_chunks",
];

/// Run one exhibit by id.
pub fn run_one(id: &str, quick: bool) -> Option<Exhibit> {
    Some(match id {
        "table1" => run_table1(),
        "table2" => run_table2(),
        "flops" => run_flops(quick),
        "fig4a" => run_fig4a(quick),
        "fig4b" => run_fig4b(quick),
        "fig5" => run_fig5(quick),
        "fig6a" => run_fig6a(quick),
        "fig6b" => run_fig6b(quick),
        "fig7" => run_fig7(quick),
        "fig8" => run_fig8(quick),
        "fig9" => run_fig9(quick),
        "whatif" => run_whatif(quick),
        "membench" => run_membench(quick),
        "ablation_theta" => run_ablation_theta(quick),
        "ablation_chunks" => run_ablation_chunks(quick),
        _ => return None,
    })
}
