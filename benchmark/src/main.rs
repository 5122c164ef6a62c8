//! The referee benchmark of this repository: six workloads, four end-to-end
//! metrics, a per-layer budget. See `benchmark/README.md`.
//!
//! Modes (all through `benchmark/run.sh`, which builds with the pinned flags):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload in this
//!   process; the last line of standard output is the result object.
//! * `[--seed N] [--workload W] [--label L] [--traced] [--smoke]` — the set:
//!   every workload in a process of its own, results under
//!   `benchmark/results/<label>/`.
//! * `compare A B` / `compare --self-test` — two result sets side by side.

mod catalogue;
mod compare;
mod json;
mod probes;
mod report;
mod set;
mod spans;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use workloads::{Outcome, RunArgs, WORKLOADS};

/// Parsed command line: flags with a value, bare flags, positionals.
pub struct Cli {
    values: Vec<(String, String)>,
    flags: Vec<String>,
    pub positional: Vec<String>,
}

const VALUE_FLAGS: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--label",
    "--trace-out",
];
const BARE_FLAGS: [&str; 3] = ["--traced", "--smoke", "--self-test"];

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            values: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        while let Some(a) = args.next() {
            if VALUE_FLAGS.contains(&a.as_str()) {
                let v = args.next().ok_or(format!("{a} needs a value"))?;
                cli.values.push((a, v));
            } else if BARE_FLAGS.contains(&a.as_str()) {
                cli.flags.push(a);
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                cli.positional.push(a);
            }
        }
        Ok(cli)
    }

    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad value {v:?}")))
            .transpose()
    }

    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn known_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.iter().any(|(n, _)| *n == name) {
        Ok(())
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        Err(format!("unknown workload {name:?}; one of {names:?}"))
    }
}

fn dispatch(args: &RunArgs) -> Outcome {
    match args.workload.as_str() {
        "star_l4_t1" => workloads::star::run(args, 1),
        "star_l4_t2" => workloads::star::run(args, 2),
        "amr_l3_t2" => workloads::amr::run(args),
        "dist_l3_2loc" => workloads::dist::run(args),
        "maclaurin_fine_t2" => workloads::maclaurin::run(args),
        "parcel_storm" => workloads::parcel::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

/// One workload in this process. A workload that cannot start (its set-up
/// panics) is reported as one attempted, one failed op.
fn run_single(cli: &Cli) -> Result<i32, String> {
    let workload = cli.value("--workload").ok_or("--workload is required")?;
    known_workload(workload)?;
    let trace = match cli.value("--trace").ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.number("--seed")?.unwrap_or(1),
        seconds: cli.number("--seconds")?.unwrap_or(10.0),
        trace,
        smoke: cli.has("--smoke"),
        trace_out: cli.value("--trace-out").map(PathBuf::from),
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds: {} is out of range", args.seconds));
    }
    let probes = if args.trace {
        probes::run(args.smoke)
    } else {
        Vec::new()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(&args))).unwrap_or_else(|_| {
        let mut failed = Outcome::new("ops");
        failed.attempted = 1;
        failed.failed = 1;
        failed.notes.push("the workload could not start".into());
        failed
    });
    report::print(&args, outcome, &probes);
    Ok(0)
}

fn main() {
    let result = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        if cli.positional.first().map(String::as_str) == Some("compare") {
            compare::main(&cli)
        } else if cli.value("--trace").is_some() {
            run_single(&cli)
        } else {
            set::main(&cli)
        }
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(why) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    }
}
