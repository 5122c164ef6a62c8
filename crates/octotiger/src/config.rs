//! Run configuration — the CLI surface of the paper's Listings 2–3:
//!
//! ```text
//! ./octotiger --config_file=rotating_star.ini --max_level=4 --stop_step=5
//!             --theta=0.5 --multipole_host_kernel_type=KOKKOS
//!             --monopole_host_kernel_type=KOKKOS --hydro_host_kernel_type=KOKKOS
//!             --hpx:threads=4
//! ```

use crate::kernel_backend::{KernelType, SimdPolicy};

/// Full configuration of a rotating-star run.
///
/// Not `Copy`: [`OctoConfig::trace_out`] is an owned path; clone explicitly
/// where a copy used to be implicit.
#[derive(Debug, Clone, PartialEq)]
pub struct OctoConfig {
    /// Maximum octree refinement level (`--max_level`, 4 in the paper).
    pub max_level: u32,
    /// Number of time steps to run (`--stop_step`, 5 in the paper).
    pub stop_step: u32,
    /// FMM opening-angle parameter (`--theta`, 0.5 in the paper).
    pub theta: f64,
    /// Hydro kernel backend (`--hydro_host_kernel_type`).
    pub hydro_kernel: KernelType,
    /// Multipole (far-field gravity) kernel backend
    /// (`--multipole_host_kernel_type`).
    pub multipole_kernel: KernelType,
    /// Monopole (near-field gravity) kernel backend
    /// (`--monopole_host_kernel_type`).
    pub monopole_kernel: KernelType,
    /// Worker threads (`--hpx:threads`).
    pub threads: usize,
    /// CFL safety factor for the hydro time step.
    pub cfl: f64,
    /// Density threshold (relative to the star's central density) above
    /// which a region is refined.
    pub refine_density_frac: f64,
    /// Lanes per pack of the gravity and hydro kernels
    /// (`--simd_kernel_width`): one of 1/2/4/8 (1 is the RISC-V degenerate
    /// pack), by default what the compiled ISA holds in one register
    /// ([`SimdPolicy::default`]). A lane count, not a summation order: every
    /// width has the same bits. 0 = the scalar oracles, which agree to
    /// rounding. Stored as the raw width so the config stays a flat struct;
    /// convert with [`SimdPolicy::from_width`].
    pub simd_width: usize,
    /// Write a Chrome trace-event JSON of the run to this path
    /// (`--trace-out=trace.json`, loadable in `about://tracing`/Perfetto):
    /// the spans, and the run's counters sampled at its start, at every
    /// step boundary and at its end as `"C"` counter tracks. The one
    /// observability option of a run; `trace_report` reads the file.
    /// `None` (the default) leaves tracing disabled — zero-cost.
    pub trace_out: Option<String>,
}

impl Default for OctoConfig {
    /// The paper's run: rotating star, level 4, 5 steps, θ = 0.5, all three
    /// kernels KOKKOS, 4 threads.
    fn default() -> Self {
        OctoConfig {
            max_level: 4,
            stop_step: 5,
            theta: 0.5,
            hydro_kernel: KernelType::KokkosSerial,
            multipole_kernel: KernelType::KokkosSerial,
            monopole_kernel: KernelType::KokkosSerial,
            threads: 4,
            cfl: 0.4,
            refine_density_frac: 1.0e-4,
            simd_width: SimdPolicy::default().lanes(),
            trace_out: None,
        }
    }
}

const ONE_TASK_PER_LEAF: &str = "the step runs one task per leaf per kernel";

/// Flags earlier versions accepted (`-` spelled `_`), each with what the
/// run does now. Unknown keys are ignored, so without this list a script
/// still passing one would run the one remaining path without a word.
const RETIRED_FLAGS: [(&str, &str); 10] = [
    ("monopole_host_tasks", ONE_TASK_PER_LEAF),
    ("multipole_host_tasks", ONE_TASK_PER_LEAF),
    ("hydro_host_tasks", ONE_TASK_PER_LEAF),
    ("regrid_host_tasks", ONE_TASK_PER_LEAF),
    (
        "interaction_list_cache",
        "interaction lists are always cached between regrids",
    ),
    (
        "coalesce",
        "every parcel travels in its own frame, as in the paper's runs",
    ),
    (
        "hpx:parcelport",
        "the parcelports differ only in the Fig. 8 link model, \
         which projects every backend from one run",
    ),
    (
        "sample_interval_ms",
        "a --trace-out run samples its counters at every step boundary",
    ),
    (
        "metrics_out",
        "the counter series are in the --trace-out file; trace_report prints them",
    ),
    (
        "counter_table",
        "trace_report prints the per-step table of a --trace-out file",
    ),
];

impl OctoConfig {
    /// The paper's node-level configuration with every kernel set to `k`.
    pub fn with_all_kernels(k: KernelType) -> Self {
        OctoConfig {
            hydro_kernel: k,
            multipole_kernel: k,
            monopole_kernel: k,
            ..Default::default()
        }
    }

    /// Parse a `--key=value` argument list (the paper runs everything from
    /// the command line because the cluster has no job scheduler,
    /// Appendix B). Unknown keys are ignored, like HPX's option forwarding;
    /// a retired one (`RETIRED_FLAGS`) is an error.
    pub fn from_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut cfg = OctoConfig::default();
        for arg in args {
            let Some(rest) = arg.strip_prefix("--") else {
                continue;
            };
            let Some((key, value)) = rest.split_once('=') else {
                continue;
            };
            // One spelling per key: `--trace-out` is `--trace_out`.
            let key = key.replace('-', "_");
            let key = key.as_str();
            match key {
                "max_level" => cfg.max_level = parse(key, value)?,
                "stop_step" => cfg.stop_step = parse(key, value)?,
                "theta" => cfg.theta = parse(key, value)?,
                "cfl" => cfg.cfl = parse(key, value)?,
                "hpx:threads" => cfg.threads = parse(key, value)?,
                "hydro_host_kernel_type" => cfg.hydro_kernel = KernelType::parse(value)?,
                "multipole_host_kernel_type" => cfg.multipole_kernel = KernelType::parse(value)?,
                "monopole_host_kernel_type" => cfg.monopole_kernel = KernelType::parse(value)?,
                "simd_kernel_width" => {
                    cfg.simd_width = match value {
                        "scalar" => 0,
                        _ => parse(key, value).map_err(|_| {
                            format!(
                                "invalid value {value:?} for --simd_kernel_width \
                                 (scalar/0 or a pack width 1/2/4/8)"
                            )
                        })?,
                    }
                }
                "trace_out" => {
                    if value.is_empty() {
                        return Err("--trace-out needs a file path".into());
                    }
                    cfg.trace_out = Some(value.to_string());
                }
                _ => {
                    if let Some((_, now)) = RETIRED_FLAGS.iter().find(|(flag, _)| *flag == key) {
                        return Err(format!("--{key} was removed: {now}"));
                    }
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check invariants.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta {} outside [0, 1]", self.theta));
        }
        // Positive form: a NaN fails every comparison, so it is refused here
        // and not one step later as a non-finite dt.
        if !(self.cfl > 0.0 && self.cfl < 1.0) {
            return Err(format!("cfl {} outside (0, 1)", self.cfl));
        }
        if !(self.refine_density_frac > 0.0 && self.refine_density_frac.is_finite()) {
            return Err(format!(
                "refine_density_frac {} is not positive and finite",
                self.refine_density_frac
            ));
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.max_level > 8 {
            return Err(format!(
                "max_level {} too deep for this mini-app",
                self.max_level
            ));
        }
        SimdPolicy::from_width(self.simd_width)?;
        Ok(())
    }

    /// SIMD policy of the gravity kernels ([`OctoConfig::simd_width`]).
    pub(crate) fn simd_policy(&self) -> SimdPolicy {
        SimdPolicy::from_width(self.simd_width).expect("validated width")
    }
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for --{key}"))
}

#[cfg(test)]
impl OctoConfig {
    /// A reduced configuration for fast unit tests.
    pub(crate) fn small_test() -> Self {
        OctoConfig {
            max_level: 2,
            stop_step: 2,
            threads: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_run() {
        let c = OctoConfig::default();
        assert_eq!(c.max_level, 4);
        assert_eq!(c.stop_step, 5);
        assert_eq!(c.theta, 0.5);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn parses_listing2_style_arguments() {
        let c = OctoConfig::from_args([
            "--config_file=rotating_star.ini",
            "--max_level=4",
            "--stop_step=5",
            "--theta=0.5",
            "--multipole_host_kernel_type=KOKKOS",
            "--monopole_host_kernel_type=KOKKOS",
            "--hydro_host_kernel_type=KOKKOS",
            "--hpx:localities=2",
            "--hpx:threads=4",
        ])
        .unwrap();
        assert_eq!(c.max_level, 4);
        assert_eq!(c.hydro_kernel, KernelType::KokkosSerial);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn parses_all_kernel_names() {
        let c = OctoConfig::from_args([
            "--hydro_host_kernel_type=LEGACY",
            "--multipole_host_kernel_type=KOKKOS_HPX",
            "--monopole_host_kernel_type=KOKKOS",
        ])
        .unwrap();
        assert_eq!(c.hydro_kernel, KernelType::Legacy);
        assert_eq!(c.multipole_kernel, KernelType::KokkosHpx);
        assert_eq!(c.monopole_kernel, KernelType::KokkosSerial);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(OctoConfig::from_args(["--max_level=zebra"]).is_err());
        assert!(OctoConfig::from_args(["--theta=1.5"]).is_err());
        assert!(OctoConfig::from_args(["--cfl=0"]).is_err());
        assert!(OctoConfig::from_args(["--hpx:threads=0"]).is_err());
        assert!(OctoConfig::from_args(["--hydro_host_kernel_type=CUDA"]).is_err());
        assert!(OctoConfig::from_args(["--simd_kernel_width=3"]).is_err());
        // NaN fails every comparison: the checks are written in positive form.
        assert!(OctoConfig::from_args(["--cfl=NaN"]).is_err());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let cfg = OctoConfig {
                refine_density_frac: bad,
                ..OctoConfig::default()
            };
            assert!(cfg.validate().is_err(), "refine_density_frac {bad}");
        }
    }

    #[test]
    fn retired_flags_are_refused_by_name() {
        for (key, now) in RETIRED_FLAGS {
            let err = OctoConfig::from_args([format!("--{key}=1").as_str()]).unwrap_err();
            assert_eq!(err, format!("--{key} was removed: {now}"));
        }
        // The three observability knobs `--trace-out` replaced, `-` or `_`,
        // and the parcelport choice, whatever its value.
        for (arg, key) in [
            ("--hpx:parcelport=lci", "hpx:parcelport"),
            ("--hpx:parcelport=tcp", "hpx:parcelport"),
            ("--sample-interval-ms=5", "sample_interval_ms"),
            ("--metrics_out=x.csv", "metrics_out"),
            ("--counter-table=on", "counter_table"),
        ] {
            let err = OctoConfig::from_args([arg]).unwrap_err();
            assert!(err.starts_with(&format!("--{key} was removed: ")), "{err}");
        }
    }

    #[test]
    fn parses_simd_flag() {
        let c = OctoConfig::from_args(["--simd_kernel_width=8"]).unwrap();
        assert_eq!(c.simd_width, 8);
        assert_eq!(c.simd_policy(), SimdPolicy::Width(8));
        assert_eq!(
            OctoConfig::default().simd_policy(),
            SimdPolicy::default(),
            "the default follows the compiled ISA"
        );
        assert_eq!(
            OctoConfig::from_args(["--simd_kernel_width=0"])
                .unwrap()
                .simd_policy(),
            SimdPolicy::Scalar
        );
        assert_eq!(
            OctoConfig::from_args(["--simd_kernel_width=scalar"])
                .unwrap()
                .simd_policy(),
            SimdPolicy::Scalar,
            "'scalar' is an alias for width 0"
        );
    }

    #[test]
    fn unknown_keys_ignored() {
        let c = OctoConfig::from_args(["--hpx:agas=10.0.0.160:7910", "--hpx:worker"]).unwrap();
        assert_eq!(c, OctoConfig::default());
    }

    #[test]
    fn parses_the_observability_flag_under_both_spellings() {
        let c = OctoConfig::from_args(["--trace-out=trace.json"]).unwrap();
        assert_eq!(c.trace_out.as_deref(), Some("trace.json"));
        let d = OctoConfig::from_args(["--trace_out=t.json"]).unwrap();
        assert_eq!(d.trace_out.as_deref(), Some("t.json"));
        assert_eq!(OctoConfig::default().trace_out, None);
        assert!(OctoConfig::from_args(["--trace-out="]).is_err());
    }

    #[test]
    fn with_all_kernels_sets_all_three() {
        let c = OctoConfig::with_all_kernels(KernelType::KokkosHpx);
        assert_eq!(c.hydro_kernel, KernelType::KokkosHpx);
        assert_eq!(c.multipole_kernel, KernelType::KokkosHpx);
        assert_eq!(c.monopole_kernel, KernelType::KokkosHpx);
    }
}
