//! Micro-probes of single layers, timed from outside through their public
//! functions. They take about a second together and run at the start of every
//! traced pass, so each layer's unit costs are measured in the same run, on
//! the same machine state, as the workload they help explain.

use std::hint::black_box;
use std::time::Instant;

use amt::Runtime;
use distrib::{from_bytes, to_bytes};
use kokkos_lite::{parallel_for, parallel_reduce_sum, HpxSpace, RangePolicy, Serial, Simd, View};

use crate::stats::median;
use crate::workloads::parcel::{boot, HALO_F64S};

const WORKERS: usize = 2;

/// Median seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Run every probe; `smoke` shrinks the repetition counts.
pub fn run(smoke: bool) -> Vec<(&'static str, f64)> {
    let scale = |n: usize| if smoke { (n / 10).max(1) } else { n };
    let mut out = Vec::new();

    out.push((
        "amt.runtime_start_s",
        time_median(scale(21), || drop(Runtime::new(WORKERS))),
    ));
    {
        let rt = Runtime::new(WORKERS);
        let handle = rt.handle();
        let tasks = scale(10_000);
        let batch = time_median(7, || {
            let futures = (0..tasks).map(|i| handle.spawn(move || i)).collect();
            black_box(amt::when_all(futures).get());
        });
        out.push(("amt.spawn_join_us_per_task", batch / tasks as f64 * 1e6));

        let launches = scale(2000);
        let range = || RangePolicy::new(0, 512);
        let serial = time_median(5, || {
            for _ in 0..launches {
                parallel_for(&Serial, range(), |i| {
                    black_box(i);
                });
            }
        });
        out.push((
            "kokkos-lite.serial_launch_ns",
            serial / launches as f64 * 1e9,
        ));
        let space = HpxSpace::new(rt.handle());
        let launches = scale(300);
        let hpx = time_median(5, || {
            for _ in 0..launches {
                parallel_for(&space, range(), |i| {
                    black_box(i);
                });
            }
        });
        out.push(("kokkos-lite.hpx_launch_us", hpx / launches as f64 * 1e6));
    }
    {
        let n = scale(1 << 20);
        let mut view: View<f64> = View::new_1d("probe", n);
        for (i, v) in view.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let reduce = time_median(7, || {
            black_box(parallel_reduce_sum(&Serial, RangePolicy::new(0, n), |i| {
                view.get1(i)
            }));
        });
        out.push(("kokkos-lite.reduce_gelem_per_s", n as f64 * 1e-9 / reduce));
    }
    {
        let (_cluster, here, remote) = boot();
        let local = here.new_component(());
        let halo: Vec<f64> = (0..HALO_F64S).map(|i| i as f64 * 0.5).collect();
        let calls = scale(300);
        let small = |gid| {
            time_median(5, || {
                for x in 0..calls as u64 {
                    black_box(here.invoke::<u64, u64>(gid, "bump", &x).get());
                }
            }) / calls as f64
                * 1e6
        };
        out.push(("distrib.remote_small_rt_us", small(remote)));
        out.push(("distrib.local_rt_us", small(local)));
        let calls = scale(100);
        let big = time_median(5, || {
            for _ in 0..calls {
                black_box(
                    here.invoke::<Vec<f64>, Vec<f64>>(remote, "echo", &halo)
                        .get(),
                );
            }
        });
        out.push(("distrib.remote_halo_rt_us", big / calls as f64 * 1e6));

        let reps = scale(2000);
        let gb = (HALO_F64S * 8 * reps) as f64 * 1e-9;
        let encoded = to_bytes(&halo).expect("a Vec<f64> encodes");
        let encode = time_median(5, || {
            for _ in 0..reps {
                black_box(to_bytes(black_box(&halo)).expect("a Vec<f64> encodes"));
            }
        });
        out.push(("distrib.wire.encode_gb_per_s", gb / encode));
        let decode = time_median(5, || {
            for _ in 0..reps {
                black_box(from_bytes::<Vec<f64>>(black_box(&encoded)).expect("decodes"));
            }
        });
        out.push(("distrib.wire.decode_gb_per_s", gb / decode));
    }
    out.push(("machine.host_fma_gflops", host_fma_gflops(scale(4_000_000))));
    out
}

/// One core's fused-multiply-add rate with the widest pack the kernels use:
/// eight independent `Simd<8>` accumulator chains, enough to cover the FMA
/// latency of two pipes. The denominator of `octotiger.gravity.peak_frac`.
fn host_fma_gflops(iters: usize) -> f64 {
    const CHAINS: usize = 8;
    let a = black_box(Simd::<8>::splat(0.999_999));
    let b = black_box(Simd::<8>::splat(1e-9));
    let secs = time_median(5, || {
        let mut acc = [Simd::<8>::splat(1.0); CHAINS];
        for _ in 0..iters {
            for c in acc.iter_mut() {
                *c = c.mul_add(a, b);
            }
        }
        black_box(acc);
    });
    (iters * CHAINS * 8 * 2) as f64 * 1e-9 / secs
}
