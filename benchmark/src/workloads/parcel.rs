//! `parcel_storm`: two localities × one worker over the TCP parcelport with
//! default settings. One op is 250 bursts of remote `u64` actions joined by
//! `when_all` (burst lengths 32–96 and payload values from the seed) plus one
//! 20 KB `Vec<f64>` echo every eighth burst, so `distrib` — encode, frame,
//! coalescer pass-through, parcelport, AGAS lookup, decode, reply — does
//! nearly all the work, for small and halo-sized parcels alike. The unit of
//! work is parcels (requests and replies).

use std::time::Instant;

use apex_lite::CounterRegistry;
use distrib::{Cluster, ClusterConfig, CoalesceConfig, Gid, LocalityHandle};
use rv_machine::NetBackend;

use super::{put_parcel_latency, put_sched_from_counters, Outcome, Rng, RunArgs, Window};

const BURSTS_PER_OP: usize = 250;
const ECHO_EVERY: usize = 8;
/// One level-3 halo leaf: 5 fields × 512 cells.
pub const HALO_F64S: usize = 2560;
/// A cluster is up in a fraction of a millisecond: median over many.
const SETUPS: usize = 31;

/// Boot the two-locality cluster with the `bump` and `echo` actions; returns
/// it with the caller's locality and a component on the other one.
pub fn boot() -> (Cluster, LocalityHandle, Gid) {
    let cluster = Cluster::new(ClusterConfig {
        localities: 2,
        threads_per_locality: 1,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
    });
    cluster.register_action("bump", |_: &LocalityHandle, _, x: u64| x + 1);
    cluster.register_action("echo", |_: &LocalityHandle, _, v: Vec<f64>| v);
    let here = cluster.locality(0);
    let remote = cluster.locality(1).new_component(());
    (cluster, here, remote)
}

/// Burst lengths of one op, 32–96 each.
pub fn burst_lengths(rng: &mut Rng, bursts: usize) -> Vec<usize> {
    (0..bursts).map(|_| 32 + rng.below(65) as usize).collect()
}

/// One op: every reply must equal its request + 1, every echo must come back
/// bit for bit. Returns the requests sent.
fn storm(
    here: &LocalityHandle,
    remote: Gid,
    bursts: &[usize],
    halo: &[f64],
    rng: &mut Rng,
) -> Result<u64, String> {
    let mut sent = 0;
    for (b, &len) in bursts.iter().enumerate() {
        let requests: Vec<u64> = (0..len).map(|_| rng.next_u64() >> 1).collect();
        let replies = amt::when_all(
            requests
                .iter()
                .map(|x| here.invoke::<u64, u64>(remote, "bump", x))
                .collect(),
        )
        .get();
        sent += len as u64;
        if replies.len() != len || replies.iter().zip(&requests).any(|(r, x)| *r != x + 1) {
            return Err(format!("burst {b}: a reply is not its request + 1"));
        }
        if b % ECHO_EVERY == ECHO_EVERY - 1 {
            let back: Vec<f64> = here.invoke(remote, "echo", &halo.to_vec()).get();
            sent += 1;
            let same = back.len() == halo.len()
                && back
                    .iter()
                    .zip(halo)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!("burst {b}: the echo came back changed"));
            }
        }
    }
    Ok(sent)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("parcels");
    let mut rng = Rng::new(args.seed);
    let halo: Vec<f64> = (0..HALO_F64S)
        .map(|_| rng.next_u64() as f64 / u64::MAX as f64)
        .collect();
    let mut booted = None;
    for _ in 0..if args.smoke { 3 } else { SETUPS } {
        // Up to the first reply, so the localities' threads are really up.
        let t0 = Instant::now();
        let fresh = boot();
        let first: u64 = fresh.1.invoke(fresh.2, "bump", &0u64).get();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.check(first == 1, || format!("first reply was {first}"));
        booted = Some(fresh);
    }
    let (cluster, here, remote) = booted.expect("at least one set-up");
    let mut registry = CounterRegistry::new();
    cluster.register_counters(&mut registry);
    let bursts_per_op = if args.smoke { 25 } else { BURSTS_PER_OP };

    for _ in 0..if args.smoke { 1 } else { 5 } {
        let bursts = burst_lengths(&mut rng, bursts_per_op);
        let warm = storm(&here, remote, &bursts, &halo, &mut rng);
        out.check(warm.is_ok(), || format!("warm-up op: {warm:?}"));
    }

    cluster.flush_network();
    let port0 = cluster.port_stats();
    let snap0 = registry.sample();
    let mut sent = 0;
    let mut win = Window::open(args, 3);
    while win.more() {
        let traced = out.next_is_traced(args);
        let bursts = burst_lengths(&mut rng, bursts_per_op);
        let parcels0 = cluster.port_stats().parcels;
        if let Some(n) = out.op(traced, || storm(&here, remote, &bursts, &halo, &mut rng)) {
            sent += n;
            if !traced {
                out.work += (cluster.port_stats().parcels - parcels0) as f64;
            }
        }
    }
    cluster.flush_network();

    let (ops, wall) = out.ops_and_wall();
    let port = cluster.port_stats();
    let parcels = port.parcels - port0.parcels;
    if out.failed == 0 {
        out.check(parcels == 2 * sent, || {
            format!(
                "{sent} requests sent but {parcels} parcels crossed the wire, expected {}",
                2 * sent
            )
        });
    }
    let snap1 = registry.sample();
    put_sched_from_counters(&mut out, &snap0, &snap1, 2, ops, wall);
    let per_op = |n: u64| n as f64 / ops.max(1.0);
    out.put("distrib.messages", per_op(port.messages - port0.messages));
    out.put("distrib.bytes", per_op(port.bytes - port0.bytes));
    out.put("distrib.parcels", per_op(parcels));
    out.put("distrib.batches", per_op(port.batches - port0.batches));
    out.put("distrib.queue_depth_hwm", port.queue_depth_hwm as f64);
    put_parcel_latency(&mut out, &snap1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_repeat_per_seed_and_stay_in_range() {
        let draw = |seed| burst_lengths(&mut Rng::new(seed), BURSTS_PER_OP);
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(7));
        assert!(draw(7).iter().all(|l| (32..=96).contains(l)));
    }
}
