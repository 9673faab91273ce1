//! Pieces every workload shares: the per-iteration record, chunked
//! driving with trace spans, and the fabric-wide counter sweep.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_sim::Engine;
use dumbnet_types::{HostId, SimDuration, SimTime, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Digest;
use crate::trace::Tracer;

/// What one workload iteration (one setup plus one timed phase)
/// produced.
#[derive(Debug)]
pub struct Iter {
    /// Host seconds of topology generation, fabric build and planning.
    pub setup_s: f64,
    /// Host seconds of the boot (see [`BOOT`]); 0 where the timed phase
    /// starts at boot.
    pub boot_s: f64,
    /// Host seconds inside `Fabric::build*` alone.
    pub build_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Virtual seconds until the workload's operations completed.
    pub virtual_s: f64,
    /// Virtual latency samples of the workload's operations, µs.
    pub lat_us: Vec<f64>,
    /// Aggregate virtual goodput, Gbps.
    pub goodput_gbps: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Digest of every deterministic observable of the iteration.
    pub digest: u64,
    /// Per-layer counts read from the layers' public stats.
    pub layers: Vec<(&'static str, f64)>,
    /// The workload's result under the paper's metric names.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Engine cells, and the threads the timed phase ran on (see
    /// [`timed`]).
    pub cells: usize,
    pub threads: usize,
    /// Busiest shard's events over the mean (1 on a single world).
    pub balance: f64,
}

/// The fabric configuration every workload starts from: the engine seed
/// and 10 GbE links whose one-way latency (cable length) is drawn from
/// the seed, 1 µs plus up to 25 ns, separately for trunk and access
/// links. Virtual results therefore vary from seed to seed instead of
/// sitting on the few values fixed path lengths allow.
pub fn fabric_config(seed: u64) -> FabricConfig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAB1E);
    let mut cfg = FabricConfig {
        seed,
        ..FabricConfig::default()
    };
    cfg.trunk.latency = SimDuration::from_nanos(1_000 + rng.gen_range(0..=25u64));
    cfg.access.latency = SimDuration::from_nanos(1_000 + rng.gen_range(0..=25u64));
    cfg
}

/// Traffic starts this far into virtual time. Each iteration first runs
/// the fabric up to it (the boot): the controller's bootstrap at 1 ms
/// floods hellos and precomputes routes on worker threads. The boot is
/// timed on its own (`controller.boot_s`), outside both `setup_s` and the
/// timed phase, because that threaded precompute is the least steady
/// work on a host with few cores.
pub const BOOT: SimDuration = SimDuration(2_000_000);

/// Runs `f` (a timed phase) and returns its result, its host seconds and
/// the threads it ran on: the most threads that ran beside the caller
/// while it did (the sharded engine's workers, a route precompute pool),
/// sampled from the live entries of `/proc/self/task` every 5 ms, or 1
/// when none did (also where `/proc` is unavailable). A pool that lives
/// under 10 ms can be missed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    // Live threads: a joined thread can stay listed for a moment as a
    // zombie (state `Z` or `X` after the command name in its `stat`).
    let tasks = || {
        std::fs::read_dir("/proc/self/task").map_or(0, |dir| {
            dir.filter_map(Result::ok)
                .filter(|t| {
                    std::fs::read_to_string(t.path().join("stat")).is_ok_and(|stat| {
                        let state = stat.rsplit(')').next().unwrap_or("").trim_start();
                        !state.starts_with(['Z', 'X'])
                    })
                })
                .count()
        })
    };
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let (out, wall_s) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // A count must hold for two samples in a row, so a worker
            // that is exiting while its successor starts is not counted.
            let mut prev = 0;
            while !stop.load(Ordering::Relaxed) {
                let now = tasks();
                peak.fetch_max(now.min(prev), Ordering::Relaxed);
                prev = now;
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let start = Instant::now();
        let out = f();
        let wall_s = secs(start);
        stop.store(true, Ordering::Relaxed);
        (out, wall_s)
    });
    // The benchmark runs no threads of its own but the caller and the
    // sampler, and neither is a worker. (Counting the threads before the
    // phase instead would count workers of the previous phase that were
    // still exiting.)
    let workers = peak.into_inner().saturating_sub(2);
    (out, wall_s, workers.max(1))
}

/// Advances `fabric` to `until` in `step` chunks, one trace span per
/// chunk carrying its sim-time range and event/packet deltas.
pub fn run_chunks<W: Engine>(
    fabric: &mut Fabric<W>,
    until: SimTime,
    step: SimDuration,
    track: &'static str,
    tracer: &mut Tracer,
) {
    let mut t = fabric.now();
    while t < until {
        let next = std::cmp::min(t + step, until);
        run_chunk(fabric, next, track, tracer);
        t = next;
    }
}

/// One traced `run_until` chunk.
pub fn run_chunk<W: Engine>(
    fabric: &mut Fabric<W>,
    until: SimTime,
    track: &'static str,
    tracer: &mut Tracer,
) {
    let span = tracer.start();
    let from = fabric.now();
    let before = tracer.enabled().then(|| fabric.world.stats());
    fabric.run_until(until);
    if let Some(before) = before {
        let after = fabric.world.stats();
        #[allow(clippy::cast_precision_loss)]
        let args = [
            ("sim_from_ms", from.as_secs_f64() * 1e3),
            ("sim_to_ms", until.as_secs_f64() * 1e3),
            ("events", (after.events - before.events) as f64),
            (
                "packets",
                (after.packets_delivered - before.packets_delivered) as f64,
            ),
        ];
        tracer.record(track, "run_until", span, &args);
    }
}

/// Host seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Fabric-wide sums of the host agents' and switches' public counters.
#[derive(Debug, Default)]
pub struct Sweep {
    pub path_requests: u64,
    pub queued_on_miss: u64,
    pub ingress_drops: u64,
    pub forwarded: u64,
    /// Every ping RTT as `(host, sent, rtt)`, in host order.
    pub rtts: Vec<(u64, SimTime, SimDuration)>,
    /// Delivered `(packets, bytes)` per `(receiver, flow)`, sorted.
    pub delivered: Vec<(u64, u64, u64, u64)>,
}

impl Sweep {
    pub fn of<W: Engine>(fabric: &Fabric<W>) -> Sweep {
        let mut s = Sweep::default();
        let hosts = fabric.topology.host_count() as u64;
        for h in 0..hosts {
            let Some(agent) = fabric.host(HostId(h)) else {
                continue;
            };
            let st = agent.stats();
            s.path_requests += st.path_requests;
            s.queued_on_miss += st.queued_on_miss;
            s.ingress_drops += st.ingress_drops;
            s.rtts
                .extend(st.rtts.iter().map(|&(_, sent, rtt)| (h, sent, rtt)));
            let mut flows: Vec<_> = st
                .delivered
                .iter()
                .map(|(&f, &(p, b))| (h, f, p, b))
                .collect();
            flows.sort_unstable();
            s.delivered.extend(flows);
        }
        let switches = fabric.topology.switch_count() as u64;
        for sw in 0..switches {
            if let Some(node) = fabric.switch(SwitchId(sw)) {
                s.forwarded += node.stats().forwarded;
            }
        }
        s
    }

    /// Delivered packets and bytes over flows accepted by `keep`.
    pub fn delivered_where(&self, keep: impl Fn(u64) -> bool) -> (u64, u64) {
        self.delivered
            .iter()
            .filter(|&&(_, f, _, _)| keep(f))
            .fold((0, 0), |(p, b), &(_, _, dp, db)| (p + dp, b + db))
    }

    pub fn digest_into(&self, d: &mut Digest) {
        for &(h, sent, rtt) in &self.rtts {
            d.u64(h);
            d.u64(sent.nanos());
            d.u64(rtt.nanos());
        }
        for &(h, f, p, b) in &self.delivered {
            d.u64(h);
            d.u64(f);
            d.u64(p);
            d.u64(b);
        }
        d.u64(self.path_requests);
        d.u64(self.queued_on_miss);
        d.u64(self.forwarded);
    }
}
