//! `mesh` and `mesh_2cell`: open-loop host traffic on a k=16 fat-tree
//! with 4 hosts per edge switch (512 hosts), controller preloaded.
//!
//! Every host but the controller opens two paced `DataStream`s — one to
//! a pod-local peer, one to a peer in another pod, alternating 64 B and
//! 1500 B packets — and pings each peer. Each pair's first ping and
//! first packet take the cold path (a path request, then a controller
//! path graph), so the controller works once per cold pair while host
//! send with path lookup, switch pop and the event queue carry the rest.
//! Hosts start at seed-drawn times so the cold requests arrive spread
//! out rather than as one burst.
//!
//! `mesh` runs on the single-threaded `World`; `mesh_2cell` runs the same
//! inputs on the sharded engine with 2 pod-aligned cells. The engine's
//! determinism contract makes their result digests identical.

use std::collections::BTreeMap;
use std::time::Instant;

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::agent::AppAction;
use dumbnet_host::{HostAgent, HostAgentConfig};
use dumbnet_sim::{Engine, ShardedWorld, World};
use dumbnet_topology::{generators, Topology};
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{fabric_config, run_chunks, secs, timed, Iter, Sweep, BOOT};
use crate::stats::{quantile, Digest};
use crate::trace::Tracer;

const K: usize = 16;
const HOSTS_PER_EDGE: usize = 4;
/// Packets per stream.
const PACKETS: u64 = 700;
/// Gap between a stream's packets.
const GAP: SimDuration = SimDuration(4_000);
const SMALL: usize = 64;
const LARGE: usize = 1500;
/// Pings per pair and their gap.
const PINGS: u32 = 4;
const PING_GAP: SimDuration = SimDuration(1_000_000);
/// Hosts start spread over `[BOOT, BOOT + SPREAD)`.
const SPREAD_NS: u64 = 150_000_000;
/// The run ends here, well after the last cold request is served.
const HORIZON: SimDuration = SimDuration(260_000_000);
const CHUNK: SimDuration = SimDuration(10_000_000);
/// At most this many 1500 B streams terminate at one host, so no access
/// link is oversubscribed.
const MAX_LARGE_IN: u8 = 2;

/// One stream-and-ping pair.
#[derive(Debug, Clone, Copy)]
struct Pair {
    src: HostId,
    dst: HostId,
    bytes: usize,
    at: SimDuration,
}

/// The seed-derived traffic plan.
#[derive(Clone)]
pub struct Plan {
    pairs: Vec<Pair>,
}

fn pods(topo: &Topology, groups: &BTreeMap<String, Vec<SwitchId>>) -> Vec<usize> {
    let mut pod_of_switch = BTreeMap::new();
    for (name, members) in groups {
        if let Some(pod) = name
            .strip_prefix("pod")
            .and_then(|n| n.parse::<usize>().ok())
        {
            for &sw in members {
                pod_of_switch.insert(sw, pod);
            }
        }
    }
    (0..topo.host_count() as u64)
        .map(|h| {
            let sw = topo.host(HostId(h)).expect("host exists").attached.switch;
            pod_of_switch[&sw]
        })
        .collect()
}

fn plan(seed: u64, topo: &Topology, groups: &BTreeMap<String, Vec<SwitchId>>) -> Plan {
    let pod = pods(topo, groups);
    let n = pod.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3E54);
    let mut large_in = vec![0u8; pod.len()];
    // Host 0 runs the controller and sends nothing. The other hosts start
    // in a seed-drawn order at even spacing (plus jitter), so the cold
    // path requests reach the controller at the same rate for every seed.
    let mut order: Vec<u64> = (1..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let slot = SPREAD_NS / n;
    let mut start = vec![SimDuration::ZERO; pod.len()];
    for (rank, &h) in order.iter().enumerate() {
        let jitter = rng.gen_range(0..slot);
        start[h as usize] = BOOT + SimDuration::from_nanos(rank as u64 * slot + jitter);
    }
    let mut pairs = Vec::new();
    for h in 1..n {
        let at = start[h as usize];
        for j in 0..2u64 {
            let bytes = if (h + j) % 2 == 0 { SMALL } else { LARGE };
            let local = j == 0;
            let dst = loop {
                let d = rng.gen_range(1..n);
                let same_pod = pod[d as usize] == pod[h as usize];
                if d == h || same_pod != local {
                    continue;
                }
                if bytes == LARGE && large_in[d as usize] >= MAX_LARGE_IN {
                    continue;
                }
                break d;
            };
            if bytes == LARGE {
                large_in[dst as usize] += 1;
            }
            pairs.push(Pair {
                src: HostId(h),
                dst: HostId(dst),
                bytes,
                at,
            });
        }
    }
    Plan { pairs }
}

/// The host-agent constructor that installs each host's streams and
/// pings.
fn agents(plan: &Plan) -> impl FnMut(HostId, HostAgentConfig) -> HostAgent {
    let pairs = plan.pairs.clone();
    move |id, mut hc| {
        for (i, p) in pairs.iter().enumerate().filter(|(_, p)| p.src == id) {
            let dst = MacAddr::for_host(p.dst.get());
            hc.actions.push(AppAction::DataStream {
                at: p.at,
                dst,
                flow: i as u64,
                packets: PACKETS,
                bytes: p.bytes,
                interval: GAP,
            });
            hc.actions.push(AppAction::PingSeries {
                at: p.at,
                dst,
                count: PINGS,
                interval: PING_GAP,
            });
        }
        HostAgent::new(id, hc)
    }
}

pub struct Prepared<W: Engine> {
    fabric: Fabric<W>,
    plan: Plan,
    pub setup_s: f64,
    pub build_s: f64,
}

/// Generates the topology and plan, then builds the fabric with `build`.
fn prepare<W: Engine>(
    seed: u64,
    tracer: &mut Tracer,
    build: impl FnOnce(Topology, FabricConfig, &BTreeMap<String, Vec<SwitchId>>, &Plan) -> Fabric<W>,
) -> Prepared<W> {
    let start = Instant::now();
    let span = tracer.start();
    let g = generators::fat_tree(K, HOSTS_PER_EDGE, None);
    let plan = plan(seed, &g.topology, &g.groups);
    let cfg = fabric_config(seed);
    tracer.record("setup", "plan", span, &[]);
    let span = tracer.start();
    let t = Instant::now();
    let fabric = build(g.topology, cfg, &g.groups, &plan);
    let build_s = secs(t);
    tracer.record("setup", "Fabric::build", span, &[]);
    Prepared {
        fabric,
        plan,
        setup_s: secs(start),
        build_s,
    }
}

pub fn setup_world(seed: u64, tracer: &mut Tracer) -> Prepared<World> {
    prepare(seed, tracer, |topo, cfg, _, plan| {
        Fabric::build_with(topo, cfg, agents(plan)).expect("fat-tree fabric builds")
    })
}

pub fn setup_sharded(seed: u64, tracer: &mut Tracer) -> Prepared<ShardedWorld> {
    prepare(seed, tracer, |topo, cfg, groups, plan| {
        Fabric::build_sharded_with(topo, cfg, groups, 2, agents(plan))
            .expect("sharded fat-tree fabric builds")
    })
}

/// Busiest shard's event count over the mean.
pub fn balance(world: &ShardedWorld) -> f64 {
    let counts = world.shard_event_counts();
    let max = counts.iter().copied().max().unwrap_or(0);
    let total: u64 = counts.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    if total == 0 {
        1.0
    } else {
        max as f64 * counts.len() as f64 / total as f64
    }
}

/// What `drive` measured: the boot and the timed phase.
struct Timing {
    boot_s: f64,
    boot_events: u64,
    wall_s: f64,
    threads: usize,
}

/// Boots the fabric, then runs the timed phase to the horizon.
fn drive<W: Engine>(p: &mut Prepared<W>, tracer: &mut Tracer) -> Timing {
    let span = tracer.start();
    let start = Instant::now();
    p.fabric.run_until(SimTime::ZERO + BOOT);
    let boot_s = secs(start);
    tracer.record("boot", "boot", span, &[]);
    let boot_events = p.fabric.world.stats().events;
    let ((), wall_s, threads) = timed(|| {
        run_chunks(&mut p.fabric, SimTime::ZERO + HORIZON, CHUNK, "run", tracer);
    });
    Timing {
        boot_s,
        boot_events,
        wall_s,
        threads,
    }
}

pub fn run<W: Engine>(mut p: Prepared<W>, tracer: &mut Tracer) -> Iter {
    let timing = drive(&mut p, tracer);
    collect(&p, &timing)
}

/// Runs the sharded variant and records its shard balance.
pub fn run_sharded(mut p: Prepared<ShardedWorld>, tracer: &mut Tracer) -> Iter {
    let timing = drive(&mut p, tracer);
    let mut it = collect(&p, &timing);
    it.balance = balance(&p.fabric.world);
    it
}

/// Checks and measures a finished run.
fn collect<W: Engine>(p: &Prepared<W>, timing: &Timing) -> Iter {
    let wall_s = timing.wall_s;
    let world = p.fabric.world.stats();
    let sweep = Sweep::of(&p.fabric);
    let ctrl_requests = p
        .fabric
        .controller(HostId(0))
        .map_or(0, |c| c.stats().path_requests);
    let pairs = p.plan.pairs.len() as u64;
    let pings = pairs * u64::from(PINGS);
    let answered = sweep.rtts.len() as u64;
    let packets = pairs * PACKETS;
    let (delivered, bytes) = sweep.delivered_where(|f| f < pairs);
    let lost = packets - delivered.min(packets);
    let unanswered = pings - answered.min(pings);
    let failed = unanswered + lost;
    let timed_events = world.events - timing.boot_events;
    // No stream delivers more packets than its sender sent.
    let no_excess = sweep
        .delivered
        .iter()
        .all(|&(_, f, p, _)| f >= pairs || p <= PACKETS);
    let counted_drops = world.drops_down
        + world.drops_queue
        + world.drops_loss
        + world.drops_corrupt
        + world.drops_crashed
        + sweep.ingress_drops;
    // Every packet a wire accepted was delivered or dropped in flight.
    let conserved = world.packets_sent
        == world.packets_delivered + world.drops_loss + world.drops_corrupt + world.drops_crashed;
    let first = p.plan.pairs.iter().map(|x| x.at).min().unwrap_or_default();
    let last_reply = sweep
        .rtts
        .iter()
        .map(|&(_, sent, rtt)| sent + rtt)
        .max()
        .unwrap_or(SimTime::ZERO);
    let span = (last_reply - (SimTime::ZERO + first)).as_secs_f64();

    let lat_us: Vec<f64> = sweep.rtts.iter().map(|r| r.2.as_micros_f64()).collect();
    let mut d = Digest::new();
    for x in [
        world.events,
        world.packets_sent,
        world.packets_delivered,
        world.drops_down,
        world.drops_queue,
        world.drops_loss,
        world.ecn_marked,
        ctrl_requests,
    ] {
        d.u64(x);
    }
    sweep.digest_into(&mut d);

    #[allow(clippy::cast_precision_loss)]
    Iter {
        setup_s: p.setup_s,
        boot_s: timing.boot_s,
        build_s: p.build_s,
        wall_s,
        virtual_s: last_reply.as_secs_f64(),
        named: named(&lat_us, pings + packets, failed),
        lat_us,
        goodput_gbps: (bytes * 8) as f64 / span / 1e9,
        attempted: pings + packets,
        failed,
        checks: vec![
            (
                "wire packets conserved (sent = delivered + in-flight drops)",
                conserved,
            ),
            (
                "stream packets sent = delivered + lost, and each lost packet \
                 or unanswered ping has a counted drop of its own",
                no_excess && lost + unanswered <= counted_drops,
            ),
            ("no ping answered twice", answered <= pings),
        ],
        digest: d.finish(),
        layers: vec![
            ("sim.events", timed_events as f64),
            ("sim.events_per_s", timed_events as f64 / wall_s),
            ("sim.drops_queue", world.drops_queue as f64),
            ("switch.forwarded", sweep.forwarded as f64),
            ("host.path_requests", sweep.path_requests as f64),
            ("host.queued_on_miss", sweep.queued_on_miss as f64),
            ("controller.path_requests", ctrl_requests as f64),
        ],
        cells: p.fabric.world.cell_count(),
        threads: timing.threads,
        balance: 1.0,
    }
}

/// The result under the paper's names: Fig 10's RTT percentiles.
#[allow(clippy::cast_precision_loss)]
fn named(lat_us: &[f64], attempted: u64, failed: u64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("rtt_p50_us", quantile(lat_us, 0.5), "us"),
        ("rtt_p99_us", quantile(lat_us, 0.99), "us"),
        ("rtt_samples", lat_us.len() as f64, "count"),
        ("failed_frac", failed as f64 / attempted as f64, "1"),
    ]
}
