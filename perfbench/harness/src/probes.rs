//! Isolated layer probes for the traced run.
//!
//! Each probe drives one layer's public API on inputs sized like the
//! workloads and reports a cost per operation as the median over
//! `REPS` repeats. Every repeat is one trace span on the layer's track.

use std::hint::black_box;
use std::time::Instant;

use dumbnet_controller::discovery::{DiscoveryConfig, DiscoveryState};
use dumbnet_host::pathtable::CachedPath;
use dumbnet_host::{FlowKey, PathTable};
use dumbnet_packet::{DumbNetFrame, Packet};
use dumbnet_sim::{Ctx, FlowId, FlowSim, LinkParams, Node, World};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_topology::{generators, pathgraph, spath, PathGraphParams, Route, Topology};
use dumbnet_types::{Bandwidth, HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};
use dumbnet_workload::FlowMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::secs;
use crate::mesh;
use crate::stats::median;
use crate::trace::Tracer;

/// Repeats per probe; each probe reports the median.
const REPS: usize = 5;

type Metrics = Vec<(&'static str, f64)>;

/// Runs `op` `REPS` times, one span each on `track`; `op` returns the
/// cost of one operation from its repeat, and the median is returned.
fn repeat(tracer: &mut Tracer, track: &'static str, mut op: impl FnMut() -> f64) -> f64 {
    let costs: Vec<f64> = (0..REPS)
        .map(|_| {
            let span = tracer.start();
            let cost = op();
            tracer.record(track, "repeat", span, &[("cost", cost)]);
            cost
        })
        .collect();
    median(&costs)
}

fn port(n: u8) -> PortNo {
    PortNo::new(n).expect("valid port")
}

/// Packets each switch-chain probe injects.
const CHAIN_PACKETS: u64 = 100_000;
/// Dumb switches in the chain.
const CHAIN: u8 = 8;

/// The wire's per-hop delay for a data packet of `bytes`: 1 µs latency
/// plus serialization at 10 Gbps.
fn hop_delay(bytes: usize) -> SimDuration {
    let pkt = Packet::data(
        MacAddr::for_host(1),
        MacAddr::for_host(0),
        Path::empty(),
        0,
        0,
        bytes,
    );
    SimDuration::from_nanos(1_000 + (pkt.wire_len() as u64 * 8).div_ceil(10))
}

/// A timer-only node replaying the switch chain's event schedule: one
/// timer per injected packet at its injection time, re-armed once per
/// hop with the wire's delay. Same event count, times and queue
/// occupancy as the chain, without switch or wire work.
struct TimerChains {
    gap: SimDuration,
    hop: SimDuration,
}

impl Node for TimerChains {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..CHAIN_PACKETS {
            // The low byte of the token counts hops still to go.
            ctx.set_timer(self.gap.saturating_mul(i), i << 8 | u64::from(CHAIN));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token & 0xFF > 0 {
            ctx.set_timer(self.hop, token - 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Host ns per event of the bare event queue on the switch chain's
/// schedule for packets of `bytes` paced at `gap_ns`.
fn queue_ns(seed: u64, bytes: usize, gap_ns: u64, tracer: &mut Tracer) -> f64 {
    repeat(tracer, "probe.sim", || {
        let mut w = World::new(seed);
        w.add_node(Box::new(TimerChains {
            gap: SimDuration::from_nanos(gap_ns),
            hop: hop_delay(bytes),
        }));
        let start = Instant::now();
        let stats = w.run_to_idle(u64::MAX);
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / stats.events as f64;
        ns
    })
}

struct Sink;
impl Node for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Host ns per event of packets of `bytes` crossing a chain of dumb
/// switches paced at `gap_ns` (each hop is one event).
fn chain_ns(seed: u64, bytes: usize, gap_ns: u64, tracer: &mut Tracer) -> f64 {
    let track = if bytes <= 64 {
        "probe.switch 64B"
    } else {
        "probe.switch 1500B"
    };
    repeat(tracer, track, || {
        let mut w = World::new(seed);
        let switches: Vec<_> = (0..CHAIN)
            .map(|i| {
                w.add_node(Box::new(DumbSwitch::new(
                    SwitchId(u64::from(i)),
                    8,
                    DumbSwitchConfig::default(),
                )))
            })
            .collect();
        let sink = w.add_node(Box::new(Sink));
        for pair in switches.windows(2) {
            w.wire(pair[0], port(2), pair[1], port(1), LinkParams::ten_gig())
                .expect("wires");
        }
        w.wire(
            switches[CHAIN as usize - 1],
            port(2),
            sink,
            port(1),
            LinkParams::ten_gig(),
        )
        .expect("wires");
        let path =
            Path::from_ports(std::iter::repeat_n(2, usize::from(CHAIN))).expect("short path");
        for i in 0..CHAIN_PACKETS {
            let pkt = Packet::data(
                MacAddr::for_host(1),
                MacAddr::for_host(0),
                path.clone(),
                i % 16,
                i,
                bytes,
            );
            w.inject(
                SimTime::ZERO + SimDuration::from_nanos(i * gap_ns),
                switches[0],
                port(1),
                pkt,
            );
        }
        let start = Instant::now();
        let stats = w.run_to_idle(u64::MAX);
        assert_eq!(stats.drops_queue, 0, "chain probe must be drop-free");
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / stats.events as f64;
        ns
    })
}

/// Host ns per `PathTable::lookup` over 512 destinations with 4 paths
/// each, as on a mesh host's table.
fn pathtable_ns(seed: u64, tracer: &mut Tracer) -> f64 {
    let mut table = PathTable::new();
    let dsts: Vec<MacAddr> = (0..512).map(MacAddr::for_host).collect();
    for (i, &dst) in dsts.iter().enumerate() {
        let paths = (0..4u8)
            .map(|k| CachedPath {
                tags: Path::from_ports([k + 1, 3, 5, (i % 8) as u8 + 1, 1]).expect("short path"),
                route: Route::new((0..5).map(|h| SwitchId(h * 64 + i as u64 % 64)).collect())
                    .expect("non-empty route"),
            })
            .collect();
        table.install(dst, paths, None);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<(MacAddr, FlowKey)> = (0..4_096)
        .map(|_| {
            (
                dsts[rng.gen_range(0..dsts.len())],
                FlowKey(rng.gen_range(0..1_024)),
            )
        })
        .collect();
    repeat(tracer, "probe.host", || {
        const LOOKUPS: usize = 1_000_000;
        let start = Instant::now();
        for i in 0..LOOKUPS {
            let (dst, flow) = keys[i % keys.len()];
            black_box(table.lookup(black_box(dst), flow, None));
        }
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / LOOKUPS as f64;
        ns
    })
}

/// Seed-drawn distinct host pairs of `topo`.
fn host_pairs(topo: &Topology, rng: &mut StdRng, count: usize) -> Vec<(HostId, HostId)> {
    let hosts = topo.host_count() as u64;
    (0..count)
        .map(|_| loop {
            let (a, b) = (rng.gen_range(0..hosts), rng.gen_range(0..hosts));
            if a != b {
                break (HostId(a), HostId(b));
            }
        })
        .collect()
}

/// Host µs per controller path-graph build on mesh's fabric.
fn pathgraph_us(seed: u64, tracer: &mut Tracer) -> f64 {
    let topo = generators::fat_tree(16, 4, None).topology;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A7);
    let pairs = host_pairs(&topo, &mut rng, 200);
    let params = PathGraphParams::default();
    repeat(tracer, "probe.topology", || {
        let start = Instant::now();
        for &(a, b) in &pairs {
            black_box(pathgraph::build(&topo, a, b, &params, &mut rng).expect("connected"));
        }
        #[allow(clippy::cast_precision_loss)]
        let us = secs(start) * 1e6 / pairs.len() as f64;
        us
    })
}

/// Host µs per randomized shortest route on incast_hybrid's k=32 fabric.
fn route_us(seed: u64, tracer: &mut Tracer) -> f64 {
    let topo = generators::fat_tree(32, 16, None).topology;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7007);
    let pairs: Vec<(SwitchId, SwitchId)> = host_pairs(&topo, &mut rng, 400)
        .into_iter()
        .map(|(a, b)| {
            let sw = |h: HostId| topo.host(h).expect("host exists").attached.switch;
            (sw(a), sw(b))
        })
        .collect();
    repeat(tracer, "probe.topology", || {
        let start = Instant::now();
        for &(a, b) in &pairs {
            black_box(spath::shortest_route(&topo, a, b, &mut rng).expect("connected"));
        }
        #[allow(clippy::cast_precision_loss)]
        let us = secs(start) * 1e6 / pairs.len() as f64;
        us
    })
}

/// Host ns per discovery probe generated while scanning one switch's
/// 64×64 port pairs (the discovery workload's hot loop).
fn probe_gen_ns(tracer: &mut Tracer) -> f64 {
    repeat(tracer, "probe.controller", || {
        let mac = MacAddr::for_host(0);
        let now = SimTime::ZERO;
        let mut disc = DiscoveryState::new(mac, DiscoveryConfig::default());
        let bounce = disc.next_probe(now).expect("self-bounce probe");
        disc.on_probe_reply(bounce.probe_id, mac, now);
        let own = disc.next_probe(now).expect("own-id probe");
        disc.on_switch_id(own.probe_id, SwitchId(0), now);
        let start = Instant::now();
        let mut probes = 0u64;
        while let Some(p) = disc.next_probe(now) {
            black_box(p);
            probes += 1;
        }
        assert!(probes >= 4_000, "link scan produced {probes} probes");
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / probes as f64;
        ns
    })
}

/// Host ns to encode and to decode (FCS included) a DumbNet frame of
/// `size` wire bytes with a 5-tag path.
fn codec_ns(size: usize, tracer: &mut Tracer) -> (f64, f64) {
    let path = Path::from_ports([2, 3, 4, 5, 1]).expect("short path");
    let frame = |payload: usize| {
        DumbNetFrame::encapsulate(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            path.clone(),
            0x0800,
            vec![0xA5; payload],
        )
    };
    let overhead = frame(0).to_wire().len();
    let frame = frame(size.saturating_sub(overhead));
    let wire = frame.to_wire();
    const OPS: usize = 2_000;
    let track = if size <= 64 {
        "probe.packet 64B"
    } else {
        "probe.packet 1500B"
    };
    let encode = repeat(tracer, track, || {
        let start = Instant::now();
        for _ in 0..OPS {
            black_box(black_box(&frame).to_wire());
        }
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / OPS as f64;
        ns
    });
    let decode = repeat(tracer, track, || {
        let start = Instant::now();
        for _ in 0..OPS {
            black_box(DumbNetFrame::from_wire(black_box(&wire)).expect("round trip"));
        }
        #[allow(clippy::cast_precision_loss)]
        let ns = secs(start) * 1e9 / OPS as f64;
        ns
    });
    (encode, decode)
}

/// Host ms of one incremental max-min re-solve with 10 000 active flows
/// on a k=16 fat-tree: a flow is rerouted, then a rate query triggers
/// the solve.
fn solve_ms_10k(seed: u64, tracer: &mut Tracer) -> f64 {
    const FLOWS: usize = 10_000;
    let topo = generators::fat_tree(16, 8, None).topology;
    let mut fs = FlowSim::new();
    let map = FlowMap::build(&mut fs, &topo, Bandwidth::gbps(10), Bandwidth::gbps(10));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF10);
    let pairs = host_pairs(&topo, &mut rng, FLOWS);
    let sw = |h: HostId| topo.host(h).expect("host exists").attached.switch;
    let mut paths = Vec::with_capacity(FLOWS);
    for &(a, b) in &pairs {
        let mut route = || {
            let (x, y) = (sw(a), sw(b));
            if x == y {
                Route::new(vec![x]).expect("trivial route")
            } else {
                spath::shortest_route(&topo, x, y, &mut rng).expect("connected")
            }
        };
        let (r1, r2) = (route(), route());
        paths.push((
            map.path(a, b, &r1).expect("primary path"),
            map.path(a, b, &r2).expect("alternate path"),
        ));
    }
    let ids: Vec<FlowId> = paths
        .iter()
        .map(|(p, _)| fs.start_flow(p.clone(), u64::MAX / 4))
        .collect();
    black_box(fs.aggregate_rate(&ids));
    let mut op = 0usize;
    repeat(tracer, "probe.flowsim", || {
        const OPS: usize = 5;
        let start = Instant::now();
        for _ in 0..OPS {
            let f = (op * 7_919) % FLOWS;
            let path = if op.is_multiple_of(2) {
                &paths[f].1
            } else {
                &paths[f].0
            };
            fs.reroute(ids[f], path.clone());
            black_box(fs.flow_rate(ids[(f + 1) % FLOWS]));
            op += 1;
        }
        #[allow(clippy::cast_precision_loss)]
        let ms = secs(start) * 1e3 / OPS as f64;
        ms
    })
}

/// What the PDES probe measured.
struct Shard {
    /// 2-cell wall over `World` wall.
    overhead: f64,
    balance: f64,
    /// Worker threads the 2-cell run used.
    threads: f64,
    /// Whether the 2-cell result digest equals `World`'s.
    same_digest: bool,
}

/// mesh's inputs on `World` and then on 2 cells.
fn shard_pair(seed: u64, tracer: &mut Tracer) -> Shard {
    let mut quiet = Tracer::new(false);
    let span = tracer.start();
    let world = mesh::run(mesh::setup_world(seed, &mut quiet), &mut quiet);
    tracer.record("probe.shard", "World", span, &[("wall_s", world.wall_s)]);
    let span = tracer.start();
    let sharded = mesh::run_sharded(mesh::setup_sharded(seed, &mut quiet), &mut quiet);
    tracer.record(
        "probe.shard",
        "2 cells",
        span,
        &[("wall_s", sharded.wall_s)],
    );
    #[allow(clippy::cast_precision_loss)]
    let threads = sharded.threads as f64;
    Shard {
        overhead: sharded.wall_s / world.wall_s,
        balance: sharded.balance,
        threads,
        same_digest: world.digest == sharded.digest,
    }
}

/// Every layer probe, and whether mesh's inputs on 2 cells reproduced
/// the `World` result digest (the PDES byte-identity contract).
pub fn run_all(seed: u64, tracer: &mut Tracer) -> (Metrics, bool) {
    // Chain pacing: each packet size at a gap its serialization fits in.
    let queue = queue_ns(seed, 64, 200, tracer);
    let hop64 = chain_ns(seed, 64, 200, tracer) - queue;
    let hop1500 = chain_ns(seed, 1500, 1_300, tracer) - queue_ns(seed, 1500, 1_300, tracer);
    let (enc64, dec64) = codec_ns(64, tracer);
    let (enc1500, dec1500) = codec_ns(1500, tracer);
    let shard = shard_pair(seed, tracer);
    let metrics = vec![
        ("sim.queue_ns_per_event", queue),
        ("switch.ns_per_hop_64B", hop64),
        ("switch.ns_per_hop_1500B", hop1500),
        ("host.pathtable_lookup_ns", pathtable_ns(seed, tracer)),
        ("controller.probe_gen_ns", probe_gen_ns(tracer)),
        ("topology.pathgraph_build_us", pathgraph_us(seed, tracer)),
        ("topology.route_us", route_us(seed, tracer)),
        ("packet.encode_ns_64B", enc64),
        ("packet.encode_ns_1500B", enc1500),
        ("packet.decode_ns_64B", dec64),
        ("packet.decode_ns_1500B", dec1500),
        ("flowsim.solve_ms_10k", solve_ms_10k(seed, tracer)),
        ("shard.overhead", shard.overhead),
        ("shard.balance", shard.balance),
        ("shard.threads", shard.threads),
    ];
    (metrics, shard.same_digest)
}
