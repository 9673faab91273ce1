//! `incast_hybrid`: consecutive incast storms on fig14's k=32 hybrid
//! fabric (8192 hosts, 1280 switches).
//!
//! Each storm runs a fan-in-256 incast of elephants into one victim, 128
//! cross-pod background elephants, 48 packet-level mice with ECN flowlet
//! routing (half of them into the victim) and one mid-storm gray
//! blackhole on a background trunk. Storms start every `PERIOD` of
//! virtual time on one built fabric, so the timed phase lasts seconds and
//! the large build shows in `setup_s`. The incremental max-min solve and
//! the plane boundary dominate; the packet plane carries only the mice.

use std::collections::BTreeSet;
use std::time::Instant;

use dumbnet_core::Fabric;
use dumbnet_ext::ecn::EcnFlowletRouting;
use dumbnet_host::agent::AppAction;
use dumbnet_host::HostAgent;
use dumbnet_sim::{EdgeId, Engine, FaultProfile, FlowId, HybridWorld};
use dumbnet_topology::{generators, spath, Topology};
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{fabric_config, secs, timed, Iter, Sweep, BOOT};
use crate::stats::{quantile, Digest};
use crate::trace::Tracer;

const K: usize = 32;
const HOSTS_PER_EDGE: usize = 16;
const FANIN: usize = 256;
const BACKGROUND: usize = 128;
const MICE: usize = 48;
/// Storms per timed phase, one every `PERIOD` of virtual time.
const STORMS: usize = 4;
const PERIOD: SimDuration = SimDuration(8_000_000_000);
/// Elephant sizes are drawn per flow from these byte ranges.
const INCAST_BYTES: std::ops::Range<u64> = 20_000_000..30_000_000;
const BACKGROUND_BYTES: std::ops::Range<u64> = 40_000_000..60_000_000;
/// Mice: packets, bytes and gap per stream, starting 30 ms into a storm.
const MICE_PACKETS: u64 = 400;
const MICE_BYTES: usize = 600;
const MICE_GAP: SimDuration = SimDuration(50_000);
const MICE_AT: SimDuration = SimDuration(30_000_000);
/// Mice flow ids are `MICE_FLOW + storm`.
const MICE_FLOW: u64 = 140;
/// The gray blackhole: total loss from 200 ms to 600 ms into a storm.
const FAIL_AT: SimDuration = SimDuration(200_000_000);
const HEAL_AT: SimDuration = SimDuration(600_000_000);
/// Flow-plane advance step.
const STEP: SimDuration = SimDuration(100_000_000);

/// One storm's seed-drawn inputs.
struct Storm {
    start: SimTime,
    elephants: Vec<(Vec<EdgeId>, u64)>,
    mice: Vec<(HostId, HostId)>,
}

pub struct Prepared {
    fabric: Fabric<HybridWorld>,
    storms: Vec<Storm>,
    pub setup_s: f64,
    pub build_s: f64,
}

/// Draws `count` distinct hosts outside `taken`, marking them taken.
fn draw(rng: &mut StdRng, hosts: u64, taken: &mut BTreeSet<u64>, count: usize) -> Vec<HostId> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let h = rng.gen_range(1..hosts);
        if taken.insert(h) {
            out.push(HostId(h));
        }
    }
    out
}

/// Host pairs of one storm: `(incast senders, background pairs, mice)`.
type Pairs = (Vec<HostId>, Vec<(HostId, HostId)>, Vec<(HostId, HostId)>);

fn storm_pairs(rng: &mut StdRng, topo: &Topology, victim: HostId) -> Pairs {
    let hosts = topo.host_count() as u64;
    let mut taken = BTreeSet::from([victim.0]);
    let senders = draw(rng, hosts, &mut taken, FANIN);
    let edge = |h: HostId| topo.host(h).expect("host exists").attached.switch;
    // Switch ids run cores first, then each pod's K/2 aggs and K/2 edges.
    let pod = |h: HostId| (edge(h).0 as usize - (K / 2) * (K / 2)) / K;
    let mut background = Vec::with_capacity(BACKGROUND);
    while background.len() < BACKGROUND {
        let pair = draw(rng, hosts, &mut taken, 2);
        if pod(pair[0]) != pod(pair[1]) {
            background.push((pair[0], pair[1]));
        } else {
            taken.remove(&pair[0].0);
            taken.remove(&pair[1].0);
        }
    }
    // Mice endpoints are drawn one per equal slice of the host ids, so
    // every seed spreads its mice over the fabric alike.
    let slice = hosts / (2 * MICE as u64);
    let mut in_slice = |k: u64| loop {
        let h = k * slice + rng.gen_range(0..slice);
        if h > 0 && taken.insert(h) {
            break HostId(h);
        }
    };
    let mice = (0..MICE as u64)
        .map(|i| {
            let src = in_slice(2 * i);
            let dst = if i % 2 == 0 {
                victim
            } else {
                in_slice(2 * i + 1)
            };
            (src, dst)
        })
        .collect();
    (senders, background, mice)
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> Prepared {
    let start = Instant::now();
    let span = tracer.start();
    let g = generators::fat_tree(K, HOSTS_PER_EDGE, None);
    let topo = g.topology.clone();
    let hosts = topo.host_count() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x14CA);
    let mut plans = Vec::with_capacity(STORMS);
    for _ in 0..STORMS {
        let victim = HostId(rng.gen_range(1..hosts));
        plans.push(storm_pairs(&mut rng, &topo, victim));
    }
    let mice_of: Vec<(HostId, HostId, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(s, (_, _, mice))| mice.iter().map(move |&(a, b)| (a, b, s)))
        .collect();
    let cfg = fabric_config(seed);
    tracer.record("setup", "plan", span, &[]);

    let span = tracer.start();
    let build = Instant::now();
    let mut fabric = Fabric::build_hybrid_with(g.topology, cfg, move |id, mut hc| {
        for &(_, dst, s) in mice_of.iter().filter(|m| m.0 == id) {
            hc.actions.push(AppAction::DataStream {
                at: BOOT + PERIOD.saturating_mul(s as u64) + MICE_AT,
                dst: MacAddr::for_host(dst.get()),
                flow: MICE_FLOW + s as u64,
                packets: MICE_PACKETS,
                bytes: MICE_BYTES,
                interval: MICE_GAP,
            });
        }
        HostAgent::with_routing(
            id,
            hc,
            Box::new(EcnFlowletRouting::new(
                SimDuration::from_micros(500),
                SimDuration::from_micros(200),
            )),
        )
    })
    .expect("fat-tree hybrid fabric builds");
    let build_s = secs(build);
    tracer.record("setup", "Fabric::build_hybrid", span, &[]);

    let span = tracer.start();
    let mut storms = Vec::with_capacity(STORMS);
    for (s, (senders, background, mice)) in plans.into_iter().enumerate() {
        let storm_start = SimTime::ZERO + BOOT + PERIOD.saturating_mul(s as u64);
        let victim = mice[0].1;
        let route = |rng: &mut StdRng, src: HostId, dst: HostId| {
            let a = topo.host(src).expect("src exists").attached.switch;
            let b = topo.host(dst).expect("dst exists").attached.switch;
            let r = spath::shortest_route(&topo, a, b, rng).expect("fat-tree is connected");
            let path = fabric
                .flow_path(src, dst, &r)
                .expect("route maps onto flow edges");
            (r, path)
        };
        let mut elephants = Vec::with_capacity(FANIN + BACKGROUND);
        for &src in &senders {
            let (_, path) = route(&mut rng, src, victim);
            elephants.push((path, rng.gen_range(INCAST_BYTES)));
        }
        let mut trunk = None;
        for &(src, dst) in &background {
            let (r, path) = route(&mut rng, src, dst);
            if trunk.is_none() && r.switches().len() >= 2 {
                trunk = Some((r.switches()[0], r.switches()[1]));
            }
            elephants.push((path, rng.gen_range(BACKGROUND_BYTES)));
        }
        if let Some((a, b)) = trunk {
            let wire = fabric.trunk_wire(a, b).expect("trunk exists");
            fabric.world.schedule_fault_profile(
                storm_start + FAIL_AT,
                wire,
                FaultProfile::lossy(1.0),
            );
            fabric.world.schedule_fault_profile(
                storm_start + HEAL_AT,
                wire,
                FaultProfile::default(),
            );
        }
        storms.push(Storm {
            start: storm_start,
            elephants,
            mice,
        });
    }
    tracer.record("setup", "route elephants", span, &[]);
    Prepared {
        fabric,
        storms,
        setup_s: secs(start),
        build_s,
    }
}

/// One traced `advance` step.
fn advance(fabric: &mut Fabric<HybridWorld>, until: SimTime, tracer: &mut Tracer) {
    let span = tracer.start();
    let from = fabric.now();
    let before = tracer.enabled().then(|| {
        (
            fabric.world.world().stats(),
            fabric.world.solver_stats().solves,
        )
    });
    let _ = fabric.world.advance(until);
    if let Some((before, solves)) = before {
        let after = fabric.world.world().stats();
        #[allow(clippy::cast_precision_loss)]
        let args = [
            ("sim_from_ms", from.as_secs_f64() * 1e3),
            ("sim_to_ms", until.as_secs_f64() * 1e3),
            ("events", (after.events - before.events) as f64),
            (
                "solves",
                (fabric.world.solver_stats().solves - solves) as f64,
            ),
        ];
        tracer.record("advance", "advance", span, &args);
    }
}

pub fn run(mut p: Prepared, tracer: &mut Tracer) -> Iter {
    let span = tracer.start();
    let start = Instant::now();
    let _ = p.fabric.world.advance(SimTime::ZERO + BOOT);
    let boot_s = secs(start);
    tracer.record("boot", "boot", span, &[]);
    let mut flows: Vec<(usize, FlowId, u64)> = Vec::new();
    let ((), wall_s, threads) = timed(|| {
        for (s, storm) in p.storms.iter().enumerate() {
            // `advance` pauses at every elephant completion, so the loops
            // follow the fabric's clock rather than the step targets.
            while p.fabric.now() < storm.start {
                advance(&mut p.fabric, storm.start, tracer);
            }
            for (path, bytes) in &storm.elephants {
                flows.push((
                    s,
                    p.fabric.world.start_elephant(path.clone(), *bytes),
                    *bytes,
                ));
            }
            let give_up = storm.start + PERIOD;
            let mut t = storm.start;
            while p.fabric.world.active_elephants() > 0 && p.fabric.now() < give_up {
                if p.fabric.now() >= t {
                    t = t + STEP;
                }
                advance(&mut p.fabric, t, tracer);
            }
        }
    });

    let drained = p.fabric.world.active_elephants() == 0;
    let mut fct_us = Vec::with_capacity(flows.len());
    let mut drain = vec![SimTime::ZERO; p.storms.len()];
    let mut unfinished = 0u64;
    let mut bits = 0u64;
    for &(s, f, bytes) in &flows {
        match p.fabric.world.finished_at(f) {
            Some(done) => {
                fct_us.push((done - p.storms[s].start).as_micros_f64());
                drain[s] = drain[s].max(done);
                bits += bytes * 8;
            }
            None => unfinished += 1,
        }
    }
    let busy_s: f64 = drain
        .iter()
        .zip(&p.storms)
        .map(|(&d, s)| (d - s.start).as_secs_f64())
        .sum();
    let solver = p.fabric.world.solver_stats();
    let hybrid = p.fabric.world.hybrid_stats();
    let world = p.fabric.world.world().stats();
    let sweep = Sweep::of(&p.fabric);
    let ctrl_requests = p
        .fabric
        .controller(HostId(0))
        .map_or(0, |c| c.stats().path_requests);
    let mice_flows = MICE_FLOW..MICE_FLOW + p.storms.len() as u64;
    let (mice_packets, mice_bytes) = sweep.delivered_where(|f| mice_flows.contains(&f));
    let mice_attempted = p.storms.iter().map(|s| s.mice.len()).sum::<usize>() as u64 * MICE_PACKETS;
    // A host that never received the controller's bootstrap hello cannot
    // request paths, so its mice are never sent; those are the only
    // mice allowed to go missing.
    let bootstrapped = |h: HostId| p.fabric.host(h).is_some_and(|a| a.controller().is_some());
    let mice_orphaned = p
        .storms
        .iter()
        .flat_map(|s| &s.mice)
        .filter(|m| !bootstrapped(m.0))
        .count() as u64;
    let hosts_without_controller = (1..p.fabric.topology.host_count() as u64)
        .filter(|&h| !bootstrapped(HostId(h)))
        .count();

    let mut d = Digest::new();
    for &(_, f, _) in &flows {
        d.u64(
            p.fabric
                .world
                .finished_at(f)
                .map_or(u64::MAX, SimTime::nanos),
        );
    }
    for x in [
        solver.solves,
        hybrid.cap_events,
        hybrid.ecn_mark_flips,
        world.events,
        mice_packets,
        mice_bytes,
    ] {
        d.u64(x);
    }
    sweep.digest_into(&mut d);

    let elephants = flows.len() as u64;
    #[allow(clippy::cast_precision_loss)]
    let storms = p.storms.len() as f64;
    let goodput_gbps = bits as f64 / busy_s / 1e9;
    let failed = unfinished + (mice_attempted - mice_packets.min(mice_attempted));
    #[allow(clippy::cast_precision_loss)]
    Iter {
        setup_s: p.setup_s,
        boot_s,
        build_s: p.build_s,
        wall_s,
        virtual_s: busy_s / storms,
        goodput_gbps,
        attempted: elephants + mice_attempted,
        failed,
        checks: vec![
            ("every elephant drains", drained && unfinished == 0),
            (
                "no full reference solve (full_solves == 0)",
                solver.full_solves == 0,
            ),
            (
                "every storm's gray blackhole and heal crossed the plane boundary",
                hybrid.cap_events >= 2 * p.storms.len() as u64,
            ),
            (
                "every mouse from a bootstrapped host delivered in full",
                mice_packets == (mice_attempted / MICE_PACKETS - mice_orphaned) * MICE_PACKETS,
            ),
        ],
        digest: d.finish(),
        layers: vec![
            ("sim.events", world.events as f64),
            ("sim.events_per_s", world.events as f64 / wall_s),
            ("sim.drops_queue", world.drops_queue as f64),
            ("switch.forwarded", sweep.forwarded as f64),
            ("host.path_requests", sweep.path_requests as f64),
            ("host.queued_on_miss", sweep.queued_on_miss as f64),
            ("controller.path_requests", ctrl_requests as f64),
            ("flowsim.solves", solver.solves as f64),
            ("flowsim.full_solves", solver.full_solves as f64),
            ("hybrid.cap_events", hybrid.cap_events as f64),
            ("hybrid.ecn_mark_flips", hybrid.ecn_mark_flips as f64),
        ],
        named: vec![
            ("fct_p50_ms", quantile(&fct_us, 0.5) / 1e3, "ms"),
            ("fct_p95_ms", quantile(&fct_us, 0.95) / 1e3, "ms"),
            ("fct_samples", fct_us.len() as f64, "count"),
            ("goodput_gbps", goodput_gbps, "Gbps"),
            (
                "failed_frac",
                failed as f64 / (elephants + mice_attempted) as f64,
                "1",
            ),
            (
                "hosts_without_controller",
                hosts_without_controller as f64,
                "count",
            ),
        ],
        lat_us: fct_us,
        cells: 1,
        threads,
        balance: 1.0,
    }
}
