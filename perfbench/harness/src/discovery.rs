//! `discovery`: the controller maps a k=16 fat-tree from boot (paper
//! Fig 8(a)).
//!
//! 320 switches with 64 probed ports each and one host per edge switch;
//! the controller runs with its default configuration (lockstep probe
//! window 1, 33 µs per probe). The timed phase runs from boot to an
//! exact map: controller discovery, the event queue and switch tag-pop
//! do nearly all the work, while host data paths, PDES and the flow
//! solver sit idle. A short untimed traffic phase follows once the map
//! is exact — a few seed-drawn hosts ping and stream to each other, so
//! the first path service after bootstrap is checked end to end.

use std::time::Instant;

use dumbnet_core::Fabric;
use dumbnet_host::agent::AppAction;
use dumbnet_host::HostAgent;
use dumbnet_sim::World;
use dumbnet_topology::{generators, Topology};
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{fabric_config, run_chunk, run_chunks, secs, timed, Iter, Sweep};
use crate::stats::Digest;
use crate::trace::Tracer;

/// Fat-tree arity: 320 switches, 128 edge switches.
const K: usize = 16;
/// Ports per switch the controller probes (the discovery default).
const PORTS: u8 = 64;
/// Discovery is driven in chunks of this much virtual time.
const CHUNK: SimDuration = SimDuration(5_000_000_000);
/// Give up on discovery after this much virtual time.
const GIVE_UP: SimDuration = SimDuration(3_600_000_000_000);
/// Post-map traffic starts here — after any seed's discovery finishes.
const T_TRAFFIC: SimDuration = SimDuration(300_000_000_000);
/// Post-map sources, each pinging and streaming to one peer.
const PAIRS: usize = 64;
const PINGS: u32 = 4;
const PACKETS: u64 = 200;
const BYTES: usize = 1500;
const GAP: SimDuration = SimDuration(10_000);
/// Sources start spread over this window.
const SPREAD_NS: u64 = 20_000_000;
/// Flow ids of the post-map streams start here.
const FLOW_BASE: u64 = 1_000;

pub struct Prepared {
    fabric: Fabric<World>,
    truth: Topology,
    ctrl: HostId,
    /// `(source, destination, start offset)` of the post-map pairs.
    pairs: Vec<(HostId, HostId, SimDuration)>,
    pub setup_s: f64,
    pub build_s: f64,
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> Prepared {
    let start = Instant::now();
    let span = tracer.start();
    let g = generators::fat_tree(K, 1, Some(PORTS));
    let truth = g.topology.clone();
    let hosts = truth.host_count() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
    let ctrl = HostId(rng.gen_range(0..hosts));
    // Sources start evenly spaced (plus jitter) so their cold path
    // requests never queue behind each other at the controller.
    let slot = SPREAD_NS / PAIRS as u64;
    let mut pairs = Vec::with_capacity(PAIRS);
    let mut used = vec![false; hosts as usize];
    used[ctrl.0 as usize] = true;
    while pairs.len() < PAIRS {
        let src = rng.gen_range(0..hosts);
        let dst = rng.gen_range(0..hosts);
        if used[src as usize] || dst == src || dst == ctrl.0 {
            continue;
        }
        used[src as usize] = true;
        let offset = pairs.len() as u64 * slot + rng.gen_range(0..slot);
        pairs.push((HostId(src), HostId(dst), SimDuration::from_nanos(offset)));
    }
    let mut cfg = fabric_config(seed);
    cfg.controllers = vec![ctrl];
    cfg.controller.run_discovery = true;
    cfg.controller.discovery.max_ports = PORTS;
    tracer.record("setup", "plan", span, &[]);

    let span = tracer.start();
    let build = Instant::now();
    let plan = pairs.clone();
    let fabric = Fabric::build_with(g.topology, cfg, move |id, mut hc| {
        if let Some((i, &(_, dst, offset))) = plan.iter().enumerate().find(|(_, p)| p.0 == id) {
            let at = T_TRAFFIC + offset;
            let dst = MacAddr::for_host(dst.get());
            hc.actions = vec![
                AppAction::PingSeries {
                    at,
                    dst,
                    count: PINGS,
                    interval: SimDuration::from_millis(1),
                },
                AppAction::DataStream {
                    at,
                    dst,
                    flow: FLOW_BASE + i as u64,
                    packets: PACKETS,
                    bytes: BYTES,
                    interval: GAP,
                },
            ];
        }
        HostAgent::new(id, hc)
    })
    .expect("fat-tree fabric builds");
    let build_s = secs(build);
    tracer.record("setup", "Fabric::build", span, &[]);
    Prepared {
        fabric,
        truth,
        ctrl,
        pairs,
        setup_s: secs(start),
        build_s,
    }
}

/// Whether the controller's map equals ground truth: same switches,
/// links (with ports) and host attachments.
fn map_is_exact(found: Option<&Topology>, truth: &Topology) -> bool {
    let norm = |l: &dumbnet_topology::Link| if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) };
    found.is_some_and(|found| {
        found.switch_count() == truth.switch_count()
            && found.link_count() == truth.link_count()
            && found.host_count() == truth.host_count()
            && found.links().all(|l| {
                truth
                    .link_between(l.a.switch, l.b.switch)
                    .is_some_and(|real| norm(l) == norm(real))
            })
            && truth.hosts().all(|h| {
                found
                    .host_by_mac(h.mac)
                    .is_some_and(|x| x.attached == h.attached)
            })
    })
}

pub fn run(mut p: Prepared, tracer: &mut Tracer) -> Iter {
    let events0 = p.fabric.world.stats().events;
    let ((), wall_s, threads) = timed(|| {
        let mut horizon = SimTime::ZERO;
        loop {
            horizon = horizon + CHUNK;
            run_chunk(&mut p.fabric, horizon, "run", tracer);
            let ready = p.fabric.controller(p.ctrl).is_some_and(|c| c.ready());
            if ready || horizon > SimTime::ZERO + GIVE_UP {
                break;
            }
        }
    });
    let timed_events = p.fabric.world.stats().events - events0;

    let ctrl = p.fabric.controller(p.ctrl).expect("controller exists");
    let exact = map_is_exact(ctrl.topology.as_ref(), &p.truth);
    let cstats = ctrl.stats();
    let discovery = cstats.discovery_time.unwrap_or(SimDuration::ZERO);

    // Untimed: the first traffic after bootstrap.
    let last_offset = p.pairs.iter().map(|x| x.2).max().unwrap_or_default();
    let first_offset = p.pairs.iter().map(|x| x.2).min().unwrap_or_default();
    let end = SimTime::ZERO + T_TRAFFIC + last_offset + SimDuration::from_millis(200);
    run_chunks(
        &mut p.fabric,
        end,
        SimDuration::from_millis(50),
        "post-map traffic",
        tracer,
    );

    let ctrl = p.fabric.controller(p.ctrl).expect("controller exists");
    let path_requests = ctrl.stats().path_requests;
    let world = p.fabric.world.stats();
    let sweep = Sweep::of(&p.fabric);
    let pings = (PAIRS as u64) * u64::from(PINGS);
    let answered = sweep.rtts.len() as u64;
    let packets = (PAIRS as u64) * PACKETS;
    let (delivered, bytes) = sweep.delivered_where(|f| f >= FLOW_BASE);
    let lat_us: Vec<f64> = sweep.rtts.iter().map(|r| r.2.as_micros_f64()).collect();
    let stream_span = (last_offset - first_offset + GAP.saturating_mul(PACKETS)).as_secs_f64();

    let mut d = Digest::new();
    d.u64(cstats.probes_sent);
    d.u64(discovery.nanos());
    d.u64(u64::from(exact));
    sweep.digest_into(&mut d);

    #[allow(clippy::cast_precision_loss)]
    Iter {
        setup_s: p.setup_s,
        boot_s: 0.0,
        build_s: p.build_s,
        wall_s,
        virtual_s: discovery.as_secs_f64(),
        lat_us,
        goodput_gbps: (bytes * 8) as f64 / stream_span / 1e9,
        attempted: 1 + pings + packets,
        failed: u64::from(!exact)
            + (pings - answered.min(pings))
            + (packets - delivered.min(packets)),
        checks: vec![
            ("discovered map equals ground truth", exact),
            ("every post-map ping answered", answered == pings),
            ("every post-map packet delivered", delivered == packets),
        ],
        digest: d.finish(),
        layers: vec![
            ("sim.events", timed_events as f64),
            ("sim.events_per_s", timed_events as f64 / wall_s),
            ("sim.drops_queue", world.drops_queue as f64),
            ("switch.forwarded", sweep.forwarded as f64),
            ("host.path_requests", sweep.path_requests as f64),
            ("host.queued_on_miss", sweep.queued_on_miss as f64),
            ("controller.probes_sent", cstats.probes_sent as f64),
            ("controller.path_requests", path_requests as f64),
        ],
        named: vec![
            ("discovery_time_s", discovery.as_secs_f64(), "s"),
            ("probes", cstats.probes_sent as f64, "count"),
        ],
        cells: 1,
        threads,
        balance: 1.0,
    }
}
