//! Emulator hot-path wall-clock benchmark (`BENCH_perf.json`).
//!
//! Unlike the figure harnesses, which report *virtual-time* results from
//! the paper's experiments, this module measures how much *real* time the
//! emulator burns producing them — the metric the ROADMAP north star
//! ("as fast as the hardware allows") cares about. Each point is a
//! deterministic scenario dominated by one of the engine's hot paths:
//!
//! * `fig08a_fat_tree_k20` — full-scale topology discovery (millions of
//!   probe packets through the event queue and switch forwarding).
//! * `engine_forward_storm` — a raw packet storm down a switch chain:
//!   pure event scheduling + per-hop tag popping, no control plane.
//! * `engine_forward_storm_mt` — the same storm on the 8-shard PDES
//!   engine, with the load-balance parallelism bound recorded alongside
//!   the honest wall time.
//! * `fig10_path_service` — the all-pairs ping mesh with cold caches:
//!   path-graph construction and path queries on the controller.
//! * `fig11c_chaos_p05` — the lossy-fabric recovery run: fault-RNG
//!   draws, retries and failover on top of the data stream.
//! * `flowsim_incremental` / `flowsim_full_resolve` — the same
//!   pre-planned churn workload (thousands of active flows on a k=16
//!   fat-tree with arrivals, completions, reroutes and trunk flaps)
//!   solved incrementally and with the O(F·E) reference. Allocations
//!   are bit-identical by the solver's determinism contract; the wall
//!   ratio is the incremental solver's speedup.
//!
//! The `perf_hotpath` binary times the points and emits/merges the JSON.

use std::hash::Hasher;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::DatapathVariant;
use dumbnet_sim::{Ctx, Engine, FlowId, FlowSim, LinkParams, Node, ShardedWorld, World};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_topology::{generators, spath, Route, Topology};
use dumbnet_types::fasthash::FxHasher64;
use dumbnet_types::{Bandwidth, HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};
use dumbnet_workload::FlowMap;

use crate::fig08;
use crate::fig08c;
use crate::fig10;
use crate::fig11c;

/// One measured hot-path scenario.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Scenario key (stable across PRs; `BENCH_perf.json` joins on it).
    pub name: String,
    /// Real time the scenario took, seconds.
    pub wall_secs: f64,
    /// Simulator events dispatched, where the scenario exposes a world.
    pub events: Option<u64>,
    /// Scenario-specific sanity metric proving the run did the same work
    /// (probe count, delivery count, …).
    pub checksum: u64,
    /// Load-balance parallelism bound for sharded scenarios: total
    /// events over the busiest shard's events. This is the speedup the
    /// partition admits on sufficiently many cores, independent of the
    /// host's core count (CI containers are often single-core, where
    /// wall-clock speedup is physically impossible to demonstrate).
    pub parallelism: Option<f64>,
}

fn time<F: FnOnce() -> (Option<u64>, u64)>(name: &str, f: F) -> PerfPoint {
    let start = Instant::now();
    let (events, checksum) = f();
    PerfPoint {
        name: name.to_owned(),
        wall_secs: start.elapsed().as_secs_f64(),
        events,
        checksum,
        parallelism: None,
    }
}

/// Chain length of the forward-storm scenario.
const STORM_CHAIN: u8 = 8;

struct StormSink {
    got: u64,
}
impl Node for StormSink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: dumbnet_packet::Packet) {
        self.got += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Pure engine storm on any [`Engine`]: a chain of dumb switches,
/// packets injected with full tag paths, no hosts or controller.
/// Stresses event scheduling, wire lookup and per-hop tag consumption
/// only. The chain is spread in contiguous blocks over the engine's
/// cells, so every block boundary is a cross-shard wire.
fn forward_storm_on<E: Engine>(w: &mut E, packets: u64) -> (Option<u64>, u64) {
    let cells = u32::try_from(w.cell_count()).expect("cell count fits");
    let cell_of = |i: u8| u32::from(i) * cells / u32::from(STORM_CHAIN);
    let p = |n: u8| PortNo::new(n).expect("valid port");
    let switches: Vec<_> = (0..STORM_CHAIN)
        .map(|i| {
            w.add_node_in_cell(
                Box::new(DumbSwitch::new(
                    SwitchId(u64::from(i)),
                    8,
                    DumbSwitchConfig::default(),
                )),
                cell_of(i),
            )
        })
        .collect();
    let sink = w.add_node_in_cell(Box::new(StormSink { got: 0 }), cells - 1);
    for pair in switches.windows(2) {
        w.wire(pair[0], p(2), pair[1], p(1), LinkParams::ten_gig())
            .expect("wires");
    }
    w.wire(
        switches[STORM_CHAIN as usize - 1],
        p(2),
        sink,
        p(1),
        LinkParams::ten_gig(),
    )
    .expect("wires");
    let path =
        Path::from_ports(std::iter::repeat_n(2, usize::from(STORM_CHAIN))).expect("short path");
    // Pace injections at 1 µs so the first wire's queue never overflows
    // (900 B at 10 Gbps serializes in 720 ns) — the point is forwarding
    // throughput, not drop accounting.
    for i in 0..packets {
        let pkt = dumbnet_packet::Packet::data(
            MacAddr::for_host(1),
            MacAddr::for_host(0),
            path.clone(),
            i % 16,
            i,
            900,
        );
        let at = SimTime::ZERO + SimDuration::from_micros(i);
        w.inject(at, switches[0], p(1), pkt);
    }
    w.run_to_idle(u64::MAX);
    let delivered = w.node::<StormSink>(sink).expect("sink").got;
    assert_eq!(delivered, packets, "storm must be drop-free");
    (Some(w.stats().events), delivered)
}

/// The classic single-threaded storm.
fn forward_storm(packets: u64) -> (Option<u64>, u64) {
    let mut w = World::new(7);
    forward_storm_on(&mut w, packets)
}

/// The storm on the sharded PDES engine. Returns the usual
/// `(events, delivered)` pair plus the load-balance parallelism bound
/// (total events / busiest shard's events).
fn forward_storm_mt(packets: u64, shards: usize) -> (Option<u64>, u64, f64) {
    let mut w = ShardedWorld::new(7, shards);
    let (events, delivered) = forward_storm_on(&mut w, packets);
    let counts = w.shard_event_counts();
    let total: u64 = counts.iter().sum();
    let busiest = counts.iter().copied().max().unwrap_or(1).max(1);
    #[allow(clippy::cast_precision_loss)]
    let parallelism = total as f64 / busiest as f64;
    (events, delivered, parallelism)
}

/// Seed for the flow-solver churn plan's ECMP route draws.
const CHURN_SEED: u64 = 0xF10C;

/// Pre-planned flow-solver churn workload: host pairs with a primary and
/// an alternate ECMP path each, plus the trunk whose capacity flaps
/// mid-run. Planned once and replayed identically under both solver
/// modes, so any wall-clock difference is the solver's alone.
struct ChurnPlan {
    topo: Topology,
    /// `(primary, alternate)` edge paths per flow slot, in start order.
    /// Slot `i` is `FlowId(i)` in the replay — flows start in slot order.
    paths: Vec<(Vec<dumbnet_sim::EdgeId>, Vec<dumbnet_sim::EdgeId>)>,
    /// Trunk whose capacity flaps during churn.
    flap: (SwitchId, SwitchId),
    /// Flows started before the churn loop.
    initial: usize,
    /// Churn operations (each followed by a full rate query).
    ops: usize,
}

/// Plans the churn workload on a k=16 fat-tree (1024 hosts): `initial`
/// flows up front plus spare slots for mid-churn arrivals, each slot
/// with two independently drawn ECMP shortest paths.
fn churn_plan(initial: usize, ops: usize) -> ChurnPlan {
    let g = generators::fat_tree(16, 8, None);
    let topo = g.topology;
    let mut probe = FlowSim::new();
    // Edge enumeration is a function of the topology alone, so paths
    // planned against this probe instance are valid in the replays.
    let map = FlowMap::build(&mut probe, &topo, Bandwidth::gbps(10), Bandwidth::gbps(10));
    let mut rng = StdRng::seed_from_u64(CHURN_SEED);
    let hosts = topo.host_count() as u64;
    let slots = initial + ops.div_ceil(4) + 1;
    let mut paths = Vec::with_capacity(slots);
    for i in 0..slots as u64 {
        let src = HostId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % hosts);
        let mut dst = HostId(i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % hosts);
        if dst == src {
            dst = HostId((dst.0 + 1) % hosts);
        }
        let a = topo.host(src).expect("src host").attached.switch;
        let b = topo.host(dst).expect("dst host").attached.switch;
        let mut route = || {
            if a == b {
                Route::new(vec![a]).expect("trivial route")
            } else {
                spath::shortest_route(&topo, a, b, &mut rng).expect("fat-tree is connected")
            }
        };
        let (r1, r2) = (route(), route());
        let p1 = map.path(src, dst, &r1).expect("primary path");
        let p2 = map.path(src, dst, &r2).expect("alternate path");
        paths.push((p1, p2));
    }
    let flap = map
        .edge_map()
        .trunks()
        .next()
        .expect("fat-tree has trunks")
        .0;
    ChurnPlan {
        topo,
        paths,
        flap,
        initial,
        ops,
    }
}

/// Replays the churn plan under one solver mode. Every operation is
/// followed by an aggregate rate query (the solve trigger). Returns the
/// solve count as `events` and a checksum folding every queried
/// aggregate rate plus the completion count — bit-identical rates make
/// it identical across modes.
fn flowsim_churn(plan: &ChurnPlan, force_full: bool) -> (Option<u64>, u64) {
    let mut fs = FlowSim::new();
    let map = FlowMap::build(
        &mut fs,
        &plan.topo,
        Bandwidth::gbps(10),
        Bandwidth::gbps(10),
    );
    fs.set_force_full_solve(force_full);
    let bytes = |slot: usize| 20_000_000 + (slot as u64).wrapping_mul(9_973) % 80_000_000;
    let mut ids: Vec<FlowId> = Vec::new();
    for slot in 0..plan.initial {
        ids.push(fs.start_flow(plan.paths[slot].0.clone(), bytes(slot)));
    }
    let mut next_slot = plan.initial;
    let mut checksum: u64 = 0;
    for op in 0..plan.ops {
        match op % 4 {
            0 => {
                if let Some(t) = fs.next_completion_time() {
                    fs.advance_to(t);
                }
            }
            1 => {
                ids.push(fs.start_flow(plan.paths[next_slot].0.clone(), bytes(next_slot)));
                next_slot += 1;
            }
            2 => {
                let slot = op.wrapping_mul(7_919) % ids.len();
                let path = if op % 8 == 2 {
                    &plan.paths[slot].1
                } else {
                    &plan.paths[slot].0
                };
                fs.reroute(ids[slot], path.clone());
            }
            _ => {
                if op % 8 == 3 {
                    map.fail_link(&mut fs, plan.flap.0, plan.flap.1);
                } else {
                    map.restore_link(&mut fs, plan.flap.0, plan.flap.1, Bandwidth::gbps(10));
                }
            }
        }
        checksum = checksum.wrapping_add(fs.aggregate_rate(&ids).bits_per_sec());
    }
    let finished = ids.iter().filter(|&&f| fs.finished_at(f).is_some()).count() as u64;
    (
        Some(fs.solver_stats().solves),
        checksum ^ finished.rotate_left(32),
    )
}

/// Digest of the ping mesh's RTT samples, in collection order: moves
/// when the path service hands any pair a different path (and so a
/// different queueing history), not only when the sample count changes.
fn rtt_digest(rtts: &[SimDuration]) -> u64 {
    let mut h = FxHasher64::default();
    h.write_u64(rtts.len() as u64);
    for rtt in rtts {
        h.write_u64(rtt.nanos());
    }
    h.finish()
}

/// Runs every hot-path scenario. `quick` trims the discovery point to
/// fat-tree k=8 and shrinks the storm so CI can smoke-run it.
#[must_use]
pub fn run(quick: bool) -> Vec<PerfPoint> {
    let mut points = Vec::new();

    let storm_packets: u64 = if quick { 20_000 } else { 200_000 };
    points.push(time("engine_forward_storm", || {
        forward_storm(storm_packets)
    }));

    // The same storm on the 8-shard PDES engine. Wall time is honest
    // (on a single-core host the windowed engine pays synchronization
    // overhead for nothing); the `parallelism` field records the
    // speedup bound the partition admits — total events over the
    // busiest shard — which is what multi-core hosts realize.
    {
        const STORM_SHARDS: usize = 8;
        let start = Instant::now();
        let (events, delivered, parallelism) = forward_storm_mt(storm_packets, STORM_SHARDS);
        points.push(PerfPoint {
            name: "engine_forward_storm_mt".to_owned(),
            wall_secs: start.elapsed().as_secs_f64(),
            events,
            checksum: delivered,
            parallelism: Some(parallelism),
        });
    }

    // The best point of the fig08c window sweep: pipelined discovery
    // with 16 probes in flight per pump tick. Lockstep (window 1) is
    // what fig08a *reports* for the paper's figure; the perf point
    // tracks the fastest supported configuration because that is what
    // an operator bootstrapping a real fabric would run.
    const FIG08A_WINDOW: usize = 16;
    let k: usize = if quick { 8 } else { 20 };
    let max_ports: u8 = if quick { 16 } else { 64 };
    points.push(time(&format!("fig08a_fat_tree_k{k}"), || {
        let g = generators::fat_tree(k, 1, Some(max_ports.max(k as u8)));
        let pt = fig08::discover_windowed(g.topology, HostId(0), max_ports, "perf", FIG08A_WINDOW);
        assert!(pt.exact, "discovery must still map exactly");
        (None, pt.probes)
    }));

    // Batched control plane: the fig08c quick sweep (windowed discovery
    // on k=8 plus the coalesced-burst convergence scenario). Always the
    // quick variant — the full sweep re-runs k=20 discovery per window
    // and is a figure, not a perf point.
    points.push(time("fig08c_batch_convergence", || {
        let sweep = fig08c::sweep(true);
        (None, sweep.checksum())
    }));

    points.push(time("fig10_path_service", || {
        let rtts = fig10::ping_mesh_rtts(DatapathVariant::DumbNet, 2);
        (None, rtt_digest(&rtts))
    }));

    points.push(time("fig11c_chaos_p05", || {
        let pt = fig11c::chaos_recovery_point(0.05);
        (None, pt.drops_loss)
    }));

    // Incremental max-min vs the O(F·E) reference solver on one shared
    // churn plan. Full scale is the acceptance scenario (10k active
    // flows); quick shrinks the flow count so CI can smoke-run the
    // reference mode, which pays the full-resolve cost per query.
    let (churn_flows, churn_ops) = if quick { (2_000, 60) } else { (10_000, 100) };
    let plan = churn_plan(churn_flows, churn_ops);
    points.push(time("flowsim_incremental", || flowsim_churn(&plan, false)));
    points.push(time("flowsim_full_resolve", || flowsim_churn(&plan, true)));
    {
        let inc = &points[points.len() - 2];
        let full = &points[points.len() - 1];
        assert_eq!(
            inc.checksum, full.checksum,
            "incremental and full-resolve allocations diverged"
        );
        assert_eq!(
            inc.events, full.events,
            "incremental and full-resolve solve counts diverged"
        );
    }

    points
}

/// Builds the testbed fabric, runs the full boot + discovery sequence,
/// and returns `(snapshot_is_empty, snapshot_json)`.
fn telemetry_probe() -> (bool, String) {
    let g = generators::testbed();
    let mut fabric = Fabric::build(g.topology, FabricConfig::default()).expect("fabric builds");
    fabric.run_until(SimTime::ZERO + dumbnet_types::SimDuration::from_millis(300));
    let snap = fabric.telemetry_snapshot();
    (snap.metrics.is_empty(), snap.to_json())
}

/// Telemetry determinism smoke (CI gate): the registry must be populated
/// after a boot sequence, and two same-seed runs must serialize to
/// byte-identical snapshot JSON. Returns the document length on success.
///
/// # Errors
///
/// Returns a description of the failure: an empty registry, or a byte
/// difference between the two runs' snapshot documents.
pub fn telemetry_determinism_check() -> Result<usize, String> {
    let (empty, a) = telemetry_probe();
    if empty {
        return Err("telemetry snapshot is empty: no metrics registered".to_owned());
    }
    let (_, b) = telemetry_probe();
    if a != b {
        return Err(format!(
            "telemetry snapshot JSON diverged between two same-seed runs \
             ({} vs {} bytes)",
            a.len(),
            b.len()
        ));
    }
    Ok(a.len())
}

/// Everything the sharded engine's determinism contract covers, as one
/// comparable string: merged engine counters plus the merged telemetry
/// snapshot JSON.
fn shard_digest(w: &mut ShardedWorld) -> String {
    format!("{:?}|{}", w.stats(), w.telemetry_snapshot().to_json())
}

/// Cross-shard determinism gate (CI): the same workload must produce
/// byte-identical observables at 1 shard and at 8 shards, for both the
/// raw engine storm and a full DumbNet fabric boot on the sharded
/// engine.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn shard_determinism_check() -> Result<usize, String> {
    // Raw engine: the forward storm.
    let digests: Vec<String> = [1usize, 8]
        .iter()
        .map(|&shards| {
            let mut w = ShardedWorld::new(7, shards);
            forward_storm_on(&mut w, 5_000);
            shard_digest(&mut w)
        })
        .collect();
    if digests[0] != digests[1] {
        return Err(format!(
            "forward storm diverged between 1 and 8 shards \
             ({} vs {} digest bytes)",
            digests[0].len(),
            digests[1].len()
        ));
    }

    // Full stack: testbed fabric boot + hello distribution.
    let fabric_digest = |cells: u32| -> String {
        let g = generators::testbed();
        let mut fabric =
            Fabric::build_sharded(g.topology, FabricConfig::default(), &g.groups, cells)
                .expect("sharded fabric builds");
        fabric.run_until(SimTime::ZERO + dumbnet_types::SimDuration::from_millis(300));
        format!(
            "{:?}|{}",
            fabric.world.stats(),
            fabric.telemetry_snapshot().to_json()
        )
    };
    let (a, b) = (fabric_digest(1), fabric_digest(8));
    if a != b {
        return Err(format!(
            "testbed fabric boot diverged between 1 and 8 cells \
             ({} vs {} digest bytes)",
            a.len(),
            b.len()
        ));
    }
    Ok(digests[0].len() + a.len())
}

/// Serializes one run (hand-rolled JSON; the schema is flat).
#[must_use]
pub fn to_json(label: &str, points: &[PerfPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let events = p.events.map_or("null".to_owned(), |e| e.to_string());
            let parallelism = p
                .parallelism
                .map_or(String::new(), |x| format!(", \"parallelism\": {x:.2}"));
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"wall_secs\": {:.3}, ",
                    "\"events\": {}, \"checksum\": {}{}}}"
                ),
                p.name, p.wall_secs, events, p.checksum, parallelism
            )
        })
        .collect();
    format!(
        "{{\n  \"label\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}",
        label,
        rows.join(",\n")
    )
}

/// Merges a baseline document (verbatim) with a fresh run into the
/// `BENCH_perf.json` schema, computing per-point speedups by name.
#[must_use]
pub fn merged_json(before_doc: &str, after: &[PerfPoint]) -> String {
    let speedups: Vec<String> = after
        .iter()
        .filter_map(|p| {
            // Minimal extraction: find the matching name in the baseline
            // document and read its wall_secs field.
            let needle = format!("\"name\": \"{}\", \"wall_secs\": ", p.name);
            let at = before_doc.find(&needle)? + needle.len();
            let rest = &before_doc[at..];
            let end = rest.find(',')?;
            let before_secs: f64 = rest[..end].trim().parse().ok()?;
            if p.wall_secs > 0.0 {
                Some(format!(
                    "    \"{}\": {:.2}",
                    p.name,
                    before_secs / p.wall_secs
                ))
            } else {
                None
            }
        })
        .collect();
    let indent = |doc: &str| doc.replace('\n', "\n  ");
    format!(
        "{{\n  \"before\": {},\n  \"after\": {},\n  \"speedup\": {{\n{}\n  }}\n}}",
        indent(before_doc.trim()),
        indent(to_json("after", after).trim()),
        speedups.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_delivers_everything() {
        let (events, delivered) = forward_storm(500);
        assert_eq!(delivered, 500);
        assert!(events.unwrap() > 500 * 8);
    }

    #[test]
    fn sharded_storm_matches_single_threaded() {
        let (events, delivered) = forward_storm(500);
        for shards in [1usize, 2, 4, 8] {
            let (mt_events, mt_delivered, parallelism) = forward_storm_mt(500, shards);
            assert_eq!(mt_delivered, delivered, "{shards}-shard storm dropped");
            assert_eq!(mt_events, events, "{shards}-shard storm event count");
            assert!(parallelism >= 1.0);
        }
    }

    #[test]
    fn quick_mode_checksums_are_pinned() {
        // Behavior-preservation regression gate: the telemetry refactor
        // (and any future engine change) must not alter what the quick
        // scenarios compute, only how fast they run.
        let points = run(true);
        let get = |name: &str| {
            points
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("missing perf point {name}"))
        };
        let storm = get("engine_forward_storm");
        assert_eq!(storm.checksum, 20_000, "storm delivery count changed");
        assert_eq!(storm.events, Some(180_009), "storm event count changed");
        let storm_mt = get("engine_forward_storm_mt");
        assert_eq!(storm_mt.checksum, 20_000, "sharded storm delivery changed");
        assert_eq!(storm_mt.events, storm.events, "sharded storm diverged");
        assert!(
            storm_mt.parallelism.unwrap_or(0.0) >= 3.0,
            "storm partition admits < 3x parallelism: {:?}",
            storm_mt.parallelism
        );
        assert_eq!(
            get("fig08a_fat_tree_k8").checksum,
            78_865,
            "discovery probe count changed"
        );
        assert_eq!(
            get("fig08c_batch_convergence").checksum,
            236_734,
            "batched control-plane sweep checksum changed"
        );
        assert_eq!(
            get("fig10_path_service").checksum,
            8_662_358_966_256_191_469,
            "ping-mesh RTT samples changed"
        );
        assert_eq!(
            get("fig11c_chaos_p05").checksum,
            7_168,
            "chaos drop count changed"
        );
        let inc = get("flowsim_incremental");
        assert_eq!(
            inc.checksum,
            get("flowsim_full_resolve").checksum,
            "solver modes diverged"
        );
        assert_eq!(
            inc.checksum, 350_028_950_212_709,
            "flow-solver churn checksum changed"
        );
    }

    #[test]
    fn telemetry_determinism_gate_passes() {
        let len = telemetry_determinism_check().expect("snapshots must be deterministic");
        assert!(len > 1_000, "suspiciously small snapshot: {len} bytes");
    }

    #[test]
    fn json_round_trip_merges_speedup() {
        let before = vec![PerfPoint {
            name: "x".into(),
            wall_secs: 2.0,
            events: Some(10),
            checksum: 3,
            parallelism: None,
        }];
        let after = vec![PerfPoint {
            name: "x".into(),
            wall_secs: 1.0,
            events: Some(10),
            checksum: 3,
            parallelism: None,
        }];
        let doc = merged_json(&to_json("before", &before), &after);
        assert!(doc.contains("\"x\": 2.00"), "{doc}");
        assert!(doc.contains("\"label\": \"before\""));
        assert!(doc.contains("\"label\": \"after\""));
    }
}
