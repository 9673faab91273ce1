//! Figure 10: round-trip latency CDF of all-pairs pings on the testbed,
//! for native Ethernet, no-op DPDK and DumbNet.
//!
//! The paper's setup: "we send 100 packets between every pair of hosts
//! and measure the end-to-end round-trip time … Since all hosts start to
//! ping each other at the same time, long tail in packet latency CDF is
//! the result of concurrent queries to the controller". The reproduction
//! keeps exactly that structure: cold path caches for DumbNet (so every
//! pair's first ping triggers a controller query, and the concurrent
//! query burst queues at the controller's service loop), pre-warmed
//! caches for the conventional baselines (which have no controller),
//! and per-variant host-stack latencies from the calibrated datapath
//! model.

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::agent::AppAction;
use dumbnet_host::{DatapathModel, DatapathVariant, HostAgent};
use dumbnet_topology::generators;
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};
use dumbnet_workload::Cdf;

use crate::report::{f, Report};

/// Measurement start: pings before this are warm-up and excluded.
const T_MEASURE: SimDuration = SimDuration(50_000_000); // 50 ms.

/// Runs the all-pairs ping mesh for one datapath variant; returns the
/// RTT CDF in milliseconds.
#[must_use]
pub fn ping_mesh(variant: DatapathVariant, pings_per_pair: u32) -> Cdf {
    Cdf::of_durations_ms(ping_mesh_rtts(variant, pings_per_pair))
}

/// The measured RTT samples of [`ping_mesh`], in host order (host 1
/// first) and, per host, in the order the echoes returned.
#[must_use]
pub fn ping_mesh_rtts(variant: DatapathVariant, pings_per_pair: u32) -> Vec<SimDuration> {
    let g = generators::testbed();
    let n = g.topology.host_count() as u64;
    let model = DatapathModel::default();
    let stack = model.stack_latency(variant);
    let warm = !matches!(variant, DatapathVariant::DumbNet);
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        cfg.stack_delay = stack;
        let mut actions = Vec::new();
        for other in 1..n {
            let dst = (id.get() + other) % n;
            if dst == 0 || dst == id.get() {
                continue; // Host 0 is the controller.
            }
            if warm {
                // Conventional networks have no path setup: pre-warm the
                // cache so measured pings see none.
                actions.push(AppAction::PingSeries {
                    at: SimDuration::from_millis(10),
                    dst: MacAddr::for_host(dst),
                    count: 1,
                    interval: SimDuration::from_millis(1),
                });
            }
            // `ping`'s default cadence is one echo per second per pair;
            // 100 ms here keeps runs short while staying far above the
            // controller's worst-case query backlog, so — as in the
            // paper — only each pair's *first* packet can land in the
            // cold-start tail.
            actions.push(AppAction::PingSeries {
                at: T_MEASURE,
                dst: MacAddr::for_host(dst),
                count: pings_per_pair,
                interval: SimDuration::from_millis(100),
            });
        }
        cfg.actions = actions;
        HostAgent::new(id, cfg)
    })
    .expect("fabric builds");
    let horizon =
        SimTime::ZERO + T_MEASURE + SimDuration::from_millis(u64::from(pings_per_pair) * 100 + 500);
    fabric.run_until(horizon);
    let mut rtts = Vec::new();
    let measure_from = SimTime::ZERO + T_MEASURE;
    for h in 1..n {
        if let Some(agent) = fabric.host(HostId(h)) {
            for &(_, sent, rtt) in &agent.stats().rtts {
                if sent >= measure_from {
                    rtts.push(rtt);
                }
            }
        }
    }
    rtts
}

/// Runs the Figure 10 reproduction.
#[must_use]
pub fn run(quick: bool) -> Report {
    let pings = if quick { 5 } else { 100 };
    let mut r = Report::new("Figure 10 — all-pairs RTT CDF (testbed, 26 hosts)");
    r.note(format!(
        "{pings} pings per ordered pair, all pairs concurrent."
    ));
    r.note("Paper: DPDK ≫ native latency; DumbNet ≈ no-op DPDK; ~0.5 % tail");
    r.note("at 20–30 ms from the concurrent first-packet controller queries.");
    r.header([
        "variant",
        "p10 (ms)",
        "p50",
        "p90",
        "p99",
        "p99.5",
        "max",
        "frac >20ms",
    ]);
    let variants = [
        DatapathVariant::NativeKernel,
        DatapathVariant::NoopDpdk,
        DatapathVariant::DumbNet,
    ];
    for v in variants {
        let cdf = ping_mesh(v, pings);
        let q = |p: f64| cdf.quantile(p).unwrap_or(f64::NAN);
        let tail = 1.0 - cdf.fraction_at_or_below(20.0);
        r.row([
            v.name().to_owned(),
            f(q(0.10), 3),
            f(q(0.50), 3),
            f(q(0.90), 3),
            f(q(0.99), 3),
            f(q(0.995), 3),
            f(q(1.0), 3),
            format!("{:.2}%", tail * 100.0),
        ]);
    }
    r.note(String::new());
    r.note("DumbNet's tail comes from first-packet path queries: sender and");
    r.note("receiver each pay a controller round trip, and the concurrent");
    r.note("burst queues at the controller's 50 µs/query service loop.");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbnet_has_cold_start_tail_and_dpdk_floor() {
        let native = ping_mesh(DatapathVariant::NativeKernel, 3);
        let dumbnet = ping_mesh(DatapathVariant::DumbNet, 3);
        // Native median well below DumbNet's (KNI crossing dominates).
        assert!(native.quantile(0.5).unwrap() < dumbnet.quantile(0.5).unwrap() / 4.0);
        // DumbNet max (cold start burst) far above its median.
        let (p50, max) = (
            dumbnet.quantile(0.5).unwrap(),
            dumbnet.quantile(1.0).unwrap(),
        );
        assert!(max > 4.0 * p50, "p50 {p50} max {max}");
    }
}
