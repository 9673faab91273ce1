//! Golden checksum over the path-graph service: what the controller
//! builds (Algorithm 1) and what a host extracts from it (Yen within the
//! cached subgraph). Any change to which graphs, edge orders, routes or
//! route orders the service produces — or to how many RNG draws a build
//! consumes — moves the digest.

use std::collections::HashSet;
use std::hash::Hasher;

use dumbnet::topology::{generators, pathgraph, PathGraph, PathGraphParams, Route};
use dumbnet::types::fasthash::FxHasher64;
use dumbnet::types::{HostId, PortId, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn port(h: &mut FxHasher64, p: PortId) {
    h.write_u64(p.switch.get());
    h.write_u64(u64::from(p.port.get()));
}

fn route(h: &mut FxHasher64, r: &Route) {
    h.write_u64(r.switches().len() as u64);
    for s in r.switches() {
        h.write_u64(s.get());
    }
}

fn graph(h: &mut FxHasher64, g: &PathGraph) {
    port(h, g.src.attach);
    port(h, g.dst.attach);
    route(h, &g.primary);
    match &g.backup {
        Some(b) => route(h, b),
        None => h.write_u64(u64::MAX),
    }
    h.write_u64(g.switches.len() as u64);
    for s in &g.switches {
        h.write_u64(s.get());
    }
    h.write_u64(g.edges.len() as u64);
    for e in &g.edges {
        port(h, e.a);
        port(h, e.b);
    }
}

fn routes(h: &mut FxHasher64, rs: &[Route]) {
    h.write_u64(rs.len() as u64);
    for r in rs {
        route(h, r);
    }
}

#[test]
fn fat_tree_k8_path_service_digest_is_pinned() {
    let topo = generators::fat_tree(8, 4, None).topology;
    let hosts = topo.host_count() as u64;
    let params = PathGraphParams::default();
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut h = FxHasher64::default();
    for _ in 0..200 {
        let (a, b) = loop {
            let (a, b) = (rng.gen_range(0..hosts), rng.gen_range(0..hosts));
            if a != b {
                break (HostId(a), HostId(b));
            }
        };
        let g = pathgraph::build(&topo, a, b, &params, &mut rng).expect("fat-tree is connected");
        graph(&mut h, &g);
        routes(&mut h, &g.k_shortest_within(4, &HashSet::new()));
        // Host-side failover: the primary's first link reported down.
        let p = g.primary.switches();
        if p.len() > 1 {
            let key: (SwitchId, SwitchId) = if p[0] <= p[1] {
                (p[0], p[1])
            } else {
                (p[1], p[0])
            };
            let down: HashSet<_> = [key].into_iter().collect();
            routes(&mut h, &g.k_shortest_within(4, &down));
            match g.shortest_within(&down) {
                Some(r) => route(&mut h, &r),
                None => h.write_u64(u64::MAX),
            }
        }
    }
    assert_eq!(
        h.finish(),
        12_973_295_981_699_394_673,
        "path-service digest changed"
    );
}
