//! The path service as first written, kept as the test oracle for the
//! dense search core: `SwitchId`-keyed maps and sets throughout, a
//! port-slot scan for neighbors, Dijkstra for hop distances, and Yen
//! that clones the graph and rebuilds its adjacency per spur.
//!
//! [`build`], [`shortest_within`] and [`k_shortest_within`] must agree
//! with the production code field for field, order and RNG draws
//! included.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet};

use rand::Rng;

use dumbnet_types::{DumbNetError, HostId, LinkId, PortId, PortNo, Result, SwitchId};

use super::{Endpoint, PathGraph, PathGraphParams, SubEdge};
use crate::graph::{Attachment, Topology};
use crate::route::Route;

/// Up-link neighbors by scanning every port slot of `sw`.
pub(crate) fn neighbors(topo: &Topology, sw: SwitchId) -> Vec<(PortNo, SwitchId, LinkId)> {
    let Ok(info) = topo.switch(sw) else {
        return Vec::new();
    };
    info.wired_ports()
        .filter_map(|(port, att)| match att {
            Attachment::Link(lid) => {
                let link = topo.link(lid).ok()?;
                if !link.up {
                    return None;
                }
                let (_, remote) = link.from_switch(sw)?;
                Some((port, remote.switch, lid))
            }
            Attachment::Host(_) => None,
        })
        .collect()
}

pub(crate) fn distances_weighted<F>(topo: &Topology, source: SwitchId, cost: F) -> Vec<u64>
where
    F: Fn((SwitchId, SwitchId)) -> u64,
{
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if (source.get() as usize) < n {
        dist[source.get() as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u.get() as usize] {
                continue;
            }
            for (_, v, _) in neighbors(topo, u) {
                let nd = d.saturating_add(cost((u, v)));
                if nd < dist[v.get() as usize] {
                    dist[v.get() as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    dist
}

fn dist_of(dist: &[u64], sw: SwitchId) -> Option<u64> {
    match dist.get(sw.get() as usize) {
        Some(&u64::MAX) | None => None,
        Some(&d) => Some(d),
    }
}

pub(crate) fn shortest_route_weighted<F, R>(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    cost: F,
    rng: &mut R,
) -> Option<Route>
where
    F: Fn((SwitchId, SwitchId)) -> u64,
    R: Rng,
{
    let n = topo.switch_count();
    if src.get() as usize >= n || dst.get() as usize >= n {
        return None;
    }
    if src == dst {
        return Route::new(vec![src]).ok();
    }
    let dist = distances_weighted(topo, dst, |(a, b)| cost((b, a)));
    dist_of(&dist, src)?;
    let mut route = vec![src];
    let mut cur = src;
    for _ in 0..n {
        if cur == dst {
            return Route::new(route).ok();
        }
        let d_cur = dist_of(&dist, cur)?;
        let mut best: Vec<SwitchId> = Vec::new();
        let mut best_cost = u64::MAX;
        for (_, v, _) in neighbors(topo, cur) {
            if let Some(dv) = dist_of(&dist, v) {
                let through = cost((cur, v)).saturating_add(dv);
                if through < best_cost {
                    best_cost = through;
                    best.clear();
                    best.push(v);
                } else if through == best_cost {
                    best.push(v);
                }
            }
        }
        if best.is_empty() || best_cost > d_cur {
            return None;
        }
        best.sort();
        best.dedup();
        let next = best[rng.gen_range(0..best.len())];
        route.push(next);
        cur = next;
    }
    (cur == dst).then(|| Route::new(route).ok()).flatten()
}

pub(crate) fn build<R: Rng>(
    topo: &Topology,
    src: HostId,
    dst: HostId,
    params: &PathGraphParams,
    rng: &mut R,
) -> Result<PathGraph> {
    let src_info = *topo.host(src)?;
    let dst_info = *topo.host(dst)?;
    let s_src = src_info.attached.switch;
    let s_dst = dst_info.attached.switch;

    let primary =
        shortest_route_weighted(topo, s_src, s_dst, |_| 1, rng).ok_or(DumbNetError::NoRoute {
            src: src.get(),
            dst: dst.get(),
        })?;

    let primary_links: HashSet<(SwitchId, SwitchId)> = primary
        .switches()
        .windows(2)
        .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
        .collect();
    let penalty = topo.switch_count() as u64 + 2;
    let backup = shortest_route_weighted(
        topo,
        s_src,
        s_dst,
        |e| {
            if primary_links.contains(&e) {
                penalty
            } else {
                1
            }
        },
        rng,
    )
    .filter(|b| b.switches() != primary.switches());

    let p = primary.switches();
    let l = p.len() - 1;
    let s_win = params.s.max(1);
    let mut detour: BTreeSet<SwitchId> = p.iter().copied().collect();
    let step = (s_win / 2).max(1);
    let mut i = 0usize;
    while i < l {
        let a = p[i];
        let b = p[(i + s_win).min(l)];
        let window_len = (i + s_win).min(l) - i;
        let da = distances_weighted(topo, a, |_| 1);
        let db = distances_weighted(topo, b, |_| 1);
        let budget = window_len as u64 + params.epsilon;
        for (ix, &dax) in da.iter().enumerate() {
            if dax == u64::MAX {
                continue;
            }
            let x = SwitchId::new(ix as u64);
            if let Some(dxb) = dist_of(&db, x) {
                if dax + dxb <= budget {
                    detour.insert(x);
                }
            }
        }
        i += step;
    }
    if let Some(b) = &backup {
        detour.extend(b.switches().iter().copied());
    }

    let mut edges = Vec::new();
    let mut seen: BTreeSet<(PortId, PortId)> = BTreeSet::new();
    for &sw in &detour {
        for (_, nb, lid) in neighbors(topo, sw) {
            if !detour.contains(&nb) {
                continue;
            }
            let link = topo.link(lid)?;
            let (a, b) = if link.a <= link.b {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            if seen.insert((a, b)) {
                edges.push(SubEdge { a, b });
            }
        }
    }

    Ok(PathGraph {
        src: Endpoint {
            host: src,
            mac: src_info.mac,
            attach: src_info.attached,
        },
        dst: Endpoint {
            host: dst,
            mac: dst_info.mac,
            attach: dst_info.attached,
        },
        primary,
        backup,
        switches: detour,
        edges,
    })
}

fn adjacency(
    g: &PathGraph,
    down: &HashSet<(SwitchId, SwitchId)>,
) -> BTreeMap<SwitchId, Vec<(PortNo, SwitchId)>> {
    let mut adj: BTreeMap<SwitchId, Vec<(PortNo, SwitchId)>> = BTreeMap::new();
    for e in &g.edges {
        if down.contains(&e.key()) {
            continue;
        }
        adj.entry(e.a.switch)
            .or_default()
            .push((e.a.port, e.b.switch));
        adj.entry(e.b.switch)
            .or_default()
            .push((e.b.port, e.a.switch));
    }
    adj
}

pub(crate) fn shortest_within(
    g: &PathGraph,
    down: &HashSet<(SwitchId, SwitchId)>,
) -> Option<Route> {
    let adj = adjacency(g, down);
    let src = g.src.attach.switch;
    let dst = g.dst.attach.switch;
    if src == dst {
        return Route::new(vec![src]).ok();
    }
    let mut dist: BTreeMap<SwitchId, u64> = BTreeMap::new();
    let mut prev: BTreeMap<SwitchId, SwitchId> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src, 0);
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > *dist.get(&u).unwrap_or(&u64::MAX) {
            continue;
        }
        if u == dst {
            break;
        }
        if let Some(nexts) = adj.get(&u) {
            for &(_, v) in nexts {
                let nd = d + 1;
                if nd < *dist.get(&v).unwrap_or(&u64::MAX) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    dist.get(&dst)?;
    let mut route = vec![dst];
    let mut cur = dst;
    while let Some(&p) = prev.get(&cur) {
        route.push(p);
        cur = p;
    }
    route.reverse();
    Route::new(route).ok()
}

pub(crate) fn k_shortest_within(
    g: &PathGraph,
    k: usize,
    down: &HashSet<(SwitchId, SwitchId)>,
) -> Vec<Route> {
    if k == 0 {
        return Vec::new();
    }
    let mut results: Vec<Route> = Vec::new();
    let Some(first) = shortest_within(g, down) else {
        return results;
    };
    results.push(first);
    let mut candidates: BinaryHeap<Reverse<(usize, Vec<SwitchId>)>> = BinaryHeap::new();
    let mut seen: HashSet<Vec<SwitchId>> = results.iter().map(|r| r.switches().to_vec()).collect();
    while results.len() < k {
        let last = results.last().expect("non-empty").switches().to_vec();
        for spur_ix in 0..last.len().saturating_sub(1) {
            let root = &last[..=spur_ix];
            let mut banned: HashSet<(SwitchId, SwitchId)> = down.clone();
            for r in results
                .iter()
                .map(Route::switches)
                .chain(candidates.iter().map(|c| c.0 .1.as_slice()))
            {
                if r.len() > spur_ix && r[..=spur_ix] == *root {
                    let (a, b) = (r[spur_ix], r[spur_ix + 1]);
                    let key = if a <= b { (a, b) } else { (b, a) };
                    banned.insert(key);
                }
            }
            let root_nodes: HashSet<SwitchId> = root[..spur_ix].iter().copied().collect();
            let sub = PathGraph {
                src: Endpoint {
                    attach: PortId::new(root[spur_ix], g.src.attach.port),
                    ..g.src
                },
                ..g.clone()
            };
            for e in &g.edges {
                let (x, y) = e.key();
                if root_nodes.contains(&x) || root_nodes.contains(&y) {
                    banned.insert((x, y));
                }
            }
            if let Some(spur) = shortest_within(&sub, &banned) {
                let mut total = root[..spur_ix].to_vec();
                total.extend(spur.switches());
                if total.windows(2).all(|w| w[0] != w[1]) && seen.insert(total.clone()) {
                    candidates.push(Reverse((total.len(), total)));
                }
            }
        }
        match candidates.pop() {
            Some(Reverse((_, next))) => {
                if let Ok(r) = Route::new(next) {
                    if r.is_simple() {
                        results.push(r);
                    }
                }
            }
            None => break,
        }
    }
    results
}
