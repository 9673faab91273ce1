//! Path graphs — the paper's Algorithm 1 (§4.3).
//!
//! A path graph is the unit of caching between controller and host: a
//! subgraph of the topology containing (i) a primary shortest path,
//! (ii) *s-step, ε-good* local detours around every window of the primary
//! path, and (iii) a backup path sharing as few links with the primary as
//! possible. Hosts route within their cached path graphs and only go back
//! to the controller when the subgraph no longer connects the endpoints.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use rand::Rng;
use serde::{Deserialize, Serialize};

use dumbnet_types::{DumbNetError, FastHashSet, HostId, MacAddr, Path, PortId, Result, SwitchId};

use crate::graph::Topology;
use crate::route::Route;
use crate::spath;

#[cfg(test)]
mod reference;

/// Tunables for path-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathGraphParams {
    /// How many alternative paths the host's PathTable extracts and
    /// caches from the subgraph.
    pub k: usize,
    /// Detour window length in hops (`s` in Algorithm 1). The paper's
    /// evaluation fixes `s = 2`.
    pub s: usize,
    /// Detour slack in hops (`ε` in Algorithm 1): a detour for a window
    /// of length `s` may be up to `s + ε` hops long.
    pub epsilon: u64,
}

impl Default for PathGraphParams {
    fn default() -> PathGraphParams {
        PathGraphParams {
            k: 4,
            s: 2,
            epsilon: 2,
        }
    }
}

/// A host endpoint of a path graph: identity plus attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Endpoint {
    /// Host identity.
    pub host: HostId,
    /// Host MAC address.
    pub mac: MacAddr,
    /// Switch port the host hangs off.
    pub attach: PortId,
}

/// One switch-to-switch edge of the cached subgraph, with port detail so
/// hosts can emit tag paths without consulting the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SubEdge {
    /// One endpoint.
    pub a: PortId,
    /// The other endpoint.
    pub b: PortId,
}

impl SubEdge {
    /// Normalized switch pair (lower ID first) for set keys.
    #[must_use]
    pub fn key(&self) -> (SwitchId, SwitchId) {
        let (x, y) = (self.a.switch, self.b.switch);
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }
}

/// The cached subgraph for one (src, dst) host pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathGraph {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// The primary (shortest) route, switch-level.
    pub primary: Route,
    /// The backup route (may be `None` in graphs with no redundancy).
    pub backup: Option<Route>,
    /// All switches in the subgraph.
    pub switches: BTreeSet<SwitchId>,
    /// All edges among subgraph switches (with port numbers).
    pub edges: Vec<SubEdge>,
}

/// Builds the path graph for `src → dst` per Algorithm 1.
///
/// # Errors
///
/// Returns [`DumbNetError::NoRoute`] when the hosts are disconnected and
/// propagates host lookup failures.
pub fn build<R: Rng>(
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

    // (1) Primary path: randomized shortest path.
    let primary = spath::shortest_route(topo, s_src, s_dst, rng).ok_or(DumbNetError::NoRoute {
        src: src.get(),
        dst: dst.get(),
    })?;

    // (2) Backup path: re-run with primary links inflated so they are
    // reused only when unavoidable.
    let p = primary.switches();
    let on_primary = |(a, b): (SwitchId, SwitchId)| {
        p.windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
    };
    let penalty = topo.switch_count() as u64 + 2;
    let backup = spath::shortest_route_weighted(
        topo,
        s_src,
        s_dst,
        |e| if on_primary(e) { penalty } else { 1 },
        rng,
    )
    // A backup identical to the primary adds nothing; drop it.
    .filter(|b| b.switches() != p);

    // (3) Local detours, Algorithm 1. For each window (a, b) of up to s
    // consecutive hops along the primary, admit every switch x with
    // dist(a, x) + dist(x, b) ≤ s + ε. Overlapping windows share
    // endpoints, so each primary position's distance map is computed
    // at most once.
    let l = p.len() - 1; // Number of hops.
    let s_win = params.s.max(1);
    let mut in_graph = vec![false; topo.switch_count()];
    for &sw in p {
        in_graph[sw.get() as usize] = true;
    }
    let mut maps: Vec<Option<spath::DistanceMap>> = vec![None; p.len()];
    for i in (0..l).step_by((s_win / 2).max(1)) {
        let j = (i + s_win).min(l);
        for ix in [i, j] {
            maps[ix].get_or_insert_with(|| spath::distances(topo, p[ix]));
        }
        let (Some(da), Some(db)) = (&maps[i], &maps[j]) else {
            unreachable!("both window maps computed above");
        };
        let budget = (j - i) as u64 + params.epsilon;
        for ((x, &dax), &dxb) in in_graph.iter_mut().zip(da.as_slice()).zip(db.as_slice()) {
            if dax != u64::MAX && dxb != u64::MAX && dax + dxb <= budget {
                *x = true;
            }
        }
    }
    if let Some(b) = &backup {
        for &sw in b.switches() {
            in_graph[sw.get() as usize] = true;
        }
    }

    // (4) Materialize the induced subgraph with port detail. Switches go
    // in ascending ID order and their trunks in ascending port order;
    // each link is emitted at its lower (switch, port) end, which is
    // where that walk first meets it.
    let mut edges = Vec::new();
    for (ix, _) in in_graph.iter().enumerate().filter(|&(_, &inside)| inside) {
        let sw = SwitchId::new(ix as u64);
        for (port, nb, lid) in topo.neighbors(sw) {
            if !in_graph[nb.get() as usize] {
                continue;
            }
            let link = topo.link(lid)?;
            let (a, b) = if link.a <= link.b {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            if a == PortId::new(sw, port) {
                edges.push(SubEdge { a, b });
            }
        }
    }
    let switches = (0..in_graph.len())
        .filter(|&ix| in_graph[ix])
        .map(|ix| SwitchId::new(ix as u64))
        .collect();

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
        switches,
        edges,
    })
}

impl PathGraph {
    /// Number of switches cached (the Figure 12 metric).
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of subgraph edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Shortest route from the source's switch to the destination's
    /// switch *within the subgraph*, avoiding `down` edges.
    ///
    /// This is what lets a host fail over locally, without contacting the
    /// controller, when a primary link dies.
    #[must_use]
    pub fn shortest_within(&self, down: &HashSet<(SwitchId, SwitchId)>) -> Option<Route> {
        self.router().shortest(down)
    }

    /// Up to `k` shortest loopless routes within the subgraph, avoiding
    /// `down` edges (small-scale Yen over the cached adjacency).
    #[must_use]
    pub fn k_shortest_within(&self, k: usize, down: &HashSet<(SwitchId, SwitchId)>) -> Vec<Route> {
        if k == 0 {
            return Vec::new();
        }
        let PathGraphRouter {
            graph: g,
            mut search,
        } = self.router();
        search.set_down(&g, down);
        let Some(first) = search.run(&g, g.src, g.dst) else {
            return Vec::new();
        };
        // Routes are index vectors until the end: indices order like the
        // switch IDs they stand for, so the candidate heap pops in the
        // same (length, lexicographic) order either way.
        let mut results: Vec<Vec<u32>> = vec![first];
        let mut candidates: BinaryHeap<Reverse<(usize, Vec<u32>)>> = BinaryHeap::new();
        let mut seen: FastHashSet<Vec<u32>> = results.iter().cloned().collect();
        while results.len() < k {
            let last = results.last().expect("non-empty").clone();
            for spur_ix in 0..last.len().saturating_sub(1) {
                let root = &last[..=spur_ix];
                // Ban edges used by already-found routes sharing this root,
                // and nodes of the root prefix, then reroute. Down pairs
                // stay banned.
                search.reset_bans();
                for r in results.iter().chain(candidates.iter().map(|c| &c.0 .1)) {
                    if r.len() > spur_ix && r[..=spur_ix] == *root {
                        search.ban_pair(&g, r[spur_ix], r[spur_ix + 1]);
                    }
                }
                for &node in &root[..spur_ix] {
                    search.ban_node(node);
                }
                // The spur avoids every root node, so `total` is loop-free.
                if let Some(spur) = search.run(&g, root[spur_ix], g.dst) {
                    let mut total = root[..spur_ix].to_vec();
                    total.extend(spur);
                    if seen.insert(total.clone()) {
                        candidates.push(Reverse((total.len(), total)));
                    }
                }
            }
            match candidates.pop() {
                Some(Reverse((_, next))) => results.push(next),
                None => break,
            }
        }
        results.iter().map(|r| g.route(r)).collect()
    }

    /// Converts a switch-level route from this graph into the tag path a
    /// packet must carry, using the subgraph's own port map.
    ///
    /// # Errors
    ///
    /// Fails if the route endpoints don't match the cached endpoints or
    /// the route uses an edge absent from the subgraph.
    pub fn tag_path(&self, route: &Route) -> Result<Path> {
        if route.first() != self.src.attach.switch {
            return Err(DumbNetError::PathRejected(format!(
                "route starts at {}, source attaches to {}",
                route.first(),
                self.src.attach.switch
            )));
        }
        if route.last() != self.dst.attach.switch {
            return Err(DumbNetError::PathRejected(format!(
                "route ends at {}, destination attaches to {}",
                route.last(),
                self.dst.attach.switch
            )));
        }
        let mut path = Path::empty();
        for w in route.switches().windows(2) {
            let port = self
                .edges
                .iter()
                .find_map(|e| {
                    if e.a.switch == w[0] && e.b.switch == w[1] {
                        Some(e.a.port)
                    } else if e.b.switch == w[0] && e.a.switch == w[1] {
                        Some(e.b.port)
                    } else {
                        None
                    }
                })
                .ok_or_else(|| {
                    DumbNetError::PathRejected(format!("edge {} → {} not cached", w[0], w[1]))
                })?;
            path = path.push(port.into())?;
        }
        path.push(self.dst.attach.port.into())
    }

    /// Returns `true` if the subgraph contains an (up) edge between the
    /// two switches.
    #[must_use]
    pub fn contains_edge(&self, a: SwitchId, b: SwitchId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.edges.iter().any(|e| e.key() == key)
    }

    /// Removes an edge (both directions) from the cache — the host-side
    /// reaction to a link-failure notification. Returns `true` if the
    /// edge was present.
    pub fn remove_edge(&mut self, a: SwitchId, b: SwitchId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        let before = self.edges.len();
        self.edges.retain(|e| e.key() != key);
        self.edges.len() != before
    }

    /// Indexes this subgraph once for repeated find-path calls (Table
    /// 2's "Find Path" operation). [`PathGraph::shortest_within`] and
    /// [`PathGraph::k_shortest_within`] run on the same index and search.
    #[must_use]
    pub fn router(&self) -> PathGraphRouter {
        let graph = DenseGraph::new(self);
        let search = Search::new(&graph);
        PathGraphRouter { graph, search }
    }
}

/// A path graph on dense indices, built once per router.
///
/// Nodes are sorted by [`SwitchId`], so index order is ID order. The CSR
/// adjacency keeps `edges` order. Each entry carries the id of its
/// normalized switch pair: parallel links share one id, so banning a
/// pair bans all of them, as a ban keyed by switch pair does. Down
/// edges stay in the index and are banned by pair at search time.
#[derive(Debug, Clone)]
struct DenseGraph {
    nodes: Vec<SwitchId>,
    /// `adj[offsets[u]..offsets[u + 1]]` are node `u`'s entries.
    offsets: Vec<usize>,
    /// `(neighbor, pair id)`.
    adj: Vec<(u32, u32)>,
    pairs: usize,
    src: u32,
    dst: u32,
}

impl DenseGraph {
    fn new(g: &PathGraph) -> DenseGraph {
        let (src, dst) = (g.src.attach.switch, g.dst.attach.switch);
        let mut nodes: Vec<SwitchId> = g.switches.iter().copied().collect();
        // A graph from `build` lists every endpoint in `switches`; one
        // assembled by hand need not.
        let extra: Vec<SwitchId> = [src, dst]
            .into_iter()
            .chain(g.edges.iter().flat_map(|e| [e.a.switch, e.b.switch]))
            .filter(|s| nodes.binary_search(s).is_err())
            .collect();
        if !extra.is_empty() {
            nodes.extend(extra);
            nodes.sort_unstable();
            nodes.dedup();
        }
        let index = |s: SwitchId| nodes.binary_search(&s).expect("every endpoint indexed") as u32;
        let ends: Vec<(usize, usize)> = g
            .edges
            .iter()
            .map(|e| (index(e.a.switch) as usize, index(e.b.switch) as usize))
            .collect();
        let n = nodes.len();
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &ends {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![(0u32, 0u32); offsets[n]];
        let mut pairs = 0u32;
        for &(a, b) in &ends {
            // An earlier parallel link already left `(b, pair)` in a's list.
            let pair = match adj[offsets[a]..fill[a]]
                .iter()
                .find(|&&(v, _)| v as usize == b)
            {
                Some(&(_, pair)) => pair,
                None => {
                    pairs += 1;
                    pairs - 1
                }
            };
            adj[fill[a]] = (b as u32, pair);
            fill[a] += 1;
            adj[fill[b]] = (a as u32, pair);
            fill[b] += 1;
        }
        DenseGraph {
            src: index(src),
            dst: index(dst),
            nodes,
            offsets,
            adj,
            pairs: pairs as usize,
        }
    }

    fn neighbors(&self, u: u32) -> &[(u32, u32)] {
        &self.adj[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// The pair id of the links between `u` and `v`, if any.
    fn pair(&self, u: u32, v: u32) -> Option<u32> {
        self.neighbors(u)
            .iter()
            .find_map(|&(w, pair)| (w == v).then_some(pair))
    }

    fn route(&self, route: &[u32]) -> Route {
        Route::new(route.iter().map(|&i| self.nodes[i as usize]).collect())
            .expect("searches never repeat a switch")
    }
}

/// Scratch state for hop-count searches over one [`DenseGraph`]: the
/// down pairs, and on top of them the pair and node bans of Yen's spur
/// searches.
#[derive(Debug, Clone)]
struct Search {
    /// Predecessor on the search tree; `u32::MAX` = not reached.
    prev: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    down_pairs: Vec<bool>,
    banned_pairs: Vec<bool>,
    banned_nodes: Vec<bool>,
}

impl Search {
    fn new(g: &DenseGraph) -> Search {
        let n = g.nodes.len();
        Search {
            prev: vec![u32::MAX; n],
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            down_pairs: vec![false; g.pairs],
            banned_pairs: vec![false; g.pairs],
            banned_nodes: vec![false; n],
        }
    }

    /// Marks `down` switch pairs as unusable and clears every other ban.
    fn set_down(&mut self, g: &DenseGraph, down: &HashSet<(SwitchId, SwitchId)>) {
        self.down_pairs.fill(false);
        for &(a, b) in down {
            let (Ok(u), Ok(v)) = (g.nodes.binary_search(&a), g.nodes.binary_search(&b)) else {
                continue;
            };
            if let Some(pair) = g.pair(u as u32, v as u32) {
                self.down_pairs[pair as usize] = true;
            }
        }
        self.reset_bans();
    }

    /// Drops Yen's bans, keeping the down pairs banned.
    fn reset_bans(&mut self) {
        self.banned_pairs.copy_from_slice(&self.down_pairs);
        self.banned_nodes.fill(false);
    }

    /// Bans every link between `u` and `v`.
    fn ban_pair(&mut self, g: &DenseGraph, u: u32, v: u32) {
        if let Some(pair) = g.pair(u, v) {
            self.banned_pairs[pair as usize] = true;
        }
    }

    /// Bans every link touching `u`.
    fn ban_node(&mut self, u: u32) {
        self.banned_nodes[u as usize] = true;
    }

    /// Shortest hop-count route from `src` to `dst` over unbanned links.
    ///
    /// A level-synchronous BFS: every node at distance `d` is queued
    /// before any is expanded, and each level is expanded in ascending
    /// index order. Index order is switch-ID order, so a node's
    /// predecessor is the one a Dijkstra popping `(dist, SwitchId)` and
    /// relaxing with strict `<` picks (DESIGN.md §3.4, rule 4).
    fn run(&mut self, g: &DenseGraph, src: u32, dst: u32) -> Option<Vec<u32>> {
        if src == dst {
            return Some(vec![src]);
        }
        let Search {
            prev,
            frontier,
            next,
            banned_pairs,
            banned_nodes,
            ..
        } = self;
        prev.fill(u32::MAX);
        prev[src as usize] = src;
        frontier.clear();
        frontier.push(src);
        'levels: while !frontier.is_empty() {
            next.clear();
            for &u in frontier.iter() {
                for &(v, pair) in g.neighbors(u) {
                    if prev[v as usize] != u32::MAX
                        || banned_pairs[pair as usize]
                        || banned_nodes[v as usize]
                    {
                        continue;
                    }
                    prev[v as usize] = u;
                    if v == dst {
                        break 'levels;
                    }
                    next.push(v);
                }
            }
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        if prev[dst as usize] == u32::MAX {
            return None;
        }
        let mut route = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur as usize];
            route.push(cur);
        }
        route.reverse();
        Some(route)
    }
}

/// A reusable find-path engine over one cached path graph (see
/// [`PathGraph::router`]): the dense index is built once, and each call
/// reuses the search's scratch space.
#[derive(Debug, Clone)]
pub struct PathGraphRouter {
    graph: DenseGraph,
    search: Search,
}

impl PathGraphRouter {
    /// Finds the shortest route from the cached source switch to the
    /// cached destination switch, avoiding `down` edges. Gives the same
    /// route as [`PathGraph::shortest_within`].
    #[must_use]
    pub fn shortest(&mut self, down: &HashSet<(SwitchId, SwitchId)>) -> Option<Route> {
        let g = &self.graph;
        self.search.set_down(g, down);
        let route = self.search.run(g, g.src, g.dst)?;
        Some(g.route(&route))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(s: usize, epsilon: u64) -> PathGraphParams {
        PathGraphParams { k: 4, s, epsilon }
    }

    #[test]
    fn testbed_pathgraph_has_detours_and_backup() {
        let g = generators::testbed();
        let t = &g.topology;
        let mut rng = StdRng::seed_from_u64(11);
        // Hosts 0 and 26 are on different leaves.
        let pg = build(t, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        assert_eq!(pg.primary.link_hops(), 2);
        let backup = pg.backup.as_ref().expect("testbed has redundancy");
        // Backup must not share the middle (spine) switch with primary.
        assert_ne!(backup.switches()[1], pg.primary.switches()[1]);
        // With ε=2 both spines and several leaves are cached.
        assert!(pg.switch_count() >= 4, "only {} cached", pg.switch_count());
    }

    #[test]
    fn primary_always_in_subgraph() {
        let g = generators::fat_tree(4, 2, None);
        let mut rng = StdRng::seed_from_u64(5);
        let pg = build(&g.topology, HostId(0), HostId(15), &params(2, 1), &mut rng).unwrap();
        for s in pg.primary.switches() {
            assert!(pg.switches.contains(s));
        }
        for w in pg.primary.switches().windows(2) {
            assert!(pg.contains_edge(w[0], w[1]));
        }
    }

    #[test]
    fn subgraph_grows_with_epsilon() {
        let g = generators::cube(&[5, 5, 5], 1, 16);
        let mut last = 0;
        for eps in [0u64, 1, 2, 3] {
            // Fresh identically-seeded RNG per build so the primary path
            // is the same and only ε varies.
            let mut rng = StdRng::seed_from_u64(9);
            let pg = build(
                &g.topology,
                HostId(0),
                HostId(124),
                &params(2, eps),
                &mut rng,
            )
            .unwrap();
            assert!(
                pg.switch_count() >= last,
                "ε={eps}: {} < {last}",
                pg.switch_count()
            );
            last = pg.switch_count();
        }
    }

    #[test]
    fn failover_within_subgraph() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(3);
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        // Kill the primary's first link; a route must still exist inside
        // the cached subgraph.
        let p = pg.primary.switches();
        let mut down = HashSet::new();
        let key = if p[0] <= p[1] {
            (p[0], p[1])
        } else {
            (p[1], p[0])
        };
        down.insert(key);
        let alt = pg.shortest_within(&down).expect("detour exists");
        assert!(alt
            .switches()
            .windows(2)
            .all(|w| (w[0], w[1]) != (p[0], p[1]) && (w[1], w[0]) != (p[0], p[1])));
    }

    #[test]
    fn tag_path_round_trips_through_real_topology() {
        let g = generators::testbed();
        let t = &g.topology;
        let mut rng = StdRng::seed_from_u64(17);
        let pg = build(t, HostId(2), HostId(20), &params(2, 2), &mut rng).unwrap();
        let tags = pg.tag_path(&pg.primary).unwrap();
        // Independently derive via the full topology; they must agree.
        let expect = pg.primary.to_tag_path(t, HostId(2), HostId(20)).unwrap();
        assert_eq!(tags, expect);
    }

    #[test]
    fn k_shortest_within_uses_detours() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(23);
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let routes = pg.k_shortest_within(4, &HashSet::new());
        assert!(routes.len() >= 2, "got {}", routes.len());
        assert_eq!(routes[0].link_hops(), 2);
        assert_eq!(routes[1].link_hops(), 2);
        let set: HashSet<_> = routes.iter().map(|r| r.switches().to_vec()).collect();
        assert_eq!(set.len(), routes.len());
    }

    #[test]
    fn same_leaf_pair_single_switch_graph() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(29);
        // Hosts 0 and 1 share leaf 0.
        let pg = build(&g.topology, HostId(0), HostId(1), &params(2, 2), &mut rng).unwrap();
        assert_eq!(pg.primary.link_hops(), 0);
        let tags = pg.tag_path(&pg.primary).unwrap();
        assert_eq!(tags.len(), 1);
    }

    #[test]
    fn no_route_between_disconnected_hosts() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let ha = t.add_host_auto(a).unwrap();
        let hb = t.add_host_auto(b).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            build(&t, ha, hb, &PathGraphParams::default(), &mut rng),
            Err(DumbNetError::NoRoute { .. })
        ));
    }

    /// Two parallel links between one switch pair, a loopback cable,
    /// trunks wired out of port order, and a host on every switch.
    fn parallel_links() -> Topology {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..6).map(|_| t.add_switch(10)).collect();
        for (a, pa, b, pb) in [
            (0, 5, 1, 2),
            (0, 1, 1, 6),
            (1, 4, 2, 1),
            (2, 3, 3, 7),
            (3, 2, 0, 3),
            (1, 1, 4, 4),
            (4, 2, 3, 5),
            (2, 6, 2, 8),
            (5, 3, 4, 1),
            (5, 1, 2, 2),
        ] {
            t.connect(s[a], pa, s[b], pb).unwrap();
        }
        for &sw in &s {
            t.add_host_auto(sw).unwrap();
        }
        t
    }

    fn fixtures() -> Vec<(&'static str, Topology)> {
        let mut rng = StdRng::seed_from_u64(0xF17);
        vec![
            ("fat_tree_4", generators::fat_tree(4, 2, None).topology),
            ("fat_tree_8", generators::fat_tree(8, 1, None).topology),
            ("testbed", generators::testbed().topology),
            ("cube", generators::cube(&[3, 3, 3], 1, 8).topology),
            (
                "random_regular",
                generators::random_regular(24, 4, 1, 8, &mut rng).topology,
            ),
            ("parallel_links", parallel_links()),
        ]
    }

    /// `topo` with each link taken down with probability `p`.
    fn with_links_down(topo: &Topology, p: f64, rng: &mut StdRng) -> Topology {
        let mut t = topo.clone();
        let ids: Vec<_> = t.links().map(|l| l.id).collect();
        for id in ids {
            if rng.gen_bool(p) {
                t.set_link_state(id, false).unwrap();
            }
        }
        t
    }

    /// Up to `max` of the graph's edges, as normalized switch pairs.
    fn random_down(pg: &PathGraph, max: usize, rng: &mut StdRng) -> HashSet<(SwitchId, SwitchId)> {
        if pg.edges.is_empty() {
            return HashSet::new();
        }
        (0..rng.gen_range(0..=max))
            .map(|_| pg.edges[rng.gen_range(0..pg.edges.len())].key())
            .collect()
    }

    #[test]
    fn neighbors_and_distances_match_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        for (name, topo) in fixtures() {
            let t = with_links_down(&topo, 0.1, &mut rng);
            for info in t.switches() {
                let got: Vec<_> = t.neighbors(info.id).collect();
                assert_eq!(got, reference::neighbors(&t, info.id), "{name} {}", info.id);
                let bfs = spath::distances(&t, info.id);
                let dijkstra = reference::distances_weighted(&t, info.id, |_| 1);
                assert_eq!(bfs.as_slice(), &dijkstra[..], "{name} {}", info.id);
            }
            for _ in 0..50 {
                let n = t.switch_count() as u64;
                let (a, b) = (SwitchId(rng.gen_range(0..n)), SwitchId(rng.gen_range(0..n)));
                let mut r1 = StdRng::seed_from_u64(rng.gen());
                let mut r2 = r1.clone();
                let got = spath::shortest_route(&t, a, b, &mut r1);
                let want = reference::shortest_route_weighted(&t, a, b, |_| 1, &mut r2);
                assert_eq!(got, want, "{name} {a}->{b}");
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{name}: RNG draws differ");
            }
        }
    }

    #[test]
    fn dense_path_service_matches_reference() {
        let mut rng = StdRng::seed_from_u64(43);
        for (name, topo) in fixtures() {
            let hosts = topo.host_count() as u64;
            for round in 0..40 {
                // Every other round runs on a fabric with links down.
                let t = if round % 2 == 0 {
                    topo.clone()
                } else {
                    with_links_down(&topo, 0.15, &mut rng)
                };
                let (a, b) = (
                    HostId(rng.gen_range(0..hosts)),
                    HostId(rng.gen_range(0..hosts)),
                );
                let prm = params(rng.gen_range(1..=3), rng.gen_range(0..=2));
                let mut r1 = StdRng::seed_from_u64(rng.gen());
                let mut r2 = r1.clone();
                let got = build(&t, a, b, &prm, &mut r1);
                let want = reference::build(&t, a, b, &prm, &mut r2);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name} {a}->{b}");
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{name}: RNG draws differ");
                let Ok(pg) = got else { continue };
                for _ in 0..3 {
                    let down = random_down(&pg, 3, &mut rng);
                    assert_eq!(
                        pg.shortest_within(&down),
                        reference::shortest_within(&pg, &down),
                        "{name} {a}->{b} down {down:?}"
                    );
                    for k in [0, 1, 4, 9] {
                        assert_eq!(
                            pg.k_shortest_within(k, &down),
                            reference::k_shortest_within(&pg, k, &down),
                            "{name} {a}->{b} k={k} down {down:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_search_handles_hand_made_graphs() {
        // A graph whose `switches` omits edge endpoints and whose edge
        // list repeats a switch pair: the dense index must still cover
        // every endpoint and ban parallel links together.
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(47);
        let mut pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let e = pg.edges[0];
        pg.edges.push(e);
        pg.switches.clear();
        for down in [HashSet::new(), [e.key()].into_iter().collect()] {
            assert_eq!(
                pg.shortest_within(&down),
                reference::shortest_within(&pg, &down)
            );
            assert_eq!(
                pg.k_shortest_within(6, &down),
                reference::k_shortest_within(&pg, 6, &down)
            );
        }
    }

    #[test]
    fn router_agrees_with_shortest_within() {
        // One router per graph, reused across down sets: every answer
        // must equal the one-shot search's, whatever the previous call
        // banned.
        let mut rng = StdRng::seed_from_u64(53);
        for (name, topo) in fixtures() {
            let hosts = topo.host_count() as u64;
            for round in 0..20 {
                let t = if round % 2 == 0 {
                    topo.clone()
                } else {
                    with_links_down(&topo, 0.15, &mut rng)
                };
                let (a, b) = (
                    HostId(rng.gen_range(0..hosts)),
                    HostId(rng.gen_range(0..hosts)),
                );
                let prm = params(rng.gen_range(1..=3), rng.gen_range(0..=2));
                let Ok(pg) = build(&t, a, b, &prm, &mut rng) else {
                    continue;
                };
                let mut router = pg.router();
                let mut downs = vec![HashSet::new()];
                downs.extend((0..4).map(|_| random_down(&pg, 3, &mut rng)));
                downs.push(HashSet::new());
                for down in &downs {
                    let want = pg.shortest_within(down);
                    assert_eq!(router.shortest(down), want, "{name} {a}->{b} down {down:?}");
                    assert_eq!(
                        want,
                        reference::shortest_within(&pg, down),
                        "{name} {a}->{b} down {down:?}"
                    );
                    if let Some(r) = &want {
                        assert!(r.is_valid_in(&t), "{name} {a}->{b}: {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn removed_edge_disappears() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(31);
        let mut pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let p = pg.primary.switches().to_vec();
        assert!(pg.contains_edge(p[0], p[1]));
        assert!(pg.remove_edge(p[0], p[1]));
        assert!(!pg.contains_edge(p[0], p[1]));
        assert!(!pg.remove_edge(p[0], p[1]));
    }
}
