//! The controller simulation node.
//!
//! Drives [`DiscoveryState`] over the real emulated fabric at a
//! configurable probe rate (the controller's packet processing rate is
//! the discovery bottleneck the paper identifies in §7.2.1), serves path
//! graphs, floods stage-2 topology patches, and replicates topology
//! changes to standby controllers with heartbeat-based takeover.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dumbnet_packet::control::{LinkEvent, PatchBatch, PatchEntry, TopoDelta};
use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_telemetry::{Counter, Gauge, Histogram, NodeKind, Telemetry, TraceCategory};
use dumbnet_topology::{
    pathgraph, PathGraph, PathGraphParams, RouteCache, RouteCacheStats, Topology,
};
use dumbnet_types::{HostId, MacAddr, Path, PortId, PortNo, SimDuration, SimTime, SwitchId};

use crate::discovery::{DiscoveryConfig, DiscoveryState};
use crate::replication::{LogEntry, ReplicaRole, ReplicatedLog};

/// The controller's NIC port.
const NIC: PortNo = match PortNo::new(1) {
    Some(p) => p,
    None => panic!("port 1 is valid"),
};

// Timer tokens.
const T_PUMP: u64 = 1;
const T_HEARTBEAT: u64 = 2;
const T_TAKEOVER: u64 = 3;
const T_ELECTION: u64 = 4;
const T_PATCH_FLUSH: u64 = 5;
const T_PROBATION: u64 = 6;

/// Delay before discovery or the bootstrap hello begins, so every node
/// has started.
const START_DELAY: SimDuration = SimDuration::from_millis(1);

/// Service time per path-graph query (the Figure 10 tail term).
const QUERY_SERVICE_TIME: SimDuration = SimDuration::from_micros(50);

/// Flood budget for election traffic sent before any topology is known
/// (switches relay it hop-limited, like link notifications). Covers the
/// diameter of every generated fabric with margin.
const ELECTION_TTL: u8 = 8;

/// Domain separator for the route cache's ECMP tie-break stream (mixed
/// with the controller's host ID so replicas draw distinct spreads).
const ROUTE_CACHE_SALT: u64 = 0x0C0A_11E5_0D1D_C0DE;

/// Domain separator for cached path-graph construction randomness.
const GRAPH_CACHE_SALT: u64 = 0x6A21_B01D_FACE_0FF5;

/// Derives the seed a path graph for `(src, dst)` is built with at a
/// given topology version. A pure function of the key — not of query
/// arrival order — so cache hits and fresh builds are indistinguishable.
fn graph_build_seed(salt: u64, version: u64, src: MacAddr, dst: MacAddr) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    fn mac64(m: MacAddr) -> u64 {
        let o = m.octets();
        u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
    }
    mix(salt ^ mix(version) ^ mix(mac64(src) << 1 | 1) ^ mix(mac64(dst) << 1))
}

/// Normalizes an undirected switch edge to `a.0 <= b.0` order — the
/// canonical key the suspicion scoreboard and quarantine set share with
/// host-side gray state.
fn norm_edge(a: SwitchId, b: SwitchId) -> (SwitchId, SwitchId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Gray-failure scoreboard and quarantine knobs (DESIGN.md §10).
/// `ControllerConfig::gray = None` disables the subsystem entirely:
/// `LinkSuspect` reports are dropped and no probation timer runs.
#[derive(Debug, Clone)]
pub struct GrayFaultConfig {
    /// Distinct reporting hosts required to corroborate an edge before
    /// it is quarantined.
    pub quorum: usize,
    /// A single report at or above this loss (permille) quarantines
    /// immediately, without waiting for corroboration. Values above
    /// 1000 disable the shortcut (the default): end-to-end probe
    /// evidence attributes loss to whole paths, so a lone reporter's
    /// total loss still smears across every edge its bad paths use —
    /// only cross-host corroboration separates the truly gray edge.
    pub solo_loss_permille: u16,
    /// Reports at or below this loss (permille) count as clean
    /// (exoneration evidence) rather than dirty.
    pub clear_loss_permille: u16,
    /// Consecutive clean reports required before a quarantined edge is
    /// released — the hysteresis that prevents patch-storm oscillation.
    pub clean_streak: u32,
    /// Quarantine entries per edge before it is pinned sticky: no more
    /// automatic release until a hard link event resets the edge.
    pub max_flaps: u32,
    /// Probation evaluation cadence (release decisions happen on this
    /// timer, never inline with report arrival).
    pub probation_interval: SimDuration,
    /// How long a dirty report stays on the scoreboard without renewal.
    /// A reporter whose witness paths all cross some *other* dead edge
    /// can neither renew its accusation nor vouch clean — its stale
    /// evidence must decay or the edge stays quarantined forever.
    pub evidence_ttl: SimDuration,
    /// While any edge is quarantined, the leader re-asserts the full
    /// quarantine set as a fresh patch epoch at this cadence. Patch
    /// floods are at-most-once and hosts skip missed epochs, so
    /// quarantine is deliberately *soft state*: it must be refreshed or
    /// the hosts let it decay ([`crate::GrayFaultConfig::evidence_ttl`]
    /// is the scoreboard analog, `GrayDetectConfig::ctrl_quarantine_ttl`
    /// the host side).
    pub refresh_interval: SimDuration,
}

impl Default for GrayFaultConfig {
    fn default() -> GrayFaultConfig {
        GrayFaultConfig {
            quorum: 2,
            solo_loss_permille: 1001,
            clear_loss_permille: 50,
            clean_streak: 3,
            max_flaps: 3,
            probation_interval: SimDuration::from_millis(20),
            evidence_ttl: SimDuration::from_millis(50),
            refresh_interval: SimDuration::from_millis(60),
        }
    }
}

/// Suspicion scoreboard entry for one normalized switch edge.
#[derive(Debug, Default, Clone)]
struct EdgeSuspicion {
    /// Latest dirty evidence per reporter: `(loss permille, when)`.
    reporters: BTreeMap<MacAddr, (u16, SimTime)>,
    /// Highest report sequence seen per reporter; stale or reordered
    /// reports below the fence are ignored.
    last_seq: BTreeMap<MacAddr, u64>,
    /// Consecutive clean reports since the last dirty one, counted only
    /// while no dirty evidence is outstanding.
    clean_streak: u32,
    /// Times this edge entered quarantine (flap audit).
    flaps: u32,
    /// Exceeded the flap budget: held in quarantine until a hard link
    /// event resets the edge.
    sticky: bool,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Discovery parameters.
    pub discovery: DiscoveryConfig,
    /// Whether to run discovery at start (Figure 8) or use `preload`.
    pub run_discovery: bool,
    /// Pre-known topology (experiments that start converged).
    pub preload: Option<Topology>,
    /// Pacing between probe transmissions — models the controller CPU,
    /// the bottleneck of §7.2.1 ("the bottleneck of topology discovery
    /// is the packet processing rate of the controller").
    pub probe_interval: SimDuration,
    /// Path-graph construction parameters.
    pub pathgraph: PathGraphParams,
    /// All controller group members (self included). Empty ⇒ solo.
    pub peers: Vec<MacAddr>,
    /// Whether this replica starts as the leader.
    pub is_leader: bool,
    /// Leader heartbeat interval.
    pub heartbeat: SimDuration,
    /// Follower patience before taking over.
    pub takeover_timeout: SimDuration,
    /// Stage-2 processing delay before the topology patch floods (§4.2).
    /// Charged once per patch *flush* — every event coalesced into the
    /// same batch shares one delay, never one per recipient.
    pub patch_delay: SimDuration,
    /// In-flight probe window: how many discovery probes one pump tick
    /// emits as a burst. The pacing interval then covers the whole burst
    /// (batch-amortized controller CPU), so the effective per-probe cost
    /// is `probe_interval / probe_window`. `1` reproduces the paper's
    /// per-probe lockstep.
    pub probe_window: usize,
    /// Max patch entries per flood frame; batches with more entries are
    /// split into segment frames receivers reassemble.
    pub patch_batch_max: usize,
    /// Gray-failure detection: suspicion scoreboard, quarantine floods
    /// and probation release. `None` (the default) disables it.
    pub gray: Option<GrayFaultConfig>,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            discovery: DiscoveryConfig::default(),
            run_discovery: false,
            preload: None,
            probe_interval: SimDuration::from_micros(33),
            pathgraph: PathGraphParams::default(),
            peers: Vec::new(),
            is_leader: true,
            heartbeat: SimDuration::from_millis(50),
            takeover_timeout: SimDuration::from_millis(250),
            patch_delay: SimDuration::from_millis(1),
            probe_window: 1,
            patch_batch_max: 32,
            gray: None,
        }
    }
}

/// Observable controller behaviour for experiments.
///
/// A view returned by [`Controller::stats`]: the series fields live in
/// the node, the scalar counters are served by telemetry handles
/// registered under `(NodeKind::Controller, host id, name)`.
#[derive(Debug, Default, Clone)]
pub struct ControllerStats {
    /// Wall-clock (virtual) discovery duration, once finished.
    pub discovery_time: Option<SimDuration>,
    /// Probes transmitted during discovery.
    pub probes_sent: u64,
    /// Path requests served.
    pub path_requests: u64,
    /// Topology patch *frames* transmitted (per recipient, per segment —
    /// the same per-frame semantics as the hello/heartbeat counters).
    pub patches_sent: u64,
    /// Topology patch flood rounds (one per coalesced batch flush — the
    /// meaning `patches_sent` had before the per-frame unification).
    pub patch_floods: u64,
    /// Link events learned (after dedup).
    pub link_events: u64,
    /// Replication entries re-sent for lack of an ack.
    pub repl_resends: u64,
    /// Log re-sync requests sent (follower side).
    pub repl_sync_requests: u64,
    /// Times this node came back from a crash.
    pub restarts: u64,
    /// Time each link event was learned (for Fig 11(a) stage-2 timing).
    pub event_learned_at: Vec<(LinkEvent, SimTime)>,
    /// Whether this replica currently leads.
    pub is_leader: bool,
    /// Every term this replica has ever led (split-brain audit: no term
    /// may appear in two different controllers' lists).
    pub terms_led: Vec<u64>,
    /// Leadership campaigns started.
    pub elections_started: u64,
    /// Times this replica stepped down after observing a higher term.
    pub step_downs: u64,
    /// Control messages dropped as malformed or fenced (stale term,
    /// unknown member, inconsistent payload) instead of being processed.
    pub dropped_malformed: u64,
    /// `LinkSuspect` reports accepted into the scoreboard.
    pub link_suspects_rx: u64,
    /// Edges placed under quarantine (entries, not currently-held).
    pub quarantines: u64,
    /// Edges released from quarantine by probation.
    pub unquarantines: u64,
}

/// Live telemetry handles backing the scalar half of
/// [`ControllerStats`], plus leadership gauges.
#[derive(Debug, Clone)]
struct ControllerCounters {
    probes_sent: Counter,
    path_requests: Counter,
    patches_sent: Counter,
    patch_floods: Counter,
    link_events: Counter,
    repl_resends: Counter,
    repl_sync_requests: Counter,
    restarts: Counter,
    elections_started: Counter,
    step_downs: Counter,
    dropped_malformed: Counter,
    link_suspects_rx: Counter,
    quarantines: Counter,
    unquarantines: Counter,
    /// 1 while this replica leads, 0 otherwise (synced in
    /// `publish_telemetry`).
    is_leader: Gauge,
    /// Current leadership term (synced in `publish_telemetry`).
    term: Gauge,
    /// Route-cache effectiveness, mirrored from [`RouteCacheStats`] in
    /// `publish_telemetry`.
    route_cache_hits: Counter,
    route_cache_misses: Counter,
    /// Probes emitted per pump tick (the in-flight window actually
    /// achieved; capped by `probe_window`).
    probe_burst_size: Histogram,
    /// Patch entries coalesced per flood round.
    patch_batch_entries: Histogram,
}

impl Default for ControllerCounters {
    fn default() -> ControllerCounters {
        ControllerCounters {
            probes_sent: Counter::new(),
            path_requests: Counter::new(),
            patches_sent: Counter::new(),
            patch_floods: Counter::new(),
            link_events: Counter::new(),
            repl_resends: Counter::new(),
            repl_sync_requests: Counter::new(),
            restarts: Counter::new(),
            elections_started: Counter::new(),
            step_downs: Counter::new(),
            dropped_malformed: Counter::new(),
            link_suspects_rx: Counter::new(),
            quarantines: Counter::new(),
            unquarantines: Counter::new(),
            is_leader: Gauge::new(),
            term: Gauge::new(),
            route_cache_hits: Counter::new(),
            route_cache_misses: Counter::new(),
            probe_burst_size: Histogram::doubling(1, 8),
            patch_batch_entries: Histogram::doubling(1, 8),
        }
    }
}

impl ControllerCounters {
    fn register(&self, telemetry: &Telemetry, id: HostId) {
        let node = id.get();
        for (name, c) in [
            ("probes_sent", &self.probes_sent),
            ("path_requests", &self.path_requests),
            ("patches_sent", &self.patches_sent),
            ("patch_floods", &self.patch_floods),
            ("link_events", &self.link_events),
            ("repl_resends", &self.repl_resends),
            ("repl_sync_requests", &self.repl_sync_requests),
            ("restarts", &self.restarts),
            ("elections_started", &self.elections_started),
            ("step_downs", &self.step_downs),
            ("dropped_malformed", &self.dropped_malformed),
            ("link_suspects_rx", &self.link_suspects_rx),
            ("quarantines", &self.quarantines),
            ("unquarantines", &self.unquarantines),
            ("route_cache_hits", &self.route_cache_hits),
            ("route_cache_misses", &self.route_cache_misses),
        ] {
            telemetry.register_counter(NodeKind::Controller, node, name, c);
        }
        telemetry.register_gauge(NodeKind::Controller, node, "is_leader", &self.is_leader);
        telemetry.register_gauge(NodeKind::Controller, node, "term", &self.term);
        telemetry.register_histogram(
            NodeKind::Controller,
            node,
            "probe_burst_size",
            &self.probe_burst_size,
        );
        telemetry.register_histogram(
            NodeKind::Controller,
            node,
            "patch_batch_entries",
            &self.patch_batch_entries,
        );
    }
}

/// An in-flight leadership campaign.
#[derive(Debug, Clone)]
struct Election {
    /// The proposed term.
    term: u64,
    /// Members whose vote we hold (self included).
    votes: HashSet<MacAddr>,
}

/// One memoized path-graph build: the topology version it was built at
/// and the result (`None` caches "no graph constructible").
type CachedGraph = (u64, Option<Box<PathGraph>>);

/// The controller node.
pub struct Controller {
    /// This controller's host identity on the fabric.
    pub id: HostId,
    mac: MacAddr,
    config: ControllerConfig,
    discovery: Option<DiscoveryState>,
    /// Authoritative topology (post-discovery or preloaded).
    pub topology: Option<Topology>,
    topo_version: u64,
    log: ReplicatedLog,
    /// Query-service queue horizon.
    busy_until: SimTime,
    seen_events: HashSet<(SwitchId, PortNo, bool, u64)>,
    last_leader_seen: SimTime,
    election: Option<Election>,
    /// Campaigns already answered, keyed by `(candidate, term)` —
    /// flooded queries arrive many times and must draw one reply.
    answered_queries: HashSet<(MacAddr, u64)>,
    hello_sent: bool,
    /// Patch entries learned since the last flood flush, awaiting the
    /// coalescing timer. Flushed as one [`PatchBatch`] per
    /// `patch_delay` window.
    pending_patch: Vec<PatchEntry>,
    /// Whether the patch-flush timer is armed.
    patch_flush_armed: bool,
    /// Memoized shortest routes for hellos, heartbeats, patch floods and
    /// reply paths. Invalidation: see [`Controller::invalidate_caches`].
    route_cache: RouteCache,
    /// Memoized path graphs for the query service, validated per entry
    /// against the topology version they were built at.
    graph_cache: HashMap<(MacAddr, MacAddr), CachedGraph>,
    /// Gray-failure suspicion scoreboard, keyed by normalized edge.
    gray_board: BTreeMap<(SwitchId, SwitchId), EdgeSuspicion>,
    /// Edges currently under quarantine: avoided by path builds, but
    /// distinct from hard-down link state (the topology keeps them up).
    /// Followers track this too via replicated deltas, so a promoted
    /// leader inherits the quarantine view.
    quarantined: BTreeSet<(SwitchId, SwitchId)>,
    /// Leader lease bookkeeping: when each peer replica was last heard
    /// (acks, sync requests, heartbeat acks). Probation may only mutate
    /// fabric state while a quorum is in recent contact — a partitioned
    /// stale leader must not decay evidence into unquarantine appends
    /// that diverge from the authoritative log.
    peer_heard: BTreeMap<MacAddr, SimTime>,
    /// When the quarantine set was last asserted as a patch epoch.
    last_gray_refresh: SimTime,
    /// Measurement series (scalar counters live in `counters`).
    stats: ControllerStats,
    /// Telemetry handles for the scalar counters.
    counters: ControllerCounters,
}

impl Controller {
    /// Max entries replayed per `ReplSyncRequest` answer.
    const RESYNC_BATCH: usize = 64;
    /// Max unacked entries retransmitted per peer per heartbeat.
    const RESEND_PER_BEAT: usize = 8;

    /// Creates a controller with host identity `id`.
    #[must_use]
    pub fn new(id: HostId, config: ControllerConfig) -> Controller {
        let mac = MacAddr::for_host(id.get());
        let members = if config.peers.is_empty() {
            vec![mac]
        } else {
            config.peers.clone()
        };
        let role = if config.is_leader {
            ReplicaRole::Leader
        } else {
            ReplicaRole::Follower
        };
        let stats = ControllerStats {
            is_leader: config.is_leader,
            // The configured leader leads term 1 from birth.
            terms_led: if config.is_leader {
                vec![1]
            } else {
                Vec::new()
            },
            ..ControllerStats::default()
        };
        Controller {
            id,
            mac,
            discovery: None,
            topology: None,
            topo_version: 0,
            log: ReplicatedLog::new(mac, members, role),
            busy_until: SimTime::ZERO,
            seen_events: HashSet::new(),
            last_leader_seen: SimTime::ZERO,
            election: None,
            answered_queries: HashSet::new(),
            hello_sent: false,
            pending_patch: Vec::new(),
            patch_flush_armed: false,
            route_cache: RouteCache::new(ROUTE_CACHE_SALT ^ id.get()),
            graph_cache: HashMap::new(),
            gray_board: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            peer_heard: BTreeMap::new(),
            last_gray_refresh: SimTime::ZERO,
            stats,
            counters: ControllerCounters::default(),
            config,
        }
    }

    /// Experiment output: the stored series plus the current counter
    /// values.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        let mut stats = self.stats.clone();
        stats.probes_sent = self.counters.probes_sent.get();
        stats.path_requests = self.counters.path_requests.get();
        stats.patches_sent = self.counters.patches_sent.get();
        stats.patch_floods = self.counters.patch_floods.get();
        stats.link_events = self.counters.link_events.get();
        stats.repl_resends = self.counters.repl_resends.get();
        stats.repl_sync_requests = self.counters.repl_sync_requests.get();
        stats.restarts = self.counters.restarts.get();
        stats.elections_started = self.counters.elections_started.get();
        stats.step_downs = self.counters.step_downs.get();
        stats.dropped_malformed = self.counters.dropped_malformed.get();
        stats.link_suspects_rx = self.counters.link_suspects_rx.get();
        stats.quarantines = self.counters.quarantines.get();
        stats.unquarantines = self.counters.unquarantines.get();
        stats
    }

    /// Edges currently under quarantine (normalized order), for
    /// invariant audits and benches.
    #[must_use]
    pub fn quarantined_edges(&self) -> Vec<(SwitchId, SwitchId)> {
        self.quarantined.iter().copied().collect()
    }

    /// Per-edge quarantine flap counts from the scoreboard (the
    /// bounded-flap invariant reads these).
    #[must_use]
    pub fn gray_flaps(&self) -> Vec<((SwitchId, SwitchId), u32)> {
        self.gray_board.iter().map(|(e, b)| (*e, b.flaps)).collect()
    }

    /// The controller's MAC.
    #[must_use]
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Current topology version.
    #[must_use]
    pub fn topo_version(&self) -> u64 {
        self.topo_version
    }

    /// Whether discovery (if requested) has completed.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.topology.is_some()
    }

    /// Read access to the replicated log (invariant audits).
    #[must_use]
    pub fn replication(&self) -> &ReplicatedLog {
        &self.log
    }

    /// This member's rank among the group, ordered by MAC. Takeover
    /// timers are staggered by rank so the lowest-MAC *live* follower
    /// campaigns (and therefore promotes) first, deterministically.
    fn member_rank(&self) -> u64 {
        let mut macs: Vec<MacAddr> = self.log.members().to_vec();
        macs.sort_unstable();
        macs.iter().position(|&m| m == self.mac).unwrap_or(0) as u64
    }

    /// Arms the takeover timer with the rank stagger.
    fn arm_takeover(&mut self, ctx: &mut Ctx<'_>) {
        let stagger = self.config.heartbeat.saturating_mul(self.member_rank());
        ctx.set_timer(self.config.takeover_timeout + stagger, T_TAKEOVER);
    }

    /// Records a term observed on the wire; a leader seeing a higher
    /// term steps down and rejoins as a follower. Adopting a higher term
    /// also fences any in-flight campaign at or below it — a delayed
    /// vote for the dead campaign must never promote us into a term the
    /// group has already moved past — and prunes the answered-queries
    /// dedup set of terms that can no longer receive a vote (unbounded
    /// growth over long chaos soaks otherwise).
    fn note_term(&mut self, ctx: &mut Ctx<'_>, term: u64) {
        let before = self.log.term();
        let stepped_down = self.log.observe_term(term);
        let now = self.log.term();
        if now > before {
            if self.election.as_ref().is_some_and(|el| el.term <= now) {
                // T_ELECTION (already armed) re-arms the takeover clock.
                self.election = None;
            }
            self.answered_queries.retain(|&(_, t)| t >= now);
        }
        if stepped_down {
            self.stats.is_leader = false;
            self.counters.step_downs.inc();
            ctx.trace(
                TraceCategory::Election,
                NodeKind::Controller,
                self.id.get(),
                || format!("controller {} stepped down at term {now}", self.id.get()),
            );
            self.election = None;
            self.last_leader_seen = ctx.now();
            self.arm_takeover(ctx);
        }
    }

    /// Sends an election message to `dst`: source-routed when the
    /// topology is known, otherwise a hop-limited broadcast flood that
    /// the switches relay (the candidate may predate the first
    /// replicated topology). `mk` receives the flood TTL to embed.
    fn send_election(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: MacAddr,
        mk: impl Fn(u8) -> ControlMessage,
    ) {
        if let Some(path) = self.path_to(ctx, dst) {
            self.send_to(ctx, dst, path, mk(0));
        } else {
            let pkt = Packet::control(
                MacAddr::BROADCAST,
                self.mac,
                Path::empty(),
                mk(ELECTION_TTL),
            );
            ctx.send(NIC, pkt);
        }
    }

    /// Starts a leadership campaign for the next term: vote for
    /// ourselves, ask every member for theirs, and give up (to retry
    /// later) if no quorum materializes within a takeover window.
    fn begin_election(&mut self, ctx: &mut Ctx<'_>) {
        // Past the current term AND past every vote already cast, so a
        // losing candidate's retry targets a genuinely fresh term.
        let term = self.log.term().max(self.log.voted_in()) + 1;
        let floor = self.log.highest_contiguous();
        if !self.log.grant_vote(term, floor) {
            self.arm_takeover(ctx);
            return;
        }
        self.counters.elections_started.inc();
        ctx.trace(
            TraceCategory::Election,
            NodeKind::Controller,
            self.id.get(),
            || format!("controller {} campaigns for term {term}", self.id.get()),
        );
        let mut votes = HashSet::new();
        votes.insert(self.mac);
        self.election = Some(Election { term, votes });
        let candidate = self.mac;
        let mk = |ttl: u8| ControlMessage::LeaderQuery {
            candidate,
            term,
            log_floor: floor,
            ttl,
        };
        if self.topology.is_some() {
            let peers: Vec<MacAddr> = self.log.peers().collect();
            for peer in peers {
                self.send_election(ctx, peer, mk);
            }
        } else {
            // One flood reaches every member at once.
            let pkt = Packet::control(
                MacAddr::BROADCAST,
                self.mac,
                Path::empty(),
                mk(ELECTION_TTL),
            );
            ctx.send(NIC, pkt);
        }
        self.try_win_election(ctx);
        if self.election.is_some() {
            ctx.set_timer(self.config.takeover_timeout, T_ELECTION);
        }
    }

    /// Promotes if the current campaign holds an election quorum. A
    /// campaign whose term the log has already caught up to (a refusal
    /// or append raised it mid-flight) is abandoned instead: promoting
    /// into a term the group has moved past would mint a second leader
    /// for a term someone else may already hold.
    fn try_win_election(&mut self, ctx: &mut Ctx<'_>) {
        let Some(el) = self.election.as_ref() else {
            return;
        };
        if el.term <= self.log.term() {
            // T_ELECTION (armed by begin_election) re-arms takeover.
            self.election = None;
            return;
        }
        if el.votes.len() < self.log.election_quorum() {
            return;
        }
        let term = self.election.take().map_or(0, |el| el.term);
        self.log.promote_to(term);
        self.stats.is_leader = true;
        self.stats.terms_led.push(term);
        ctx.trace(
            TraceCategory::Election,
            NodeKind::Controller,
            self.id.get(),
            || format!("controller {} won election for term {term}", self.id.get()),
        );
        if self.topology.is_some() {
            self.send_hellos(ctx);
        } else if self.discovery.is_none() {
            // The old leader died before the first topology replicated
            // to us: run discovery ourselves instead of re-arming the
            // takeover timer forever behind the missing-topology guard.
            self.discovery = Some(DiscoveryState::new(self.mac, self.config.discovery.clone()));
            ctx.set_timer(self.config.probe_interval, T_PUMP);
        }
        if self.log.peers().next().is_some() {
            ctx.set_timer(self.config.heartbeat, T_HEARTBEAT);
        }
    }

    fn my_attach(&self) -> Option<(HostId, SwitchId)> {
        let topo = self.topology.as_ref()?;
        let me = topo.host_by_mac(self.mac)?;
        Some((me.id, me.attached.switch))
    }

    /// Tag path from this controller to `dst_mac`, over the current
    /// topology view. Routes come from the seeded [`RouteCache`]: stable
    /// per `(pair, epoch)`, ECMP-spread across pairs and epochs.
    fn path_to(&mut self, _ctx: &mut Ctx<'_>, dst_mac: MacAddr) -> Option<Path> {
        let (my_id, my_sw) = self.my_attach()?;
        let topo = self.topology.as_ref()?;
        let dst = topo.host_by_mac(dst_mac)?;
        let (dst_id, dst_sw) = (dst.id, dst.attached.switch);
        let route = self.route_cache.route(topo, my_sw, dst_sw)?;
        route.to_tag_path(topo, my_id, dst_id).ok()
    }

    /// Tag path from `src_mac` back to this controller.
    fn path_from(&mut self, _ctx: &mut Ctx<'_>, src_mac: MacAddr) -> Option<Path> {
        let (my_id, my_sw) = self.my_attach()?;
        let topo = self.topology.as_ref()?;
        let src = topo.host_by_mac(src_mac)?;
        let (src_id, src_sw) = (src.id, src.attached.switch);
        let route = self.route_cache.route(topo, src_sw, my_sw)?;
        route.to_tag_path(topo, src_id, my_id).ok()
    }

    /// Applies the cache invalidation rules for a topology delta:
    /// link-down evicts exactly the routes crossing the dead edge;
    /// link-up bumps the epoch (restored capacity can improve anything).
    /// Path graphs are validated against `topo_version` per entry, so
    /// the version bump the caller performs retires them lazily.
    fn invalidate_caches(&mut self, delta: &TopoDelta) {
        if delta.up.is_empty() && delta.unquarantine.is_empty() {
            for &(a, b) in delta.down.iter().chain(&delta.quarantine) {
                self.route_cache.invalidate_edge(a, b);
            }
        } else {
            self.route_cache.bump_epoch();
        }
    }

    /// Route-cache effectiveness counters as named fields.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.route_cache.stats()
    }

    /// Warms the route cache with every host-facing pair this controller
    /// will route to (hellos, heartbeats, patch floods, reply paths),
    /// fanned out over the [`RouteCache::precompute`] worker pool.
    /// Per-pair seeding makes the result byte-identical to on-demand
    /// computation for any worker count.
    fn precompute_routes(&mut self) {
        let Some((_, my_sw)) = self.my_attach() else {
            return;
        };
        let Some(topo) = self.topology.as_ref() else {
            return;
        };
        let mut seen = HashSet::new();
        let mut pairs = Vec::new();
        for h in topo.hosts() {
            let s = h.attached.switch;
            if s != my_sw && seen.insert(s) {
                pairs.push((my_sw, s));
                pairs.push((s, my_sw));
            }
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        self.route_cache.precompute(topo, &pairs, workers);
    }

    fn send_to(&self, ctx: &mut Ctx<'_>, dst: MacAddr, path: Path, msg: ControlMessage) {
        ctx.send(NIC, Packet::control(dst, self.mac, path, msg));
    }

    /// Follower: asks `leader` to replay the log after our contiguous
    /// floor (lost appends or a crash window left us behind).
    fn request_resync(&mut self, ctx: &mut Ctx<'_>, leader: MacAddr) {
        self.counters.repl_sync_requests.inc();
        if let Some(path) = self.path_to(ctx, leader) {
            self.send_to(
                ctx,
                leader,
                path,
                ControlMessage::ReplSyncRequest {
                    after: self.log.highest_contiguous(),
                    replica: self.mac,
                    term: self.log.term(),
                },
            );
        }
    }

    /// Broadcasts `ControllerHello` to every known host (bootstrap).
    fn send_hellos(&mut self, ctx: &mut Ctx<'_>) {
        let Some(topo) = self.topology.as_ref() else {
            return;
        };
        let hosts: Vec<MacAddr> = topo
            .hosts()
            .map(|h| h.mac)
            .filter(|&m| m != self.mac)
            .collect();
        self.precompute_routes();
        for mac in hosts {
            let Some(fwd) = self.path_to(ctx, mac) else {
                continue;
            };
            let Some(back) = self.path_from(ctx, mac) else {
                continue;
            };
            let msg = ControlMessage::ControllerHello {
                controller: self.mac,
                path_to_controller: back,
                topo_version: self.topo_version,
                standby: self.log.role() == ReplicaRole::Follower,
                term: self.log.term(),
            };
            self.send_to(ctx, mac, fwd, msg);
        }
        self.hello_sent = true;
    }

    /// Drives the discovery probe pump: up to `probe_window` probes per
    /// tick as one burst, expiry when idle, finalization at quiescence.
    ///
    /// The pacing interval is charged once per burst — batching the
    /// controller's per-packet overhead the way RBFRT batches table
    /// updates — so the effective per-probe cost is
    /// `probe_interval / probe_window`. `probe_window = 1` reproduces
    /// the paper's per-probe lockstep exactly.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let window = self.config.probe_window.max(1);
        let Some(disc) = self.discovery.as_mut() else {
            return;
        };
        let mut sent = 0usize;
        loop {
            // Expire eagerly: with the bucketed deadline queues this is
            // amortized O(1) per probe, and it keeps `outstanding`
            // bounded by the timeout window (instead of accumulating
            // millions of stale entries until the pump next idles).
            let expired = disc.expire(now);
            while sent < window {
                let Some(probe) = disc.next_probe(now) else {
                    break;
                };
                let msg = ControlMessage::Probe {
                    origin: self.mac,
                    forward_path: probe.path.clone(),
                    probe_id: probe.probe_id,
                };
                ctx.send(
                    NIC,
                    Packet::control(MacAddr::BROADCAST, self.mac, probe.path, msg),
                );
                sent += 1;
            }
            if sent >= window {
                break;
            }
            // Window unfilled and nothing expired: the job queue is
            // drained until a reply or deadline. (A nonzero expiry can
            // unlock new jobs — host scans — so loop back and retry in
            // that case.)
            if expired == 0 {
                break;
            }
        }
        if sent > 0 {
            self.counters.probe_burst_size.observe(sent as u64);
            ctx.set_timer(self.config.probe_interval, T_PUMP);
            return;
        }
        let Some(disc) = self.discovery.as_mut() else {
            return;
        };
        if !disc.is_done() {
            // Probes still in flight: wake at the next deadline or the
            // pacing tick, whichever is later.
            let wake = disc
                .next_deadline()
                .map_or(self.config.probe_interval, |d| {
                    if d > now {
                        d - now
                    } else {
                        self.config.probe_interval
                    }
                });
            ctx.set_timer(wake.max(self.config.probe_interval), T_PUMP);
            return;
        }
        disc.mark_finished(now);
        let started = disc.started_at().unwrap_or(SimTime::ZERO);
        self.stats.discovery_time = Some(now - started);
        self.counters.probes_sent.set(disc.probes_sent());
        match disc.to_topology() {
            Ok(topo) => {
                self.topology = Some(topo);
                self.topo_version = 1;
                // A whole-new topology invalidates everything derived.
                self.route_cache.bump_epoch();
                self.graph_cache.clear();
                self.send_hellos(ctx);
            }
            Err(_) => {
                // Leave topology unset; experiments detect the failure by
                // `ready()` staying false.
            }
        }
    }

    /// Applies a link event to the topology; returns the delta if it
    /// changed anything.
    fn apply_event(&mut self, event: LinkEvent) -> Option<TopoDelta> {
        let topo = self.topology.as_mut()?;
        let link = *topo.link_at(PortId::new(event.switch, event.port))?;
        if link.up == event.up {
            return None;
        }
        topo.set_link_state(link.id, event.up).ok()?;
        let mut delta = TopoDelta::default();
        if event.up {
            delta.up.push((link.a, link.b));
        } else {
            delta.down.push((link.a.switch, link.b.switch));
        }
        Some(delta)
    }

    /// Stage-2 failure handling (§4.2): learn the event, replicate it,
    /// and flood a topology patch to every host after the processing
    /// delay.
    fn handle_link_event(&mut self, ctx: &mut Ctx<'_>, event: LinkEvent) {
        if !self
            .seen_events
            .insert((event.switch, event.port, event.up, event.seq))
        {
            return;
        }
        self.counters.link_events.inc();
        self.stats.event_learned_at.push((event, ctx.now()));
        let Some(delta) = self.apply_event(event) else {
            return;
        };
        // Hard state supersedes suspicion: a link that goes down (or
        // comes back from down) sheds its quarantine and scoreboard
        // entry — hosts drop their gray state for the edge on the same
        // patch, so no unquarantine entry is needed.
        for &(a, b) in &delta.down {
            let e = norm_edge(a, b);
            self.quarantined.remove(&e);
            self.gray_board.remove(&e);
        }
        for &(pa, pb) in &delta.up {
            let e = norm_edge(pa.switch, pb.switch);
            self.quarantined.remove(&e);
            self.gray_board.remove(&e);
        }
        self.commit_delta(ctx, delta);
    }

    /// Versions a topology delta, replicates it to the standby group,
    /// and coalesces it into the pending patch flood. The flush timer
    /// charges the stage-2 processing delay once per batch, not once
    /// per event or recipient, and floods everything learned in the
    /// window as one epoch.
    fn commit_delta(&mut self, ctx: &mut Ctx<'_>, delta: TopoDelta) {
        self.invalidate_caches(&delta);
        self.topo_version += 1;
        if self.log.role() == ReplicaRole::Leader {
            let entry = self.log.append(self.topo_version, delta.clone());
            let peers: Vec<MacAddr> = self.log.peers().collect();
            for peer in peers {
                if let Some(path) = self.path_to(ctx, peer) {
                    self.send_to(
                        ctx,
                        peer,
                        path,
                        ControlMessage::ReplAppend {
                            index: entry.index,
                            version: entry.version,
                            delta: Box::new(entry.delta.clone()),
                            leader: self.mac,
                            term: self.log.term(),
                            entry_term: entry.term,
                            commit: self.log.committed(),
                        },
                    );
                }
            }
        }
        self.pending_patch.push(PatchEntry {
            version: self.topo_version,
            delta,
        });
        if !self.patch_flush_armed {
            self.patch_flush_armed = true;
            ctx.set_timer(self.config.patch_delay, T_PATCH_FLUSH);
        }
    }

    /// Quarantines (`enter`) or releases an edge: updates the local
    /// set and floods a versioned quarantine delta through the same
    /// log-append and patch-epoch machinery as hard link events.
    fn push_quarantine_delta(
        &mut self,
        ctx: &mut Ctx<'_>,
        edge: (SwitchId, SwitchId),
        enter: bool,
    ) {
        let changed = if enter {
            self.quarantined.insert(edge)
        } else {
            self.quarantined.remove(&edge)
        };
        if !changed {
            return;
        }
        let mut delta = TopoDelta::default();
        if enter {
            delta.quarantine.push(edge);
            self.counters.quarantines.inc();
        } else {
            delta.unquarantine.push(edge);
            self.counters.unquarantines.inc();
        }
        ctx.trace(
            TraceCategory::Route,
            NodeKind::Controller,
            self.id.get(),
            || {
                format!(
                    "controller {} {} edge ({}, {})",
                    self.id.get(),
                    if enter { "quarantines" } else { "releases" },
                    edge.0 .0,
                    edge.1 .0,
                )
            },
        );
        self.commit_delta(ctx, delta);
        self.last_gray_refresh = ctx.now();
    }

    /// Feeds one `LinkSuspect` report into the scoreboard and
    /// quarantines the edge once the evidence corroborates: `quorum`
    /// distinct dirty reporters, or one reporter above the solo
    /// threshold. Clean reports retire the reporter's evidence and grow
    /// the streak probation reads.
    fn handle_link_suspect(
        &mut self,
        ctx: &mut Ctx<'_>,
        reporter: MacAddr,
        edge: (SwitchId, SwitchId),
        loss_permille: u16,
        seq: u64,
    ) {
        let Some(cfg) = self.config.gray.clone() else {
            return;
        };
        if self.log.role() != ReplicaRole::Leader {
            return;
        }
        let edge = norm_edge(edge.0, edge.1);
        // Evidence about an unknown or hard-down link is dropped: the
        // topology's hard state supersedes suspicion.
        let Some(up) = self
            .topology
            .as_ref()
            .and_then(|t| t.link_between(edge.0, edge.1))
            .map(|l| l.up)
        else {
            self.counters.dropped_malformed.inc();
            return;
        };
        if !up {
            return;
        }
        let now = ctx.now();
        // Evidence is always recorded, but a leader whose lease lapsed
        // (no recent quorum contact) must not append: its view may be a
        // partitioned minority's, and the log never truncates a
        // divergent suffix.
        let lease_ok = self.quorum_alive(now);
        let board = self.gray_board.entry(edge).or_default();
        let last = board.last_seq.entry(reporter).or_insert(0);
        if seq <= *last {
            return; // Replayed or reordered report.
        }
        *last = seq;
        self.counters.link_suspects_rx.inc();
        if loss_permille <= cfg.clear_loss_permille {
            // Clean evidence retires the reporter's accusation; the
            // streak itself grows on probation ticks, one per tick with
            // no live accuser.
            board.reporters.remove(&reporter);
            return;
        }
        board.clean_streak = 0;
        board.reporters.insert(reporter, (loss_permille, now));
        let corroborated =
            board.reporters.len() >= cfg.quorum || loss_permille >= cfg.solo_loss_permille;
        if corroborated && lease_ok && !self.quarantined.contains(&edge) {
            board.flaps += 1;
            if board.flaps > cfg.max_flaps {
                board.sticky = true;
            }
            self.push_quarantine_delta(ctx, edge, true);
        }
    }

    /// Leader lease: counting ourselves, is a quorum of replicas in
    /// recent contact? A single-member log is always in contact. The
    /// window is generous (several heartbeats) — it only has to go
    /// stale *eventually* on a partitioned leader, before its decayed
    /// evidence turns into divergent unquarantine appends.
    fn quorum_alive(&self, now: SimTime) -> bool {
        let lease = SimDuration(self.config.heartbeat.0 * 4);
        let heard = 1 + self
            .peer_heard
            .iter()
            .filter(|&(peer, &at)| *peer != self.mac && now - at <= lease)
            .count();
        heard >= self.log.quorum()
    }

    /// Probation tick: decays stale dirty evidence, grows clean streaks
    /// for quarantined edges with no live accuser, and releases the
    /// edges whose streak cleared the hysteresis bar. Sticky edges
    /// (flap budget exceeded) are held until a hard link event resets
    /// them.
    fn probation_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cfg) = self.config.gray.clone() else {
            return;
        };
        if self.log.role() == ReplicaRole::Leader && self.quorum_alive(ctx.now()) {
            let now = ctx.now();
            for board in self.gray_board.values_mut() {
                board
                    .reporters
                    .retain(|_, &mut (_, at)| now - at <= cfg.evidence_ttl);
            }
            // Grow (or start) the clean streak of every quarantined edge
            // with no live accuser. `entry` rather than lookup: a leader
            // elected mid-quarantine inherits the mirrored `quarantined`
            // set but an empty scoreboard, and probation must still be
            // able to release what it inherited.
            for &edge in &self.quarantined {
                let board = self.gray_board.entry(edge).or_default();
                if board.reporters.is_empty() {
                    board.clean_streak = board.clean_streak.saturating_add(1);
                } else {
                    board.clean_streak = 0;
                }
            }
            let releasable: Vec<(SwitchId, SwitchId)> = self
                .quarantined
                .iter()
                .copied()
                .filter(|e| {
                    self.gray_board.get(e).is_some_and(|b| {
                        !b.sticky && b.reporters.is_empty() && b.clean_streak >= cfg.clean_streak
                    })
                })
                .collect();
            for edge in releasable {
                self.push_quarantine_delta(ctx, edge, false);
                // Re-quarantining needs fresh corroboration; releasing
                // again needs a fresh streak.
                if let Some(b) = self.gray_board.get_mut(&edge) {
                    b.clean_streak = 0;
                }
            }
            // Quarantine is soft state: patch floods are at-most-once
            // and hosts skip missed epochs, so a delta alone strands
            // idle hosts on a stale view. While anything is quarantined
            // the leader re-asserts the full set each refresh interval;
            // hosts expire entries that stop being refreshed.
            if !self.quarantined.is_empty() && now - self.last_gray_refresh >= cfg.refresh_interval
            {
                let delta = TopoDelta {
                    quarantine: self.quarantined.iter().copied().collect(),
                    ..TopoDelta::default()
                };
                self.commit_delta(ctx, delta);
                self.last_gray_refresh = now;
            }
        }
        ctx.set_timer(cfg.probation_interval, T_PROBATION);
    }

    /// Floods every patch entry coalesced since the last flush as one
    /// [`PatchBatch`] epoch (split into `patch_batch_max`-entry segment
    /// frames), to every known host.
    fn flush_patches(&mut self, ctx: &mut Ctx<'_>) {
        self.patch_flush_armed = false;
        if self.pending_patch.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.pending_patch);
        let epoch = entries.last().map_or(self.topo_version, |e| e.version);
        let term = self.log.term();
        let hosts: Vec<MacAddr> = self
            .topology
            .as_ref()
            .map(|t| {
                t.hosts()
                    .map(|h| h.mac)
                    .filter(|&m| m != self.mac)
                    .collect()
            })
            .unwrap_or_default();
        self.counters.patch_floods.inc();
        self.counters
            .patch_batch_entries
            .observe(entries.len() as u64);
        ctx.trace(
            TraceCategory::Route,
            NodeKind::Controller,
            self.id.get(),
            || {
                format!(
                    "controller {} floods patch batch epoch {epoch} ({} entries) to {} hosts",
                    self.id.get(),
                    entries.len(),
                    hosts.len()
                )
            },
        );
        let max = self.config.patch_batch_max.max(1);
        let segs = entries.chunks(max).count();
        let segs16 = u16::try_from(segs).unwrap_or(u16::MAX);
        for mac in hosts {
            let Some(path) = self.path_to(ctx, mac) else {
                continue;
            };
            for (seg, chunk) in entries.chunks(max).enumerate() {
                let msg = ControlMessage::TopologyPatchBatch(PatchBatch {
                    epoch,
                    term,
                    seg: u16::try_from(seg).unwrap_or(u16::MAX),
                    segs: segs16,
                    entries: chunk.to_vec(),
                });
                // The flush timer already charged `patch_delay`; frames
                // leave back to back and serialize on the wire.
                ctx.send(NIC, Packet::control(mac, self.mac, path.clone(), msg));
                self.counters.patches_sent.inc();
            }
        }
    }

    fn serve_path_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: MacAddr,
        dst: MacAddr,
        request_id: u64,
    ) {
        self.counters.path_requests.inc();
        let now = ctx.now();
        // FIFO service queue: each query costs `QUERY_SERVICE_TIME`.
        let start = self.busy_until.max(now);
        let done = start + QUERY_SERVICE_TIME;
        self.busy_until = done;
        let delay = done - now;
        let version = self.topo_version;
        let graph = match self.graph_cache.get(&(src, dst)) {
            Some((v, g)) if *v == version => g.clone(),
            _ => {
                // Miss or stale entry. Build with an RNG derived from the
                // (version, pair) key — never `ctx.rng()` — so the graph a
                // requester receives does not depend on which queries the
                // controller happened to serve earlier.
                let seed = graph_build_seed(GRAPH_CACHE_SALT ^ self.id.get(), version, src, dst);
                let built = self.build_graph(seed, src, dst);
                self.graph_cache
                    .insert((src, dst), (version, built.clone()));
                built
            }
        };
        let reply = ControlMessage::PathReply {
            request_id,
            graph,
            topo_version: self.topo_version,
        };
        if let Some(path) = self.path_to(ctx, src) {
            let pkt = Packet::control(src, self.mac, path, reply);
            ctx.send_after(delay, NIC, pkt);
        }
    }

    /// Builds a path graph for `(src, dst)`, avoiding quarantined edges
    /// when possible: the build runs over a filtered view with gray
    /// links removed, and falls back to the full topology when the
    /// filtered view cannot produce a graph (degraded beats blackhole —
    /// the same rule hosts apply locally).
    fn build_graph(&self, seed: u64, src: MacAddr, dst: MacAddr) -> Option<Box<PathGraph>> {
        let topo = self.topology.as_ref()?;
        let s = topo.host_by_mac(src)?.id;
        let d = topo.host_by_mac(dst)?.id;
        if !self.quarantined.is_empty() {
            let mut filtered = topo.clone();
            let mut any = false;
            for &(a, b) in &self.quarantined {
                if let Some(l) = filtered.link_between(a, b).map(|l| l.id) {
                    if filtered.set_link_state(l, false).is_ok() {
                        any = true;
                    }
                }
            }
            if any {
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(g) = pathgraph::build(&filtered, s, d, &self.config.pathgraph, &mut rng) {
                    return Some(Box::new(g));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        pathgraph::build(topo, s, d, &self.config.pathgraph, &mut rng)
            .ok()
            .map(Box::new)
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: MacAddr,
        msg: ControlMessage,
        remaining: Path,
    ) {
        match msg {
            ControlMessage::Probe {
                origin, probe_id, ..
            } => {
                if origin == self.mac {
                    // Our own bounce probe returned.
                    if let Some(d) = self.discovery.as_mut() {
                        d.on_probe_reply(probe_id, origin, ctx.now());
                    }
                } else {
                    // Another prober: answer like a host, flagged as
                    // controller.
                    let reply = ControlMessage::ProbeReply {
                        responder: self.mac,
                        is_controller: true,
                        probe_id,
                        forward_path: Path::empty(),
                    };
                    self.send_to(ctx, origin, remaining, reply);
                }
            }
            ControlMessage::ProbeReply {
                responder,
                probe_id,
                ..
            } => {
                if let Some(d) = self.discovery.as_mut() {
                    d.on_probe_reply(probe_id, responder, ctx.now());
                }
            }
            ControlMessage::SwitchIdReply {
                switch,
                echo: Some(echo),
            } => {
                if let ControlMessage::Probe { probe_id, .. } = *echo {
                    if let Some(d) = self.discovery.as_mut() {
                        d.on_switch_id(probe_id, switch, ctx.now());
                    }
                }
            }
            ControlMessage::SwitchIdReply { echo: None, .. } => {}
            ControlMessage::PathRequest {
                src: requester,
                dst,
                request_id,
            } => {
                self.serve_path_request(ctx, requester, dst, request_id);
            }
            ControlMessage::LinkNotification { event, .. }
            | ControlMessage::HostFlood { event, .. } => {
                self.handle_link_event(ctx, event);
            }
            ControlMessage::LinkSuspect {
                reporter,
                edge,
                loss_permille,
                window: _,
                direction: _,
                seq,
            } => {
                self.handle_link_suspect(ctx, reporter, edge, loss_permille, seq);
            }
            ControlMessage::ReplAppend {
                index,
                version,
                delta,
                leader,
                term,
                entry_term,
                commit,
            } => {
                if term < self.log.term() {
                    // A fenced stale leader (pre-partition, or restarted
                    // without noticing the election it slept through).
                    self.counters.dropped_malformed.inc();
                    return;
                }
                if term > self.log.term() {
                    // First contact from a new leader regime. Our
                    // uncommitted suffix may be a fenced leader's
                    // divergence (ours, or one we stored); the log never
                    // truncates on conflict, so shed it now — before the
                    // commit watermark can freeze it — and re-fetch the
                    // authoritative entries via re-sync.
                    self.log.truncate_uncommitted();
                }
                self.note_term(ctx, term);
                if self.log.role() == ReplicaRole::Leader {
                    // Equal-term append from another claimed leader —
                    // impossible with exclusive votes; drop defensively.
                    self.counters.dropped_malformed.inc();
                    return;
                }
                self.election = None;
                self.last_leader_seen = ctx.now();
                if index == 0 {
                    self.log.note_commit(commit);
                    // Pure heartbeat. A version ahead of ours means we
                    // missed appends (lost packets or a crash window):
                    // ask the leader to re-send from our contiguous
                    // floor.
                    if version > self.topo_version && self.log.role() == ReplicaRole::Follower {
                        self.request_resync(ctx, leader);
                    }
                    // Heartbeat ack (index 0): the leader's lease — it
                    // may only act on decayed gray evidence while it can
                    // still hear a quorum.
                    if let Some(path) = self.path_to(ctx, leader) {
                        self.send_to(
                            ctx,
                            leader,
                            path,
                            ControlMessage::ReplAck {
                                index: 0,
                                replica: self.mac,
                                term: self.log.term(),
                            },
                        );
                    }
                }
                if index > 0 {
                    let new = self.log.store(LogEntry {
                        index,
                        version,
                        term: entry_term,
                        delta: (*delta).clone(),
                    });
                    // After storing: the entry itself may complete the
                    // contiguous prefix the leader's commit index covers.
                    self.log.note_commit(commit);
                    if new {
                        // Apply to the local topology view.
                        if let Some(topo) = self.topology.as_mut() {
                            for (a, b) in &delta.down {
                                if let Some(l) = topo.link_between(*a, *b).map(|l| l.id) {
                                    let _ = topo.set_link_state(l, false);
                                }
                            }
                            for (pa, pb) in &delta.up {
                                if let Some(l) =
                                    topo.link_between(pa.switch, pb.switch).map(|l| l.id)
                                {
                                    let _ = topo.set_link_state(l, true);
                                }
                            }
                        }
                        // Mirror the leader's quarantine view so a
                        // promoted successor inherits it; hard link
                        // transitions shed the gray state for the edge.
                        for &(a, b) in &delta.down {
                            let e = norm_edge(a, b);
                            self.quarantined.remove(&e);
                            self.gray_board.remove(&e);
                        }
                        for &(pa, pb) in &delta.up {
                            let e = norm_edge(pa.switch, pb.switch);
                            self.quarantined.remove(&e);
                            self.gray_board.remove(&e);
                        }
                        for &(a, b) in &delta.quarantine {
                            self.quarantined.insert(norm_edge(a, b));
                        }
                        for &(a, b) in &delta.unquarantine {
                            self.quarantined.remove(&norm_edge(a, b));
                        }
                        self.invalidate_caches(&delta);
                        if version > self.topo_version {
                            self.topo_version = version;
                        }
                    }
                    if let Some(path) = self.path_to(ctx, leader) {
                        self.send_to(
                            ctx,
                            leader,
                            path,
                            ControlMessage::ReplAck {
                                index,
                                replica: self.mac,
                                term: self.log.term(),
                            },
                        );
                    }
                    // A hole below this entry means earlier appends were
                    // lost: request them rather than waiting for the
                    // next heartbeat to notice.
                    if self.log.has_gap() {
                        self.request_resync(ctx, leader);
                    }
                }
            }
            ControlMessage::ReplAck {
                index,
                replica,
                term,
            } => {
                if term > self.log.term() {
                    // The replica knows a newer leadership than ours.
                    self.note_term(ctx, term);
                    return;
                }
                if term < self.log.term() || self.log.role() != ReplicaRole::Leader {
                    // An ack echoing a fenced term, or one addressed to
                    // a leadership we no longer hold.
                    self.counters.dropped_malformed.inc();
                    return;
                }
                self.peer_heard.insert(replica, ctx.now());
                if index > 0 {
                    let _ = self.log.ack(index, replica);
                }
            }
            // Leader side: replay the requested suffix as ordinary
            // appends (bounded per request; the follower re-asks if it
            // is still behind afterwards). A request from a replica
            // behind on terms is still served — the replayed appends
            // carry our term and bring it forward.
            ControlMessage::ReplSyncRequest {
                after,
                replica,
                term,
            } => {
                if term > self.log.term() {
                    self.note_term(ctx, term);
                    return;
                }
                if self.log.role() != ReplicaRole::Leader {
                    return;
                }
                self.peer_heard.insert(replica, ctx.now());
                let entries: Vec<LogEntry> = self
                    .log
                    .entries_after(after)
                    .take(Controller::RESYNC_BATCH)
                    .cloned()
                    .collect();
                if let Some(path) = self.path_to(ctx, replica) {
                    for e in entries {
                        self.counters.repl_resends.inc();
                        self.send_to(
                            ctx,
                            replica,
                            path.clone(),
                            ControlMessage::ReplAppend {
                                index: e.index,
                                version: e.version,
                                delta: Box::new(e.delta),
                                leader: self.mac,
                                term: self.log.term(),
                                entry_term: e.term,
                                commit: self.log.committed(),
                            },
                        );
                    }
                }
            }
            ControlMessage::LeaderQuery {
                candidate,
                term,
                log_floor,
                ttl: _,
            } => {
                if candidate == self.mac {
                    return; // Our own flooded campaign echoed back.
                }
                if !self.answered_queries.insert((candidate, term)) {
                    return; // Duplicate flood copy; already answered.
                }
                let me = self.mac;
                let (granted, leading) =
                    if self.log.role() == ReplicaRole::Leader && term <= self.log.term() {
                        // Still alive and unfenced: tell the candidate
                        // to stand down.
                        (false, true)
                    } else {
                        let granted = self.log.grant_vote(term, log_floor);
                        if granted {
                            // Give the candidate a full takeover window
                            // to win before we campaign ourselves.
                            self.last_leader_seen = ctx.now();
                            self.election = None;
                        }
                        // Adopt the campaign term (steps us down if we
                        // were a fenced leader).
                        self.note_term(ctx, term);
                        (granted, false)
                    };
                let reply_term = self.log.term();
                self.send_election(ctx, candidate, |ttl| ControlMessage::LeaderQueryReply {
                    candidate,
                    responder: me,
                    term: reply_term,
                    granted,
                    leader: leading,
                    ttl,
                });
            }
            ControlMessage::LeaderQueryReply {
                candidate,
                responder,
                term,
                granted,
                leader,
                ttl: _,
            } => {
                if candidate != self.mac || responder == self.mac {
                    return; // Flood copy addressed to someone else.
                }
                if leader {
                    // An unfenced leader answered: abandon the campaign
                    // and treat the reply as a liveness signal.
                    self.election = None;
                    self.last_leader_seen = ctx.now();
                    self.note_term(ctx, term);
                    return;
                }
                if granted {
                    let counted = match self.election.as_mut() {
                        Some(el) if el.term == term => {
                            el.votes.insert(responder);
                            true
                        }
                        _ => false,
                    };
                    if counted {
                        self.try_win_election(ctx);
                    }
                } else {
                    // A refusal carrying a higher term fences us.
                    self.note_term(ctx, term);
                }
            }
            // Members also hear the leader's host-directed hellos: an
            // unfenced active leader resets takeover patience.
            ControlMessage::ControllerHello {
                controller,
                standby,
                term,
                ..
            } if controller != self.mac && !standby => {
                if term >= self.log.term() {
                    self.last_leader_seen = ctx.now();
                    self.election = None;
                }
                self.note_term(ctx, term);
            }
            ControlMessage::ControllerHello { .. } => {}
            ControlMessage::Ping { seq, sent_at } => {
                if let Some(path) = self.path_to(ctx, src) {
                    self.send_to(
                        ctx,
                        src,
                        path,
                        ControlMessage::Pong {
                            seq,
                            echo_sent_at: sent_at,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.counters.register(ctx.telemetry(), self.id);
        self.last_leader_seen = ctx.now();
        if self.config.run_discovery && self.config.is_leader {
            self.discovery = Some(DiscoveryState::new(self.mac, self.config.discovery.clone()));
            ctx.set_timer(START_DELAY, T_PUMP);
        } else if let Some(topo) = self.config.preload.take() {
            self.topology = Some(topo);
            self.topo_version = 1;
            if self.config.is_leader {
                // Delay the hello so every node has started.
                ctx.set_timer(START_DELAY, T_PUMP);
            }
        }
        if self.config.is_leader && !self.log.peers().collect::<Vec<_>>().is_empty() {
            ctx.set_timer(self.config.heartbeat, T_HEARTBEAT);
        }
        if !self.config.is_leader {
            self.arm_takeover(ctx);
            // Standby replicas announce themselves too so hosts can
            // spread path queries over the whole controller group.
            if self.topology.is_some() {
                ctx.set_timer(START_DELAY + self.config.heartbeat, T_PUMP);
            }
        }
        // All replicas keep the probation clock running so a promoted
        // leader evaluates releases without re-arming anything.
        if let Some(g) = self.config.gray.as_ref() {
            ctx.set_timer(g.probation_interval, T_PROBATION);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _in_port: PortNo, pkt: Packet) {
        let is_broadcast = pkt.dst == MacAddr::BROADCAST;
        let is_probeish = matches!(
            pkt.payload,
            Payload::Control(
                ControlMessage::Probe { .. }
                    | ControlMessage::ProbeReply { .. }
                    | ControlMessage::SwitchIdReply { .. }
            )
        );
        if !is_broadcast && !pkt.path.is_empty() && !is_probeish {
            return; // Misrouted.
        }
        if let Payload::Control(msg) = pkt.payload {
            let remaining = pkt.path;
            self.handle_control(ctx, pkt.src, msg, remaining);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_PUMP => {
                if self.discovery.is_some() {
                    self.pump(ctx);
                } else if !self.hello_sent && self.topology.is_some() {
                    self.send_hellos(ctx);
                }
            }
            T_PATCH_FLUSH => {
                self.flush_patches(ctx);
            }
            T_PROBATION => {
                self.probation_tick(ctx);
            }
            T_HEARTBEAT if self.log.role() == ReplicaRole::Leader => {
                let term = self.log.term();
                let commit = self.log.committed();
                let peers: Vec<MacAddr> = self.log.peers().collect();
                for peer in peers {
                    let Some(path) = self.path_to(ctx, peer) else {
                        continue;
                    };
                    self.send_to(
                        ctx,
                        peer,
                        path.clone(),
                        ControlMessage::ReplAppend {
                            index: 0, // Pure heartbeat.
                            version: self.topo_version,
                            delta: Box::default(),
                            leader: self.mac,
                            term,
                            entry_term: term,
                            commit,
                        },
                    );
                    // Ack-less retry: replay entries this peer has
                    // not acknowledged (lost appends or acks), a
                    // bounded batch per beat.
                    let unacked = self.log.unacked_for(peer);
                    for ix in unacked.into_iter().take(Controller::RESEND_PER_BEAT) {
                        let Some(e) = self.log.entry(ix).cloned() else {
                            continue;
                        };
                        self.counters.repl_resends.inc();
                        self.send_to(
                            ctx,
                            peer,
                            path.clone(),
                            ControlMessage::ReplAppend {
                                index: e.index,
                                version: e.version,
                                delta: Box::new(e.delta),
                                leader: self.mac,
                                term,
                                entry_term: e.term,
                                commit,
                            },
                        );
                    }
                }
                ctx.set_timer(self.config.heartbeat, T_HEARTBEAT);
            }
            T_TAKEOVER if self.log.role() == ReplicaRole::Follower => {
                if self.election.is_some() {
                    // A campaign is in flight; T_ELECTION owns re-arming.
                    return;
                }
                let silent = ctx.now() - self.last_leader_seen;
                if silent >= self.config.takeover_timeout {
                    // The rank stagger on this timer makes the lowest-MAC
                    // live follower campaign (and so promote) first; the
                    // vote quorum makes a second same-term leader
                    // impossible even when the stagger ties.
                    self.begin_election(ctx);
                } else {
                    self.arm_takeover(ctx);
                }
            }
            T_ELECTION => {
                // The campaign window closed without a quorum (dead
                // peers, a partition, or a lost race). Fall back to the
                // takeover clock and retry at a fresh term later.
                self.election = None;
                if self.log.role() == ReplicaRole::Follower {
                    self.arm_takeover(ctx);
                }
            }
            _ => {}
        }
    }

    fn publish_telemetry(&mut self) {
        self.counters.is_leader.set(i64::from(self.stats.is_leader));
        self.counters.term.set(self.log.term() as i64);
        let rc = self.route_cache.stats();
        self.counters.route_cache_hits.set(rc.hits);
        self.counters.route_cache_misses.set(rc.misses);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // All pre-crash timers are dead (the engine bumps our epoch), so
        // re-arm the periodic machinery from scratch.
        self.counters.restarts.inc();
        self.last_leader_seen = ctx.now();
        self.busy_until = ctx.now();
        self.election = None;
        // The flush timer died with the crash; drop the unflooded batch
        // (post-restart resync re-derives the topology authoritatively).
        self.pending_patch.clear();
        self.patch_flush_armed = false;
        if let Some(g) = self.config.gray.as_ref() {
            ctx.set_timer(g.probation_interval, T_PROBATION);
        }
        if self.discovery.as_ref().is_some_and(|d| !d.is_done()) {
            // Resume the probe pump; outstanding probes will expire and
            // retry through the normal backoff path.
            ctx.set_timer(self.config.probe_interval, T_PUMP);
        }
        match self.log.role() {
            ReplicaRole::Leader if self.log.peers().next().is_none() => {
                // Solo controller: nobody could have been elected.
            }
            ReplicaRole::Leader => {
                // A follower may have won an election while we were
                // down. Rejoin as a follower (keeping our term — a
                // successor's term is strictly higher) and campaign only
                // after a silent takeover window proves nobody leads.
                self.log.demote();
                self.stats.is_leader = false;
                self.arm_takeover(ctx);
                let peers: Vec<MacAddr> = self.log.peers().collect();
                for peer in peers {
                    self.request_resync(ctx, peer);
                }
            }
            ReplicaRole::Follower => {
                self.arm_takeover(ctx);
                // We may have missed appends while down; ask every peer
                // for the suffix — only the current leader will answer.
                let peers: Vec<MacAddr> = self.log.peers().collect();
                for peer in peers {
                    self.request_resync(ctx, peer);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_identity_and_defaults() {
        let c = Controller::new(HostId(5), ControllerConfig::default());
        assert_eq!(c.mac(), MacAddr::for_host(5));
        assert!(!c.ready());
        assert_eq!(c.topo_version(), 0);
    }

    #[test]
    fn preload_marks_ready_after_start() {
        let g = dumbnet_topology::generators::testbed();
        let cfg = ControllerConfig {
            preload: Some(g.topology),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(HostId(0), cfg);
        // on_start consumes the preload; simulate via a minimal world in
        // the core crate's integration tests. Here check the config path.
        assert!(c.config.preload.is_some());
        let topo = c.config.preload.take().unwrap();
        c.topology = Some(topo);
        assert!(c.ready());
    }

    #[test]
    fn apply_event_flips_link_state_once() {
        let g = dumbnet_topology::generators::testbed();
        let link = *g.topology.links().next().unwrap();
        let mut c = Controller::new(HostId(0), ControllerConfig::default());
        c.topology = Some(g.topology);
        let ev = LinkEvent {
            switch: link.a.switch,
            port: link.a.port,
            up: false,
            seq: 1,
        };
        let delta = c.apply_event(ev).unwrap();
        assert_eq!(delta.down, vec![(link.a.switch, link.b.switch)]);
        // Second application: no change.
        assert!(c.apply_event(ev).is_none());
        // Back up.
        let ev_up = LinkEvent { up: true, ..ev };
        let delta = c.apply_event(ev_up).unwrap();
        assert_eq!(delta.up, vec![(link.a, link.b)]);
    }

    // Full controller behaviour (discovery over the wire, path service,
    // patch flooding, replication) is covered by dumbnet-core
    // integration tests where a complete fabric exists.
}
