//! The Brunet node: a sans-IO state machine composing routing, the
//! connection/linking protocols, keepalives and the three overlords.
//!
//! A [`BrunetNode`] never touches a socket or a clock. Its inputs are
//! timestamped events — [`BrunetNode::on_datagram`], [`BrunetNode::on_tick`],
//! [`BrunetNode::send_app`] — and its outputs are emitted *as they happen*
//! into the [`NodeSink`] passed to each call: frames via [`NodeSink::send`],
//! application notifications via [`NodeSink::event`], telemetry via
//! [`NodeSink::count`]. One input event can emit a *burst* of frames (a
//! routed forward plus CTM replies plus linking traffic); the node makes no
//! assumption about when those frames reach the wire, only that they keep
//! emission order — which is what lets
//! [`crate::driver::NodeDriver`] coalesce each call's burst and flush it as
//! one batch at the end of the cycle (see "The flush boundary" in
//! [`crate::driver`]). Runtimes embed the node behind that driver. This is
//! what lets one protocol implementation serve both Fig. 4's 100-trial
//! sweeps and a loopback demo.
//!
//! ## Decode-free transit
//!
//! The per-hop cost of forwarding is the overlay's hottest operation (the
//! paper's Table II multi-hop throughput gap is per-hop cost times path
//! length). A transit node therefore never fully decodes an application
//! frame: [`BrunetNode::on_datagram`] peeks the routed header in place
//! ([`crate::wire::RoutedHeader`]), consults the routing index, patches the
//! hop count inside the received buffer and forwards the *same* `Bytes` —
//! no allocation, no payload copy. Full decode happens only at the edges:
//! local delivery, malformed frames, and protocol traffic (CTM, linking).
//! The two paths are byte-identical by construction, which
//! `tests/driver_differential.rs` proves over a relay trace.
//!
//! ## Join choreography (§IV-C)
//!
//! 1. Link (wildcard target) to a bootstrap URI → a **leaf** connection to
//!    node `L`; the `LinkReply` teaches us our NAT-assigned public URI.
//! 2. Send a CTM addressed *to ourselves*, relayed via `L`. Greedy routing
//!    delivers it to the ring node nearest our address, which answers (and
//!    edge-forwards one copy to the neighbour on the other side of us, so
//!    both future neighbours respond). Replies come back through `L`.
//! 3. Link to each responder as **structured near** — we are now routable.
//! 4. The far overlord acquires its `k` long links; the shortcut overlord
//!    reacts to tunnelled traffic from then on.

use std::collections::HashMap;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::Address;
use crate::bootstrap::{BootstrapManager, JoinState};
use crate::config::{OverlayConfig, INTRODUCER_RETRIES};
use crate::conn::{ConnTable, ConnType, NextHop};
use crate::driver::{NodeEvent, NodeSink};
use crate::linking::{LinkCmd, LinkingManager};
use crate::overlord::{FarOverlord, NearOverlord, OverlordCmd, ShortcutOverlord};
use crate::ping::{PingCmd, PingManager};
use crate::telemetry::Counter;
use crate::uri::{TransportUri, UriSet};
use crate::wire::{Body, Frame, LinkErrorReason, LinkMsg, Packet, RoutedHeader};

/// The wildcard target address used when linking to a bootstrap node whose
/// overlay address is not yet known.
pub const WILDCARD: Address = Address([0; 20]);

/// Housekeeping cadence (pending-CTM expiry, shortcut idle checks, join
/// retries are evaluated at this granularity).
const HOUSEKEEPING: SimDuration = SimDuration::from_secs(2);

/// How long a pending CTM waits before it may be re-issued.
const CTM_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// Base demotion backoff after a failed introducer; doubles per
/// consecutive failure (capped at ×32). Demoted introducers are retried
/// last, never dropped from the cache.
const INTRODUCER_BACKOFF: SimDuration = SimDuration::from_secs(30);

/// Upper bound on cached introducers (configured + learned).
const MAX_INTRODUCERS: usize = 16;

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Routed packets forwarded for other nodes.
    pub forwarded: u64,
    /// Routed packets delivered locally (exact destination).
    pub delivered: u64,
    /// Routed packets delivered locally by nearest-delivery.
    pub delivered_nearest: u64,
    /// Packets dropped: hop budget exhausted.
    pub dropped_ttl: u64,
    /// Packets dropped: a CTM relay had no link to the joining node.
    pub dropped_relay: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// CTM requests sent.
    pub ctm_sent: u64,
    /// Application packets originated (send_app calls routed).
    pub app_sent: u64,
    /// Sum of hop counts over exactly-delivered packets (divide by
    /// `delivered` for the average path length).
    pub hops_sum: u64,
}

#[derive(Clone, Debug)]
struct PendingCtm {
    target: Address,
    ctype: ConnType,
    expires: SimTime,
}

/// The node. See module docs.
pub struct BrunetNode {
    addr: Address,
    cfg: OverlayConfig,
    rng: SmallRng,
    running: bool,
    my_uris: UriSet,
    conns: ConnTable,
    linking: LinkingManager,
    pinger: PingManager,
    near: NearOverlord,
    far: FarOverlord,
    shortcut: ShortcutOverlord,
    pending_ctm: HashMap<u64, PendingCtm>,
    next_token: u64,
    /// Ring probes sent; every 4th enters through a cached introducer
    /// endpoint instead of a live connection.
    probe_rounds: u64,
    bootstrap: BootstrapManager,
    /// The introducer the in-flight wildcard attempt is funnelled through
    /// (multi-introducer mode tries exactly one at a time).
    current_introducer: Option<TransportUri>,
    leaf_peer: Option<Address>,
    next_join_attempt: SimTime,
    next_housekeeping: SimTime,
    stats: NodeStats,
}

impl BrunetNode {
    /// Create a stopped node with the given overlay address.
    pub fn new(addr: Address, cfg: OverlayConfig, seed: u64) -> Self {
        BrunetNode {
            addr,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            running: false,
            my_uris: UriSet::default(),
            conns: ConnTable::new(),
            linking: LinkingManager::new(),
            pinger: PingManager::new(),
            near: NearOverlord::new(),
            far: FarOverlord::new(),
            shortcut: ShortcutOverlord::new(),
            pending_ctm: HashMap::new(),
            next_token: 1,
            probe_rounds: 0,
            bootstrap: BootstrapManager::new(seed),
            current_introducer: None,
            leaf_peer: None,
            next_join_attempt: SimTime::ZERO,
            next_housekeeping: SimTime::ZERO,
            stats: NodeStats::default(),
        }
    }

    /// This node's overlay address.
    pub fn address(&self) -> Address {
        self.addr
    }

    /// The connection table (read-only).
    pub fn conns(&self) -> &ConnTable {
        &self.conns
    }

    /// A point-in-time copy of identity + connection table, for offline
    /// structural auditing (see [`crate::conn::ConnSnapshot`]).
    pub fn conn_snapshot(&self) -> crate::conn::ConnSnapshot {
        crate::conn::ConnSnapshot {
            addr: self.addr,
            table: self.conns.clone(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Effective configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    /// True once the node holds at least one structured-near connection —
    /// the point at which it is part of the ring and other nodes' greedy
    /// routing reaches it.
    pub fn is_routable(&self) -> bool {
        self.conns
            .with_type(ConnType::StructuredNear)
            .next()
            .is_some()
    }

    /// True if a direct (single overlay hop) link to `peer` exists,
    /// whatever its role set — the condition Fig. 4's third regime measures.
    pub fn has_direct(&self, peer: Address) -> bool {
        self.conns.get(peer).is_some()
    }

    /// The URI list this node currently advertises.
    pub fn advertised_uris(&self) -> Vec<TransportUri> {
        self.my_uris.advertised(self.cfg.uri_order)
    }

    /// Start the node: bind at `local_uri` and join via `bootstrap` URIs
    /// (empty for the very first node of a new overlay).
    pub fn start<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        local_uri: TransportUri,
        bootstrap: Vec<TransportUri>,
        sink: &mut S,
    ) {
        self.running = true;
        self.my_uris = UriSet::new(local_uri);
        self.bootstrap.configure(&bootstrap);
        self.next_join_attempt = now + self.cfg.join_retry;
        self.next_housekeeping = now + HOUSEKEEPING;
        self.try_bootstrap(now, sink);
    }

    /// Kick (or continue) the wildcard join through the introducer cache.
    ///
    /// With a single cached introducer this is the whole-list funnel: one
    /// wildcard attempt walking the URI list on the standard `link_retries`
    /// budget (`tests/driver_differential.rs` pins that transcript's
    /// digest). With several introducers cached it funnels
    /// through one seeded-random candidate at a time on the short
    /// `INTRODUCER_RETRIES` budget, falling through the cache on failure.
    fn try_bootstrap<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.bootstrap.is_empty() || self.linking.has_attempt(WILDCARD) {
            return;
        }
        if self.bootstrap.len() == 1 {
            self.current_introducer = self.bootstrap.uris().first().copied();
            self.linking
                .start(now, WILDCARD, ConnType::Leaf, self.bootstrap.uris());
        } else {
            let Some(uri) = self.bootstrap.next_candidate(now) else {
                return;
            };
            self.current_introducer = Some(uri);
            sink.count(Counter::IntroducerTried);
            self.linking.start_with_budget(
                now,
                WILDCARD,
                ConnType::Leaf,
                vec![uri],
                Some(INTRODUCER_RETRIES),
            );
        }
        self.drive_linking(now, sink);
    }

    /// The persistent join state: a snapshot of the introducer cache that a
    /// runtime can stash before [`BrunetNode::restart`] (which clean-slates
    /// it) and re-seed afterwards via [`BrunetNode::restore_join_state`].
    pub fn join_state(&self) -> JoinState {
        self.bootstrap.join_state()
    }

    /// Re-seed the introducer cache from a saved [`JoinState`] (failure
    /// counts survive; backoff deadlines do not — the restart clock is
    /// unrelated to the one the deadlines were set under).
    pub fn restore_join_state(&mut self, state: &JoinState) {
        self.bootstrap.restore(state);
    }

    /// Restart after a migration: all overlay state is discarded (the
    /// paper's "kill and restart the user-level IPOP program"), the node
    /// re-binds and rejoins, keeping its overlay address and therefore its
    /// ring position.
    pub fn restart<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        local_uri: TransportUri,
        bootstrap: Vec<TransportUri>,
        sink: &mut S,
    ) {
        self.conns = ConnTable::new();
        self.linking = LinkingManager::new();
        self.pinger = PingManager::new();
        self.near = NearOverlord::new();
        self.far = FarOverlord::new();
        self.shortcut.clear();
        self.pending_ctm.clear();
        self.probe_rounds = 0;
        self.bootstrap.reset();
        self.current_introducer = None;
        self.leaf_peer = None;
        self.start(now, local_uri, bootstrap, sink);
    }

    /// Stop the node (no goodbye messages — peers find out via keepalives,
    /// exactly as when a VM is suspended).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Whether the node is running.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// The earliest time at which [`BrunetNode::on_tick`] has work to do.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if !self.running {
            return None;
        }
        let mut d = self.next_housekeeping;
        if let Some(t) = self.linking.next_deadline() {
            d = d.min(t);
        }
        if let Some(t) = self.pinger.next_deadline() {
            d = d.min(t);
        }
        d = d.min(self.near.next_deadline());
        d = d.min(self.far.next_deadline());
        Some(d)
    }

    /// Install a pre-established connection, bypassing the linking
    /// protocol. Scale harnesses use this to boot very large overlays in a
    /// known topology (a perfect ring plus far links) instead of paying a
    /// staggered 100k-node join storm; from then on the connection is
    /// indistinguishable from a linked one — it is pinged, stabilized,
    /// trimmed and shed by the normal machinery. The node must be running,
    /// and the peer must install the mirror connection itself (connections
    /// are bidirectional by construction in the linking protocol; seeding
    /// only one side leaves a half-open link the pinger will tear down).
    pub fn seed_connection(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        remote: PhysAddr,
    ) {
        assert!(self.running, "seed_connection on a stopped node");
        if peer == self.addr {
            return;
        }
        let outcome = self.conns.upsert(peer, ctype, remote, now);
        if outcome.new_peer {
            self.pinger.track(peer, now, &self.cfg);
        }
    }

    // ------------------------------------------------------------ input --

    /// Feed a received datagram.
    pub fn on_datagram<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        src: PhysAddr,
        mut data: Bytes,
        sink: &mut S,
    ) {
        if !self.running {
            return;
        }
        // Transit fast path: a canonical application frame for someone else
        // is forwarded from the received buffer — header peek, index
        // lookup, hop byte patched in place. Everything else (local
        // delivery, protocol traffic, malformed input, or a destination we
        // are nearest to) falls through to the full decode below.
        if let Ok(h) = RoutedHeader::peek(&data) {
            if h.dst != self.addr {
                match self.transit_forward(src, &h, data, sink) {
                    None => return,
                    // Routing says we are the nearest node: take the
                    // buffer back and decode for nearest-delivery.
                    Some(d) => data = d,
                }
            }
        }
        let frame = match Frame::decode(data) {
            Ok(f) => f,
            Err(_) => {
                self.stats.decode_errors += 1;
                sink.count(Counter::DroppedDecode);
                return;
            }
        };
        match frame {
            Frame::Link(msg) => self.on_link_msg(now, src, msg, sink),
            Frame::Routed(pkt) => self.on_routed(now, src, pkt, sink),
        }
    }

    /// Try to forward a peeked transit frame without decoding it. Returns
    /// `None` when the datagram was fully handled (forwarded, or dropped on
    /// TTL); returns the buffer back when routing says we are the nearest
    /// node — the caller then decodes for nearest-delivery, exactly one
    /// decode total.
    fn transit_forward<S: NodeSink + ?Sized>(
        &mut self,
        src: PhysAddr,
        h: &RoutedHeader,
        data: Bytes,
        sink: &mut S,
    ) -> Option<Bytes> {
        // Same bounce-back suppression as the decode path.
        let exclude = self.conns.peer_by_remote(src);
        let excludes: &[Address] = match &exclude {
            Some(e) => std::slice::from_ref(e),
            None => &[],
        };
        let remote = match self.conns.next_hop(self.addr, h.dst, excludes) {
            NextHop::Relay(c) => c.remote,
            NextHop::Local => return Some(data),
        };
        if h.hops >= h.ttl {
            self.stats.dropped_ttl += 1;
            sink.count(Counter::DroppedTtl);
            return None;
        }
        self.stats.forwarded += 1;
        sink.count(Counter::Forwarded);
        sink.count(Counter::TransitFastPath);
        sink.add_count(Counter::TransitBytes, data.len() as u64);
        // A freshly received datagram uniquely owns its buffer, so the hop
        // byte is patched in place and the same allocation goes back out.
        sink.send(remote, RoutedHeader::patch_hops(data, h.hops + 1));
        None
    }

    /// Drive timers up to `now`.
    pub fn on_tick<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if !self.running {
            return;
        }
        self.drive_linking(now, sink);
        self.drive_pinger(now, sink);
        self.drive_overlords(now, sink);
        if now >= self.next_housekeeping {
            self.next_housekeeping = now + HOUSEKEEPING;
            self.housekeeping(now, sink);
        }
    }

    /// Route an application payload to `dst` (the IPOP tunnel entry point).
    pub fn send_app<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        dst: Address,
        proto: u8,
        data: Bytes,
        sink: &mut S,
    ) {
        if !self.running || dst == self.addr {
            return;
        }
        self.stats.app_sent += 1;
        sink.count(Counter::AppSent);
        self.observe_traffic(now, dst, sink);
        let pkt = Packet {
            src: self.addr,
            dst,
            hops: 0,
            ttl: self.cfg.ttl,
            edge_forwarded: false,
            body: Body::App { proto, data },
        };
        self.route_packet(now, pkt, None, false, sink);
    }

    // -------------------------------------------------------- link layer --

    fn send_frame<S: NodeSink + ?Sized>(&self, to: PhysAddr, frame: Frame, sink: &mut S) {
        sink.send(to, frame.encode());
    }

    fn on_link_msg<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        src: PhysAddr,
        msg: LinkMsg,
        sink: &mut S,
    ) {
        // Endpoint roaming: a link-level message from a known peer arriving
        // from a new underlay address means its NAT mapping changed (the
        // paper's home node did this repeatedly; §VI credits the overlay
        // with re-establishing through translation changes). The message's
        // source is a proven return path — adopt it.
        let from_addr = match &msg {
            LinkMsg::LinkRequest { from, .. }
            | LinkMsg::LinkReply { from, .. }
            | LinkMsg::LinkError { from, .. }
            | LinkMsg::Ping { from, .. }
            | LinkMsg::Pong { from, .. }
            | LinkMsg::NeighborQuery { from }
            | LinkMsg::NeighborReply { from, .. } => *from,
        };
        self.conns.update_remote(from_addr, src);
        match msg {
            LinkMsg::LinkRequest {
                from,
                target,
                ctype,
                attempt,
            } => {
                if from == self.addr {
                    return; // a private-URI collision bounced our own request back
                }
                if target != self.addr && target != WILDCARD {
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::LinkError {
                            from: self.addr,
                            attempt,
                            reason: LinkErrorReason::WrongNode,
                        }),
                        sink,
                    );
                    return;
                }
                if self.conns.get(from).is_some() {
                    // Duplicate/refresh: stay idempotent.
                    self.record_conn(now, from, ctype, src, sink);
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::LinkReply {
                            from: self.addr,
                            attempt,
                            observed: src,
                        }),
                        sink,
                    );
                    self.pinger.heard(from, now, &self.cfg);
                    return;
                }
                if self.linking.has_active_attempt(from) && self.linking.unanswered_sends(from) < 3
                {
                    // The paper's race rule: tell the peer to stand down.
                    // Exception: if several of our own requests have already
                    // vanished while the peer's request reached us, their
                    // path works and ours does not (symmetric-NAT peers look
                    // exactly like this) — yield instead of deadlocking.
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::LinkError {
                            from: self.addr,
                            attempt,
                            reason: LinkErrorReason::InRace,
                        }),
                        sink,
                    );
                    return;
                }
                // Passive accept (this also covers the case where our own
                // attempt is backed off after a race: we yield to the peer).
                self.linking.satisfied(from);
                self.record_conn(now, from, ctype, src, sink);
                self.send_frame(
                    src,
                    Frame::Link(LinkMsg::LinkReply {
                        from: self.addr,
                        attempt,
                        observed: src,
                    }),
                    sink,
                );
            }
            LinkMsg::LinkReply {
                from,
                attempt,
                observed,
            } => {
                self.my_uris.learn_observed(TransportUri::udp(observed));
                let mut cmds = Vec::new();
                self.linking.on_reply(from, attempt, src, &mut cmds);
                // A wildcard (bootstrap) attempt matches by attempt id.
                let mut wildcard_peer = None;
                if cmds.is_empty() {
                    self.linking.on_reply(WILDCARD, attempt, src, &mut cmds);
                    if !cmds.is_empty() {
                        // The introducer answered: clear its demotion so the
                        // next restart tries proven-live introducers first.
                        if let Some(uri) = self.current_introducer.take() {
                            self.bootstrap.record_success(uri);
                        }
                    }
                    // Rewrite the wildcard peer to the actual responder.
                    for c in &mut cmds {
                        if let LinkCmd::Established { peer, .. } = c {
                            if *peer == WILDCARD {
                                *peer = from;
                            }
                            wildcard_peer = Some(*peer);
                        }
                    }
                }
                self.exec_link_cmds(now, cmds, sink);
                // A self-initiated wildcard join that landed while an
                // earlier leaf holds `leaf_peer` (an inbound joiner beat us,
                // or we are escaping a marooned pair) still needs its join
                // CTM — routed via the introducer that just answered, not
                // the stale leaf.
                if let Some(peer) = wildcard_peer {
                    if self.leaf_peer != Some(peer) {
                        self.send_join_ctm_via(now, peer, sink);
                    }
                }
            }
            LinkMsg::LinkError {
                from,
                attempt,
                reason,
            } => match reason {
                LinkErrorReason::InRace => {
                    sink.count(Counter::LinkRaceBackoff);
                    self.linking
                        .on_race_error(now, from, attempt, &self.cfg, &mut self.rng);
                }
                LinkErrorReason::WrongNode => {
                    self.linking.on_wrong_node(now, attempt);
                    self.drive_linking(now, sink);
                }
                LinkErrorReason::NotConnected => {
                    // Our keepalive hit a peer that no longer knows us.
                    if let Some(c) = self.conns.remove(from) {
                        if c.types.contains(ConnType::StructuredNear) {
                            self.near_lost(sink);
                        }
                        self.forget_peer(from, sink);
                    }
                }
            },
            LinkMsg::Ping { from, nonce } => {
                if self.conns.get(from).is_some() {
                    self.pinger.heard(from, now, &self.cfg);
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::Pong {
                            from: self.addr,
                            nonce,
                            observed: src,
                        }),
                        sink,
                    );
                } else {
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::LinkError {
                            from: self.addr,
                            attempt: nonce,
                            reason: LinkErrorReason::NotConnected,
                        }),
                        sink,
                    );
                }
            }
            LinkMsg::Pong {
                from,
                nonce,
                observed,
            } => {
                self.my_uris.learn_observed(TransportUri::udp(observed));
                self.pinger.on_pong(from, nonce, now, &self.cfg);
            }
            LinkMsg::NeighborQuery { from } => {
                if self.conns.get(from).is_some() {
                    self.pinger.heard(from, now, &self.cfg);
                    let mut neighbors = self.conns.nearest_cw(self.addr, self.cfg.near_per_side);
                    neighbors.extend(self.conns.nearest_ccw(self.addr, self.cfg.near_per_side));
                    neighbors.dedup();
                    self.send_frame(
                        src,
                        Frame::Link(LinkMsg::NeighborReply {
                            from: self.addr,
                            neighbors,
                            observed: src,
                        }),
                        sink,
                    );
                }
            }
            LinkMsg::NeighborReply {
                from,
                neighbors,
                observed,
            } => {
                if self.conns.get(from).is_some() {
                    // Stabilization doubles as the recurring STUN echo: a
                    // node whose NAT mapping changed relearns its public
                    // URI here within one stabilize interval.
                    self.my_uris.learn_observed(TransportUri::udp(observed));
                    self.pinger.heard(from, now, &self.cfg);
                    let mut cmds = Vec::new();
                    self.near.on_neighbor_reply(
                        self.addr,
                        &self.conns,
                        &neighbors,
                        &self.cfg,
                        &mut cmds,
                    );
                    self.exec_overlord_cmds(now, cmds, sink);
                }
            }
        }
    }

    // ------------------------------------------------------ routed layer --

    fn on_routed<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        src: PhysAddr,
        pkt: Packet,
        sink: &mut S,
    ) {
        // Suppress bouncing a packet straight back where it came from.
        let exclude = self.conns.peer_by_remote(src);
        self.route_packet(now, pkt, exclude, true, sink);
    }

    /// Forward or deliver a routed packet. `transit` marks packets that
    /// arrived from the wire (as opposed to self-originated ones), so
    /// decode-path transit forwards are visible next to the fast path's.
    fn route_packet<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        mut pkt: Packet,
        exclude: Option<Address>,
        transit: bool,
        sink: &mut S,
    ) {
        // Self-addressed CTMs (joins and ring probes) must reach the
        // nearest node *other than their source*; never forward them to
        // the source itself.
        let probe_exclude = if pkt.src == pkt.dst && matches!(pkt.body, Body::CtmRequest { .. }) {
            Some(pkt.dst)
        } else {
            None
        };
        if pkt.dst == self.addr {
            // Relay unwrapping for CTM replies addressed to us as relay.
            if let Body::CtmReply { for_node, .. } = &pkt.body {
                if *for_node != self.addr {
                    let for_node = *for_node;
                    match self.conns.get(for_node) {
                        Some(c) => {
                            let remote = c.remote;
                            pkt.dst = for_node;
                            self.send_frame(remote, Frame::Routed(pkt), sink);
                        }
                        None => {
                            self.stats.dropped_relay += 1;
                            sink.count(Counter::DroppedRelay);
                        }
                    }
                    return;
                }
            }
            self.deliver_local(now, pkt, true, sink);
            return;
        }
        // Edge-forwarded CTMs are processed where they land.
        if pkt.edge_forwarded && matches!(pkt.body, Body::CtmRequest { .. }) {
            self.deliver_local(now, pkt, false, sink);
            return;
        }
        let mut excludes = [Address::ZERO; 2];
        let mut n_excludes = 0;
        for e in [exclude, probe_exclude].into_iter().flatten() {
            excludes[n_excludes] = e;
            n_excludes += 1;
        }
        match self
            .conns
            .next_hop(self.addr, pkt.dst, &excludes[..n_excludes])
        {
            NextHop::Relay(c) => {
                if pkt.hops >= pkt.ttl {
                    self.stats.dropped_ttl += 1;
                    sink.count(Counter::DroppedTtl);
                    return;
                }
                pkt.hops += 1;
                let remote = c.remote;
                self.stats.forwarded += 1;
                sink.count(Counter::Forwarded);
                let frame = Frame::Routed(pkt).encode();
                if transit {
                    sink.count(Counter::TransitSlowPath);
                    sink.add_count(Counter::TransitBytes, frame.len() as u64);
                }
                sink.send(remote, frame);
            }
            NextHop::Local => self.deliver_local(now, pkt, false, sink),
        }
    }

    fn deliver_local<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        pkt: Packet,
        exact: bool,
        sink: &mut S,
    ) {
        match pkt.body {
            Body::CtmRequest {
                token,
                ctype,
                uris,
                reply_relay,
            } => {
                if pkt.src == self.addr {
                    // Our own join CTM came back: we are the nearest node —
                    // an overlay of one. Nothing to connect to yet.
                    return;
                }
                // Answer with our URIs. A requester we already hold a
                // connection to — the usual case for a ring probe that
                // confirms its successor — gets the reply as one frame over
                // that connection. Otherwise it is routed, through the
                // requester's relay if it named one: the relay exists for a
                // responder with no link to the requester yet.
                let mut reply = Packet {
                    src: self.addr,
                    dst: pkt.src,
                    hops: 0,
                    ttl: self.cfg.ttl,
                    edge_forwarded: false,
                    body: Body::CtmReply {
                        token,
                        responder: self.addr,
                        uris: self.advertised_uris(),
                        for_node: pkt.src,
                    },
                };
                match self.conns.get(pkt.src) {
                    Some(c) => {
                        let remote = c.remote;
                        self.send_frame(remote, Frame::Routed(reply), sink);
                    }
                    None => {
                        reply.dst = reply_relay.unwrap_or(pkt.src);
                        self.route_packet(now, reply, None, false, sink);
                    }
                }
                // Start linking toward the requester (bidirectional rule).
                self.connect_to(now, pkt.src, ctype, uris.clone(), sink);
                // Nearest-delivery join semantics: hand one copy to the
                // neighbour on the other side of the requested address so
                // both future ring neighbours answer.
                if !exact && !pkt.edge_forwarded {
                    let dst_is_cw = self.addr.dist_cw(pkt.dst) <= pkt.dst.dist_cw(self.addr);
                    let other_side = if dst_is_cw {
                        self.conns.nearest_cw(pkt.dst, 2)
                    } else {
                        self.conns.nearest_ccw(pkt.dst, 2)
                    };
                    if let Some(&n) = other_side.iter().find(|&&n| n != pkt.src) {
                        {
                            if let Some(c) = self.conns.get(n) {
                                let fwd = Packet {
                                    edge_forwarded: true,
                                    hops: pkt.hops.saturating_add(1),
                                    body: Body::CtmRequest {
                                        token,
                                        ctype,
                                        uris,
                                        reply_relay,
                                    },
                                    ..pkt
                                };
                                self.send_frame(c.remote, Frame::Routed(fwd), sink);
                            }
                        }
                    }
                }
            }
            Body::CtmReply {
                token,
                responder,
                uris,
                ..
            } => {
                let Some(pending) = self.pending_ctm.get(&token) else {
                    return; // stale or duplicate
                };
                let ctype = pending.ctype;
                self.connect_to(now, responder, ctype, uris, sink);
            }
            Body::App { proto, data } => {
                if exact {
                    self.stats.delivered += 1;
                    self.stats.hops_sum += u64::from(pkt.hops);
                    sink.count(Counter::DeliveredExact);
                    self.observe_traffic(now, pkt.src, sink);
                } else {
                    self.stats.delivered_nearest += 1;
                    sink.count(Counter::DeliveredNearest);
                }
                sink.event(NodeEvent::Deliver {
                    src: pkt.src,
                    proto,
                    data,
                    exact,
                });
            }
        }
    }

    // -------------------------------------------------- protocol drivers --

    /// Establish (or upgrade) a connection to `peer` using its URI list.
    fn connect_to<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        uris: Vec<TransportUri>,
        sink: &mut S,
    ) {
        if peer == self.addr {
            return;
        }
        if let Some(c) = self.conns.get(peer) {
            let remote = c.remote;
            self.record_conn(now, peer, ctype, remote, sink);
            return;
        }
        if self.linking.has_attempt(peer) {
            return;
        }
        self.linking.start(now, peer, ctype, uris);
        self.drive_linking(now, sink);
    }

    /// Record an established connection / added role, and emit events.
    fn record_conn<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        remote: PhysAddr,
        sink: &mut S,
    ) {
        let outcome = self.conns.upsert(peer, ctype, remote, now);
        if outcome.new_peer {
            self.pinger.track(peer, now, &self.cfg);
            // Any directly linked peer has proven it can introduce us:
            // remember it, so the cache survives introducer loss (and a
            // seed node with an empty configured list can still rejoin).
            self.bootstrap
                .learn(TransportUri::udp(remote), MAX_INTRODUCERS);
        }
        if outcome.new_role {
            if ctype == ConnType::StructuredNear {
                sink.count(Counter::NearLinked);
                self.near.near_set_changed();
                // Push gossip: ask the new neighbour who it sees *now*,
                // instead of waiting a stabilize round. A peer outside its
                // horizon links us and trims us again within one of its own
                // stabilize polls; the periodic query loses that race every
                // time, so the nodes it knows between us — often our true
                // ring neighbours — would never reach us. The immediate
                // round-trip lands well inside the trim window.
                self.send_frame(
                    remote,
                    Frame::Link(LinkMsg::NeighborQuery { from: self.addr }),
                    sink,
                );
            }
            sink.event(NodeEvent::Connected { peer, ctype });
        }
        if ctype == ConnType::Leaf && self.leaf_peer.is_none() {
            self.leaf_peer = Some(peer);
            self.send_join_ctm(now, sink);
        }
    }

    /// The one teardown for a peer whose connection is gone — keepalive
    /// timeout, its `NotConnected`, or our own trim: stop pinging it,
    /// report the disconnect and free the leaf slot. A joiner that kept a
    /// dead leaf would route every join retry into a relay it no longer
    /// holds, and `Rebootstrap` waits for an empty slot, so it would never
    /// dial an introducer again.
    fn forget_peer<S: NodeSink + ?Sized>(&mut self, peer: Address, sink: &mut S) {
        self.pinger.untrack(peer);
        sink.event(NodeEvent::Disconnected { peer });
        if self.leaf_peer == Some(peer) {
            self.leaf_peer = None;
        }
    }

    /// A structured-near role is gone — keepalive timeout, the peer's
    /// `NotConnected`, or our own trim: count it and probe the ring again
    /// at the next stabilize round.
    fn near_lost<S: NodeSink + ?Sized>(&mut self, sink: &mut S) {
        sink.count(Counter::NearLost);
        self.near.near_set_changed();
    }

    /// Send the self-addressed CTM that discovers our ring neighbours.
    fn send_join_ctm<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let Some(leaf) = self.leaf_peer else {
            return;
        };
        self.send_join_ctm_via(now, leaf, sink);
    }

    /// Send the join CTM via a specific directly-connected relay.
    ///
    /// A wildcard join completed while an earlier leaf already exists (an
    /// inbound joiner grabbed `leaf_peer` first, or the node is escaping a
    /// marooned pair) must route its CTM through the *new* introducer: the
    /// stale `leaf_peer` would bounce it around the old component.
    fn send_join_ctm_via<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        relay: Address,
        sink: &mut S,
    ) {
        let Some(c) = self.conns.get(relay) else {
            return;
        };
        let remote = c.remote;
        let token = self.alloc_ctm(
            now,
            self.addr,
            ConnType::StructuredNear,
            Counter::CtmJoin,
            sink,
        );
        let pkt = Packet {
            src: self.addr,
            dst: self.addr,
            hops: 0,
            ttl: self.cfg.ttl,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token,
                ctype: ConnType::StructuredNear,
                uris: self.advertised_uris(),
                reply_relay: Some(relay),
            },
        };
        self.send_frame(remote, Frame::Routed(pkt), sink);
    }

    /// Send a routed CTM to a target address.
    fn send_ctm<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        target: Address,
        ctype: ConnType,
        sink: &mut S,
    ) {
        let kind = match ctype {
            ConnType::Shortcut => Counter::CtmShortcut,
            ConnType::StructuredFar => Counter::CtmFar,
            _ => Counter::CtmNear,
        };
        let token = self.alloc_ctm(now, target, ctype, kind, sink);
        let pkt = Packet {
            src: self.addr,
            dst: target,
            hops: 0,
            ttl: self.cfg.ttl,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token,
                ctype,
                uris: self.advertised_uris(),
                reply_relay: None,
            },
        };
        self.route_packet(now, pkt, None, false, sink);
    }

    /// Verify our ring position: a self-addressed CTM launched through a
    /// random direct connection. Routing excludes the source, so the
    /// probe lands on the true nearest *other* node — escaping the local
    /// optima that neighbour-of-neighbour stabilization alone can reach
    /// when a mass join leaves a node with distant "near" links.
    ///
    /// Every connection type is a candidate entry point, leaves included.
    /// That matters for ring *merges*: a flash crowd of concurrent joins
    /// can interleave two complete rings over the same address space, and
    /// within either ring gossip, far-link CTMs and greedy-routed probes
    /// are all trapped (each mechanism only ever reaches the ring it
    /// started in). A joiner's leaf to its introducer is often the one
    /// edge that crosses the split; a probe injected through it greedy-
    /// routes over the *other* ring, finds that ring's nearest-to-us node,
    /// links it, and seeds the merge that stabilization then propagates.
    ///
    /// Cadence: the near overlord launches a probe on the first stabilize
    /// round, then doubles the wait after each one up to 8 rounds, and
    /// drops back to every round whenever the structured-near set changes;
    /// a node with no near link yet probes every round.
    /// On a converged ring a probe only confirms a successor we already
    /// hold, and that successor answers over its connection to us, so the
    /// steady-state cost is the request's hops plus two one-hop replies
    /// once per 8 rounds. A probe that does find a new neighbour links it,
    /// and that link is itself a near-set change.
    fn send_ring_probe<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        use rand::seq::IteratorRandom;
        self.probe_rounds = self.probe_rounds.wrapping_add(1);
        // Every 4th probe enters through a cached introducer endpoint we
        // hold no connection to. Connection-entry probes cannot escape a
        // component with no outbound edges: after a long partition heals,
        // each side is a complete, self-consistent ring over the same
        // address space, every cross-ring connection long since reaped by
        // keepalives — and a probe injected anywhere in our own component
        // terminates at a node that already knows us. The introducer cache
        // predates the partition, so its endpoints land in *either* ring;
        // the probe greedy-routes over whichever component answers, and its
        // terminal links back to us (the CTM carries our URIs), seeding the
        // merge. No reply relay: the responder dials us directly.
        if self.probe_rounds % 4 == 0 {
            let own = self.advertised_uris();
            let entry = self
                .bootstrap
                .uris()
                .into_iter()
                .filter(|u| self.conns.peer_by_remote(u.addr).is_none() && !own.contains(u))
                .choose(&mut self.rng);
            if let Some(uri) = entry {
                let token = self.alloc_ctm(
                    now,
                    self.addr,
                    ConnType::StructuredNear,
                    Counter::CtmRingProbe,
                    sink,
                );
                let pkt = Packet {
                    src: self.addr,
                    dst: self.addr,
                    hops: 0,
                    ttl: self.cfg.ttl,
                    edge_forwarded: false,
                    body: Body::CtmRequest {
                        token,
                        ctype: ConnType::StructuredNear,
                        uris: self.advertised_uris(),
                        reply_relay: None,
                    },
                };
                self.send_frame(uri.addr, Frame::Routed(pkt), sink);
                return;
            }
        }
        let Some((relay_peer, first_hop)) = self
            .conns
            .iter()
            .map(|c| (c.peer, c.remote))
            .choose(&mut self.rng)
        else {
            return;
        };
        let token = self.alloc_ctm(
            now,
            self.addr,
            ConnType::StructuredNear,
            Counter::CtmRingProbe,
            sink,
        );
        let pkt = Packet {
            src: self.addr,
            dst: self.addr,
            hops: 0,
            ttl: self.cfg.ttl,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token,
                ctype: ConnType::StructuredNear,
                uris: self.advertised_uris(),
                // A responder with no link to us replies through the
                // first-hop peer, which has a proven direct link to us.
                // Routing the reply straight to our address could dead-end
                // at the very successor the probe exists to discover.
                // Responders we are linked to answer directly.
                reply_relay: Some(relay_peer),
            },
        };
        self.send_frame(first_hop, Frame::Routed(pkt), sink);
    }

    fn alloc_ctm<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        target: Address,
        ctype: ConnType,
        kind: Counter,
        sink: &mut S,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.stats.ctm_sent += 1;
        sink.count(kind);
        self.pending_ctm.insert(
            token,
            PendingCtm {
                target,
                ctype,
                expires: now + CTM_TIMEOUT,
            },
        );
        token
    }

    fn has_pending_ctm(&self, target: Address) -> bool {
        self.pending_ctm.values().any(|p| p.target == target)
    }

    fn pending_far_count(&self) -> usize {
        self.pending_ctm
            .values()
            .filter(|p| p.ctype == ConnType::StructuredFar)
            .count()
    }

    /// Count one tunnelled packet to/from `peer` and trigger a shortcut CTM
    /// when the score rule fires.
    fn observe_traffic<S: NodeSink + ?Sized>(&mut self, now: SimTime, peer: Address, sink: &mut S) {
        let crossed = self.shortcut.on_traffic(now, peer, &self.cfg);
        if !crossed {
            return;
        }
        sink.count(Counter::ShortcutCross);
        if self.cfg.max_shortcuts == 0 {
            return;
        }
        if let Some(c) = self.conns.get(peer) {
            if !c.types.contains(ConnType::Shortcut) {
                // Already directly linked for another reason; claim the
                // shortcut role so the idle logic manages it.
                let remote = c.remote;
                self.record_conn(now, peer, ConnType::Shortcut, remote, sink);
            }
            return;
        }
        let shortcuts = self.conns.with_type(ConnType::Shortcut).count();
        if shortcuts >= self.cfg.max_shortcuts
            || self.has_pending_ctm(peer)
            || self.linking.has_attempt(peer)
        {
            return;
        }
        self.send_ctm(now, peer, ConnType::Shortcut, sink);
    }

    fn drive_linking<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.linking.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        let mut cmds = Vec::new();
        self.linking.poll(now, &self.cfg, &mut cmds);
        self.exec_link_cmds(now, cmds, sink);
    }

    fn exec_link_cmds<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        cmds: Vec<LinkCmd>,
        sink: &mut S,
    ) {
        for cmd in cmds {
            match cmd {
                LinkCmd::SendRequest {
                    to,
                    target,
                    ctype,
                    attempt,
                } => {
                    sink.count(Counter::LinkRequestSent);
                    self.send_frame(
                        to,
                        Frame::Link(LinkMsg::LinkRequest {
                            from: self.addr,
                            target,
                            ctype,
                            attempt,
                        }),
                        sink,
                    );
                }
                LinkCmd::Established {
                    peer,
                    ctype,
                    remote,
                } => {
                    sink.count(Counter::LinkEstablished);
                    self.record_conn(now, peer, ctype, remote, sink);
                }
                LinkCmd::Failed { peer, ctype } => {
                    sink.count(Counter::LinkFailed);
                    sink.event(NodeEvent::LinkFailed { peer, ctype });
                    if peer == WILDCARD {
                        // The introducer funnel collapsed: demote the
                        // candidate and fall through the cache. A fresh
                        // attempt cannot fail on its first poll, so the
                        // recursion terminates.
                        if let Some(uri) = self.current_introducer.take() {
                            self.bootstrap.record_failure(uri, now, INTRODUCER_BACKOFF);
                        }
                        if self.bootstrap.len() > 1 {
                            sink.count(Counter::IntroducerFallback);
                            self.try_bootstrap(now, sink);
                        }
                    }
                }
            }
        }
    }

    fn drive_pinger<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.pinger.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        let mut cmds = Vec::new();
        self.pinger.poll(now, &self.cfg, &mut cmds);
        for cmd in cmds {
            match cmd {
                PingCmd::SendPing { peer, nonce } => {
                    if let Some(c) = self.conns.get(peer) {
                        let remote = c.remote;
                        self.send_frame(
                            remote,
                            Frame::Link(LinkMsg::Ping {
                                from: self.addr,
                                nonce,
                            }),
                            sink,
                        );
                    } else {
                        self.pinger.untrack(peer);
                    }
                }
                PingCmd::Dead { peer } => {
                    if let Some(c) = self.conns.remove(peer) {
                        if c.types.contains(ConnType::StructuredNear) {
                            self.near_lost(sink);
                        }
                        sink.count(Counter::PeerDead);
                        self.forget_peer(peer, sink);
                    }
                }
            }
        }
    }

    fn drive_overlords<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let near_due = now >= self.near.next_deadline();
        let far_due = now >= self.far.next_deadline();
        if !near_due && !far_due {
            return;
        }
        let mut cmds = Vec::new();
        self.near
            .poll(now, self.addr, &self.conns, &self.cfg, &mut cmds);
        if far_due {
            // The census walks every pending CTM; only a due poll reads it.
            let pending = self.pending_far_count();
            self.far.poll(
                now,
                self.addr,
                &self.conns,
                pending,
                &self.cfg,
                &mut self.rng,
                &mut cmds,
            );
        }
        self.exec_overlord_cmds(now, cmds, sink);
    }

    fn exec_overlord_cmds<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        cmds: Vec<OverlordCmd>,
        sink: &mut S,
    ) {
        for cmd in cmds {
            match cmd {
                OverlordCmd::RequestCtm { target, ctype } => {
                    if target == self.addr {
                        continue;
                    }
                    if let Some(c) = self.conns.get(target) {
                        // Linked already, for another role: claim this one
                        // on the connection we have, as `connect_to` does.
                        let remote = c.remote;
                        self.record_conn(now, target, ctype, remote, sink);
                    } else if !self.has_pending_ctm(target) && !self.linking.has_attempt(target) {
                        self.send_ctm(now, target, ctype, sink);
                    }
                }
                OverlordCmd::DropRole { peer, ctype } => {
                    if ctype == ConnType::StructuredNear
                        && self
                            .conns
                            .get(peer)
                            .is_some_and(|c| c.types.contains(ConnType::StructuredNear))
                    {
                        self.near_lost(sink);
                    }
                    let remote = self.conns.get(peer).map(|c| c.remote);
                    if self.conns.remove_role(peer, ctype) {
                        self.forget_peer(peer, sink);
                        // Tell the peer it was dropped so it sheds its half
                        // too. A silent trim leaves the peer with a one-way
                        // connection: its queries and probes to us go
                        // unanswered (we no longer know it), yet our linking
                        // traffic keeps refreshing its keepalive — a phantom
                        // that can anchor its ring view on the wrong
                        // neighbour indefinitely.
                        if let Some(remote) = remote {
                            self.send_frame(
                                remote,
                                Frame::Link(LinkMsg::LinkError {
                                    from: self.addr,
                                    attempt: 0,
                                    reason: LinkErrorReason::NotConnected,
                                }),
                                sink,
                            );
                        }
                    }
                }
                OverlordCmd::RingProbe => self.send_ring_probe(now, sink),
                OverlordCmd::Rebootstrap => {
                    // Only honoured when the node really has fallen off the
                    // overlay: no connections of any kind and no join in
                    // flight.
                    if !self.is_routable() && self.leaf_peer.is_none() && self.conns.is_empty() {
                        self.try_bootstrap(now, sink);
                    }
                }
                OverlordCmd::SendNeighborQuery { peer } => {
                    if let Some(c) = self.conns.get(peer) {
                        let remote = c.remote;
                        self.send_frame(
                            remote,
                            Frame::Link(LinkMsg::NeighborQuery { from: self.addr }),
                            sink,
                        );
                    }
                }
            }
        }
    }

    fn housekeeping<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        self.pending_ctm.retain(|_, p| p.expires > now);
        // Shortcut idle release.
        let mut cmds = Vec::new();
        self.shortcut.poll(now, &self.conns, &mut cmds);
        self.exec_overlord_cmds(now, cmds, sink);
        // Join retry: not yet routable and the retry timer elapsed.
        if !self.is_routable() && now >= self.next_join_attempt {
            self.next_join_attempt = now + self.cfg.join_retry;
            if self.leaf_peer.is_some() {
                self.send_join_ctm(now, sink);
            } else if self.conns.with_type(ConnType::Leaf).next().is_none() {
                self.try_bootstrap(now, sink);
            }
        } else if self.conns.len() == 1 && self.bootstrap.len() > 1 && now >= self.next_join_attempt
        {
            // Marooned-pair escape. Two nodes that bootstrap through each
            // other while both are isolated form a private 2-ring: each is
            // "routable" (it has a structured-near link), so neither would
            // ever dial an introducer again and the split is stable. A node
            // whose entire neighborhood is one single peer therefore keeps
            // probing its introducer cache on the join-retry cadence; the
            // probe is a no-op for a genuine 2-node overlay (the cache
            // holds only the peer) and merges the rings otherwise.
            self.next_join_attempt = now + self.cfg.join_retry;
            self.try_bootstrap(now, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use crate::telemetry::TelemetryCounters;
    use wow_netsim::addr::PhysIp;

    /// The unit-test sink: buffers frames and events, accumulates counters.
    #[derive(Debug, Default)]
    struct TestSink {
        frames: Vec<(PhysAddr, Bytes)>,
        events: Vec<NodeEvent>,
        counters: TelemetryCounters,
    }

    impl TestSink {
        fn new() -> Self {
            TestSink::default()
        }

        /// Drain the buffered frames, decoded.
        fn take_sends(&mut self) -> Vec<(PhysAddr, Frame)> {
            self.frames
                .drain(..)
                .map(|(to, frame)| (to, Frame::decode(frame).expect("decode")))
                .collect()
        }

        /// Drain the buffered events.
        fn take_events(&mut self) -> Vec<NodeEvent> {
            std::mem::take(&mut self.events)
        }

        /// Discard everything buffered so far (counters keep accumulating).
        fn clear(&mut self) {
            self.frames.clear();
            self.events.clear();
        }

        fn is_empty(&self) -> bool {
            self.frames.is_empty() && self.events.is_empty()
        }
    }

    impl NodeSink for TestSink {
        fn send(&mut self, to: PhysAddr, frame: Bytes) {
            self.frames.push((to, frame));
        }

        fn event(&mut self, event: NodeEvent) {
            self.events.push(event);
        }

        fn count(&mut self, counter: Counter) {
            self.counters.record(counter);
        }

        fn add_count(&mut self, counter: Counter, n: u64) {
            self.counters.add(counter, n);
        }
    }

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn ep(last: u8, port: u16) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, 0, last), port)
    }

    fn uri(last: u8, port: u16) -> TransportUri {
        TransportUri::udp(ep(last, port))
    }

    const T0: SimTime = SimTime::ZERO;

    fn started(addr: Address, bootstrap: Vec<TransportUri>) -> (BrunetNode, TestSink) {
        let mut n = BrunetNode::new(addr, OverlayConfig::default(), 7);
        let mut sk = TestSink::new();
        n.start(T0, uri(1, 4000), bootstrap, &mut sk);
        (n, sk)
    }

    #[test]
    fn first_node_idles_without_bootstrap() {
        let (n, mut sk) = started(a(100), Vec::new());
        assert!(sk.take_sends().is_empty());
        assert!(!n.is_routable());
    }

    #[test]
    fn start_sends_wildcard_link_request_to_bootstrap() {
        let (_n, mut sk) = started(a(100), vec![uri(9, 4000)]);
        let s = sk.take_sends();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, ep(9, 4000));
        match &s[0].1 {
            Frame::Link(LinkMsg::LinkRequest { target, ctype, .. }) => {
                assert_eq!(*target, WILDCARD);
                assert_eq!(*ctype, ConnType::Leaf);
            }
            other => panic!("expected link request, got {other:?}"),
        }
        assert_eq!(sk.counters.get(Counter::LinkRequestSent), 1);
    }

    #[test]
    fn leaf_reply_triggers_join_ctm_via_leaf() {
        let (mut n, mut sk) = started(a(100), vec![uri(9, 4000)]);
        sk.clear();
        // Bootstrap (addr 500) replies.
        n.on_datagram(
            T0 + SimDuration::from_millis(50),
            ep(9, 4000),
            Frame::Link(LinkMsg::LinkReply {
                from: a(500),
                attempt: 0,
                observed: ep(77, 1234), // our NAT mapping as seen by them
            })
            .encode(),
            &mut sk,
        );
        // Learned the observed URI.
        assert!(n
            .advertised_uris()
            .contains(&TransportUri::udp(ep(77, 1234))));
        // Connected event for the leaf + a routed self-CTM via the leaf.
        assert!(sk.take_events().iter().any(
            |x| matches!(x, NodeEvent::Connected { peer, ctype: ConnType::Leaf } if *peer == a(500))
        ));
        let s = sk.take_sends();
        let routed: Vec<_> = s
            .iter()
            .filter_map(|(to, f)| match f {
                Frame::Routed(p) => Some((to, p.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(routed.len(), 1);
        let (to, pkt) = &routed[0];
        assert_eq!(**to, ep(9, 4000));
        assert_eq!(pkt.dst, a(100), "self-addressed");
        match &pkt.body {
            Body::CtmRequest {
                ctype, reply_relay, ..
            } => {
                assert_eq!(*ctype, ConnType::StructuredNear);
                assert_eq!(*reply_relay, Some(a(500)));
            }
            other => panic!("expected CTM request, got {other:?}"),
        }
        assert_eq!(sk.counters.get(Counter::CtmJoin), 1);
        assert_eq!(sk.counters.get(Counter::LinkEstablished), 1);
    }

    #[test]
    fn nearest_node_answers_join_ctm_and_links_back() {
        // Node 500 is in a ring with near conns to 400 and 600; a joiner at
        // 520 CTMs via a relay (700). 500 should reply via the relay, start
        // linking to 520, and edge-forward to 600 (the other side of 520).
        let (mut n, mut sk) = started(a(500), Vec::new());
        n.record_conn(T0, a(400), ConnType::StructuredNear, ep(40, 1), &mut sk);
        n.record_conn(T0, a(600), ConnType::StructuredNear, ep(60, 1), &mut sk);
        n.record_conn(T0, a(700), ConnType::StructuredFar, ep(70, 1), &mut sk);
        sk.clear();
        let ctm = Packet {
            src: a(520),
            dst: a(520),
            hops: 2,
            ttl: 64,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token: 5,
                ctype: ConnType::StructuredNear,
                uris: vec![uri(52, 4000)],
                reply_relay: Some(a(700)),
            },
        };
        n.on_datagram(T0, ep(70, 1), Frame::Routed(ctm).encode(), &mut sk);
        let s = sk.take_sends();
        // 1: CTM reply routed toward the relay 700.
        let reply = s
            .iter()
            .find_map(|(to, f)| match f {
                Frame::Routed(p) => match &p.body {
                    Body::CtmReply { for_node, .. } => Some((*to, p.dst, *for_node)),
                    _ => None,
                },
                _ => None,
            })
            .expect("ctm reply sent");
        assert_eq!(reply.1, a(700));
        assert_eq!(reply.2, a(520));
        // 2: linking begins toward the joiner's URI.
        assert!(s.iter().any(|(to, f)| matches!(f,
            Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == a(520))
            && *to == ep(52, 4000)));
        // 3: edge-forward of the CTM to 600.
        assert!(s.iter().any(|(to, f)| matches!(f,
            Frame::Routed(p) if p.edge_forwarded && matches!(p.body, Body::CtmRequest { .. }))
            && *to == ep(60, 1)));
    }

    #[test]
    fn greedy_forwarding_decrements_budget_and_picks_closest() {
        let (mut n, mut sk) = started(a(0), Vec::new());
        n.record_conn(T0, a(1000), ConnType::StructuredNear, ep(10, 1), &mut sk);
        n.record_conn(T0, a(5000), ConnType::StructuredFar, ep(50, 1), &mut sk);
        sk.clear();
        let pkt = Packet {
            src: a(9999),
            dst: a(4800),
            hops: 3,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 1,
                data: Bytes::from_static(b"x"),
            },
        };
        n.on_datagram(T0, ep(99, 9), Frame::Routed(pkt).encode(), &mut sk);
        let s = sk.take_sends();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, ep(50, 1), "far link is closest to 4800");
        match &s[0].1 {
            Frame::Routed(p) => assert_eq!(p.hops, 4),
            other => panic!("expected routed, got {other:?}"),
        }
        assert_eq!(n.stats().forwarded, 1);
        assert_eq!(sk.counters.get(Counter::Forwarded), 1);
    }

    #[test]
    fn ttl_exhaustion_drops() {
        let (mut n, mut sk) = started(a(0), Vec::new());
        n.record_conn(T0, a(5000), ConnType::StructuredFar, ep(50, 1), &mut sk);
        sk.clear();
        let pkt = Packet {
            src: a(9999),
            dst: a(4800),
            hops: 64,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 1,
                data: Bytes::from_static(b"x"),
            },
        };
        n.on_datagram(T0, ep(99, 9), Frame::Routed(pkt).encode(), &mut sk);
        assert!(sk.take_sends().is_empty());
        assert_eq!(n.stats().dropped_ttl, 1);
        assert_eq!(sk.counters.get(Counter::DroppedTtl), 1);
        assert_eq!(sk.counters.dropped_total(), 1);
    }

    #[test]
    fn exact_delivery_vs_nearest_delivery() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(5000), ConnType::StructuredNear, ep(50, 1), &mut sk);
        sk.clear();
        // Exact.
        let exact = Packet {
            src: a(5000),
            dst: a(100),
            hops: 1,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 7,
                data: Bytes::from_static(b"hello"),
            },
        };
        n.on_datagram(T0, ep(50, 1), Frame::Routed(exact).encode(), &mut sk);
        let ev = sk.take_events();
        assert!(ev.iter().any(|x| matches!(x,
            NodeEvent::Deliver { src, proto: 7, exact: true, .. } if *src == a(5000))));
        // Nearest: dst 120 does not exist; we hold the closest address.
        let near = Packet {
            src: a(5000),
            dst: a(120),
            hops: 1,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: 7,
                data: Bytes::from_static(b"stray"),
            },
        };
        n.on_datagram(T0, ep(50, 1), Frame::Routed(near).encode(), &mut sk);
        let ev = sk.take_events();
        assert!(ev
            .iter()
            .any(|x| matches!(x, NodeEvent::Deliver { exact: false, .. })));
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.stats().delivered_nearest, 1);
        assert_eq!(sk.counters.get(Counter::DeliveredExact), 1);
        assert_eq!(sk.counters.get(Counter::DeliveredNearest), 1);
    }

    #[test]
    fn race_request_gets_in_race_error() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        // Start an active attempt to 200.
        n.connect_to(T0, a(200), ConnType::Shortcut, vec![uri(20, 1)], &mut sk);
        sk.clear();
        // 200's own request arrives.
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::LinkRequest {
                from: a(200),
                target: a(100),
                ctype: ConnType::Shortcut,
                attempt: 9,
            })
            .encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        assert!(s.iter().any(|(_, f)| matches!(
            f,
            Frame::Link(LinkMsg::LinkError {
                reason: LinkErrorReason::InRace,
                attempt: 9,
                ..
            })
        )));
        // We did NOT record a connection.
        assert!(!n.has_direct(a(200)));
    }

    #[test]
    fn wrong_node_request_is_rejected() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        sk.clear();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::LinkRequest {
                from: a(200),
                target: a(999), // not us
                ctype: ConnType::Leaf,
                attempt: 3,
            })
            .encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        assert!(s.iter().any(|(_, f)| matches!(
            f,
            Frame::Link(LinkMsg::LinkError {
                reason: LinkErrorReason::WrongNode,
                ..
            })
        )));
    }

    #[test]
    fn passive_accept_records_connection_and_replies() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        sk.clear();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::LinkRequest {
                from: a(200),
                target: a(100),
                ctype: ConnType::StructuredNear,
                attempt: 3,
            })
            .encode(),
            &mut sk,
        );
        assert!(n.has_direct(a(200)));
        assert!(sk.take_events().iter().any(|x| matches!(x,
            NodeEvent::Connected { peer, ctype: ConnType::StructuredNear } if *peer == a(200))));
        let s = sk.take_sends();
        assert!(s.iter().any(|(to, f)| matches!(f,
            Frame::Link(LinkMsg::LinkReply { attempt: 3, observed, .. }) if *observed == ep(20, 1))
            && *to == ep(20, 1)));
        assert!(n.is_routable());
    }

    #[test]
    fn ping_from_stranger_answered_not_connected() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        sk.clear();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::Ping {
                from: a(200),
                nonce: 4,
            })
            .encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        assert!(s.iter().any(|(_, f)| matches!(
            f,
            Frame::Link(LinkMsg::LinkError {
                reason: LinkErrorReason::NotConnected,
                ..
            })
        )));
    }

    #[test]
    fn not_connected_error_drops_our_state() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::Shortcut, ep(20, 1), &mut sk);
        sk.clear();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::LinkError {
                from: a(200),
                attempt: 0,
                reason: LinkErrorReason::NotConnected,
            })
            .encode(),
            &mut sk,
        );
        assert!(!n.has_direct(a(200)));
        assert!(sk.take_events().iter().any(|x| matches!(x,
            NodeEvent::Disconnected { peer } if *peer == a(200))));
    }

    #[test]
    fn leaf_not_connected_sends_the_joiner_back_to_its_introducers() {
        // A joiner's only link is its leaf. The leaf restarts clean-slate
        // and answers our keepalive with NotConnected; the dead leaf can
        // relay no join CTM, so the join retry must dial the introducers.
        let (mut n, mut sk) = started(a(100), vec![uri(9, 4000)]);
        n.on_datagram(
            T0 + SimDuration::from_millis(50),
            ep(9, 4000),
            Frame::Link(LinkMsg::LinkReply {
                from: a(500),
                attempt: 0,
                observed: ep(77, 1234),
            })
            .encode(),
            &mut sk,
        );
        let lost = T0 + SimDuration::from_secs(1);
        n.on_datagram(
            lost,
            ep(9, 4000),
            Frame::Link(LinkMsg::LinkError {
                from: a(500),
                attempt: 0,
                reason: LinkErrorReason::NotConnected,
            })
            .encode(),
            &mut sk,
        );
        assert!(!n.has_direct(a(500)));
        sk.clear();
        let bound = lost + n.config().join_retry + HOUSEKEEPING;
        let mut rejoined = false;
        for _ in 0..64 {
            let Some(t) = n.next_deadline().filter(|&t| t <= bound) else {
                break;
            };
            n.on_tick(t, &mut sk);
            rejoined |= sk.take_sends().iter().any(|(to, f)| {
                *to == ep(9, 4000)
                    && matches!(f, Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD)
            });
        }
        assert!(
            rejoined,
            "no wildcard link request within one join retry plus one housekeeping tick"
        );
    }

    #[test]
    fn dead_peer_detected_by_keepalive_timeouts() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::StructuredNear, ep(20, 1), &mut sk);
        sk.clear();
        // Let keepalives run with no answers until the conn dies.
        let mut t = T0;
        let mut dead = false;
        for _ in 0..64 {
            let Some(next) = n.next_deadline() else { break };
            t = next;
            n.on_tick(t, &mut sk);
            let died = sk
                .take_events()
                .iter()
                .any(|x| matches!(x, NodeEvent::Disconnected { peer } if *peer == a(200)));
            sk.clear();
            if died {
                dead = true;
                break;
            }
        }
        assert!(dead, "unanswered pings must kill the connection");
        // interval 15 + 2+4+8+16 backoff ≈ 45 s.
        assert!(
            t >= SimTime::from_secs(40) && t <= SimTime::from_secs(60),
            "died at {t}"
        );
        assert_eq!(sk.counters.get(Counter::PeerDead), 1);
    }

    #[test]
    fn sustained_app_traffic_triggers_shortcut_ctm() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(90_000), ConnType::StructuredNear, ep(90, 1), &mut sk);
        sk.clear();
        let peer = a(70_000);
        let mut ctm_seen = false;
        for i in 0..200u64 {
            let t = T0 + SimDuration::from_millis(i * 500);
            n.send_app(t, peer, 1, Bytes::from_static(b"data"), &mut sk);
            let s = sk.take_sends();
            if s.iter().any(|(_, f)| {
                matches!(f,
                Frame::Routed(p) if matches!(&p.body,
                    Body::CtmRequest { ctype: ConnType::Shortcut, .. }) && p.dst == peer)
            }) {
                ctm_seen = true;
                break;
            }
        }
        assert!(ctm_seen, "2 pkt/s must cross the shortcut threshold");
        assert_eq!(sk.counters.get(Counter::ShortcutCross), 1);
        assert_eq!(sk.counters.get(Counter::CtmShortcut), 1);
    }

    #[test]
    fn shortcuts_disabled_never_requests() {
        let cfg = OverlayConfig::default().without_shortcuts();
        let mut n = BrunetNode::new(a(100), cfg, 7);
        let mut sk = TestSink::new();
        n.start(T0, uri(1, 4000), Vec::new(), &mut sk);
        n.record_conn(T0, a(90_000), ConnType::StructuredNear, ep(90, 1), &mut sk);
        sk.clear();
        for i in 0..500u64 {
            let t = T0 + SimDuration::from_millis(i * 100);
            n.send_app(t, a(70_000), 1, Bytes::from_static(b"data"), &mut sk);
            let s = sk.take_sends();
            assert!(!s.iter().any(|(_, f)| matches!(f,
                Frame::Routed(p) if matches!(&p.body, Body::CtmRequest { ctype: ConnType::Shortcut, .. }))));
        }
        assert_eq!(sk.counters.get(Counter::CtmShortcut), 0);
    }

    #[test]
    fn restart_clears_state_but_keeps_address() {
        let (mut n, mut sk) = started(a(100), vec![uri(9, 4000)]);
        n.record_conn(T0, a(200), ConnType::StructuredNear, ep(20, 1), &mut sk);
        sk.clear();
        assert!(n.is_routable());
        n.restart(
            SimTime::from_secs(100),
            uri(2, 4000),
            vec![uri(9, 4000)],
            &mut sk,
        );
        assert_eq!(n.address(), a(100));
        assert!(!n.is_routable());
        assert!(!n.has_direct(a(200)));
        // It immediately tries to re-join.
        let s = sk.take_sends();
        assert!(s.iter().any(|(to, f)| matches!(f,
            Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD)
            && *to == ep(9, 4000)));
    }

    #[test]
    fn stopped_node_ignores_everything() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.stop();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::Ping {
                from: a(200),
                nonce: 4,
            })
            .encode(),
            &mut sk,
        );
        n.on_tick(SimTime::from_secs(100), &mut sk);
        n.send_app(T0, a(200), 1, Bytes::from_static(b"x"), &mut sk);
        assert!(sk.is_empty());
        assert_eq!(n.next_deadline(), None);
    }

    #[test]
    fn link_messages_roam_the_peer_endpoint() {
        // A known peer's keepalive arriving from a new underlay address
        // (NAT renumbering) must retarget the connection.
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::StructuredNear, ep(20, 1), &mut sk);
        sk.clear();
        let new_src = ep(21, 9);
        n.on_datagram(
            T0,
            new_src,
            Frame::Link(LinkMsg::Ping {
                from: a(200),
                nonce: 4,
            })
            .encode(),
            &mut sk,
        );
        assert_eq!(n.conns().get(a(200)).unwrap().remote, new_src);
        // The pong goes back to the new address.
        let s = sk.take_sends();
        assert!(s
            .iter()
            .any(|(to, f)| matches!(f, Frame::Link(LinkMsg::Pong { .. })) && *to == new_src));
    }

    #[test]
    fn stale_race_yields_to_reachable_peer() {
        // Our attempt has burned 3+ unanswered sends; the peer's request
        // reaching us proves their path works — accept instead of InRace.
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.connect_to(T0, a(200), ConnType::Shortcut, vec![uri(20, 1)], &mut sk);
        sk.clear();
        // Let three transmissions go unanswered: the initial send plus the
        // retransmissions at +5 s and +15 s (default RTO, doubling).
        for secs in [6u64, 16] {
            n.on_tick(T0 + SimDuration::from_secs(secs), &mut sk);
            sk.clear();
        }
        let t = T0 + SimDuration::from_secs(17);
        n.on_datagram(
            t,
            ep(20, 1),
            Frame::Link(LinkMsg::LinkRequest {
                from: a(200),
                target: a(100),
                ctype: ConnType::Shortcut,
                attempt: 9,
            })
            .encode(),
            &mut sk,
        );
        assert!(n.has_direct(a(200)), "must yield and accept");
        let s = sk.take_sends();
        assert!(s
            .iter()
            .any(|(_, f)| matches!(f, Frame::Link(LinkMsg::LinkReply { .. }))));
        assert!(!s.iter().any(|(_, f)| matches!(
            f,
            Frame::Link(LinkMsg::LinkError {
                reason: LinkErrorReason::InRace,
                ..
            })
        )));
    }

    #[test]
    fn garbage_datagrams_count_decode_errors() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.on_datagram(
            T0,
            ep(20, 1),
            Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
            &mut sk,
        );
        assert_eq!(n.stats().decode_errors, 1);
        assert_eq!(sk.counters.get(Counter::DroppedDecode), 1);
    }

    #[test]
    fn neighbor_query_answered_for_connected_peer_only() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::StructuredNear, ep(20, 1), &mut sk);
        n.record_conn(T0, a(300), ConnType::StructuredNear, ep(30, 1), &mut sk);
        sk.clear();
        n.on_datagram(
            T0,
            ep(20, 1),
            Frame::Link(LinkMsg::NeighborQuery { from: a(200) }).encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        let reply = s.iter().find_map(|(_, f)| match f {
            Frame::Link(LinkMsg::NeighborReply { neighbors, .. }) => Some(neighbors.clone()),
            _ => None,
        });
        let neighbors = reply.expect("query from connected peer is answered");
        assert!(neighbors.contains(&a(200)) && neighbors.contains(&a(300)));
        // A stranger's query is ignored.
        n.on_datagram(
            T0,
            ep(99, 1),
            Frame::Link(LinkMsg::NeighborQuery { from: a(999) }).encode(),
            &mut sk,
        );
        assert!(sk.take_sends().is_empty());
    }

    // ---- decentralized bootstrap ----

    #[test]
    fn multi_introducer_start_funnels_through_one_candidate() {
        let (n, mut sk) = started(a(100), vec![uri(7, 4000), uri(8, 4000), uri(9, 4000)]);
        let s = sk.take_sends();
        assert_eq!(s.len(), 1, "one introducer tried at a time");
        assert!(matches!(
            &s[0].1,
            Frame::Link(LinkMsg::LinkRequest { target, ctype, .. })
                if *target == WILDCARD && *ctype == ConnType::Leaf
        ));
        assert_eq!(sk.counters.get(Counter::IntroducerTried), 1);
        assert_eq!(n.join_state().introducers.len(), 3);
    }

    #[test]
    fn dead_introducer_falls_through_the_cache() {
        // introducer_retries = 2: the funnel collapses after 5+10 = 15 s
        // and the joiner moves to the other introducer immediately.
        let (mut n, mut sk) = started(a(100), vec![uri(7, 4000), uri(8, 4000)]);
        let first = sk.take_sends()[0].0;
        n.on_tick(T0 + SimDuration::from_secs(5), &mut sk);
        n.on_tick(T0 + SimDuration::from_secs(15), &mut sk);
        assert_eq!(sk.counters.get(Counter::IntroducerFallback), 1);
        assert_eq!(sk.counters.get(Counter::IntroducerTried), 2);
        let second = ep(if first == ep(7, 4000) { 8 } else { 7 }, 4000);
        assert!(
            sk.take_sends().iter().any(|(to, f)| *to == second
                && matches!(f, Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD)),
            "fallback must try the other introducer"
        );
        let state = n.join_state();
        let failed = state
            .introducers
            .iter()
            .find(|r| r.uri == TransportUri::udp(first))
            .unwrap();
        assert_eq!(failed.failures, 1, "demoted, not dropped");
    }

    #[test]
    fn introducer_success_is_recorded() {
        let (mut n, mut sk) = started(a(100), vec![uri(7, 4000), uri(8, 4000)]);
        let tried = sk.take_sends()[0].0;
        n.on_datagram(
            T0 + SimDuration::from_millis(50),
            tried,
            Frame::Link(LinkMsg::LinkReply {
                from: a(500),
                attempt: 0,
                observed: ep(77, 1234),
            })
            .encode(),
            &mut sk,
        );
        let state = n.join_state();
        let rec = state
            .introducers
            .iter()
            .find(|r| r.uri == TransportUri::udp(tried))
            .unwrap();
        assert_eq!(rec.successes, 1);
        assert_eq!(rec.failures, 0);
    }

    #[test]
    fn linked_peers_are_learned_as_introducers() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::StructuredFar, ep(20, 1), &mut sk);
        let state = n.join_state();
        assert_eq!(state.introducers.len(), 1);
        assert!(state.introducers[0].learned);
        assert_eq!(state.introducers[0].uri, TransportUri::udp(ep(20, 1)));
    }

    #[test]
    fn restart_clean_slates_cache_and_runtime_reseeds_it() {
        let (mut n, mut sk) = started(a(100), vec![uri(7, 4000)]);
        n.record_conn(T0, a(200), ConnType::StructuredFar, ep(20, 1), &mut sk);
        let state = n.join_state();
        assert_eq!(state.introducers.len(), 2);
        // Clean-slate restart with an *empty* configured list: without the
        // snapshot the node would be stranded.
        let t1 = T0 + SimDuration::from_secs(100);
        n.restart(t1, uri(1, 4000), Vec::new(), &mut sk);
        assert!(n.join_state().introducers.is_empty(), "restart wipes");
        n.restore_join_state(&state);
        sk.clear();
        // The housekeeping join retry rejoins through the restored cache.
        n.on_tick(t1 + SimDuration::from_secs(12), &mut sk);
        assert!(
            sk.take_sends().iter().any(|(_, f)| matches!(
                f,
                Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD
            )),
            "rejoin must start from the restored introducer cache"
        );
    }

    #[test]
    fn marooned_pair_keeps_probing_the_introducer_cache() {
        // Two isolated nodes that bootstrap through each other form a
        // private 2-ring; both are "routable", so without the marooned
        // escape neither would ever dial an introducer again.
        let (mut n, mut sk) = started(a(100), vec![uri(7, 4000), uri(8, 4000)]);
        let tried = sk.take_sends()[0].0;
        n.on_datagram(
            T0 + SimDuration::from_millis(50),
            tried,
            Frame::Link(LinkMsg::LinkReply {
                from: a(200),
                attempt: 0,
                observed: ep(77, 1234),
            })
            .encode(),
            &mut sk,
        );
        n.record_conn(T0, a(200), ConnType::StructuredNear, tried, &mut sk);
        assert!(n.is_routable());
        assert_eq!(n.conns.len(), 1);
        sk.clear();
        let tried_before = sk.counters.get(Counter::IntroducerTried);
        n.on_tick(T0 + SimDuration::from_secs(12), &mut sk);
        assert!(
            sk.counters.get(Counter::IntroducerTried) > tried_before,
            "a routable node whose whole neighborhood is one peer keeps \
             probing the cache"
        );
        assert!(
            sk.take_sends().iter().any(|(_, f)| matches!(f,
                Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD)),
            "the probe starts a fresh wildcard attempt"
        );
    }

    /// Regression for the flash-crowd ring-merge pathology: concurrent
    /// joins can interleave two complete rings over one address space, and
    /// within either ring every repair mechanism — gossip, far-link CTMs,
    /// greedy-routed probes — only ever reaches the ring it started in.
    /// The one cross-ring edge a joiner reliably holds is its *leaf* to
    /// the introducer, so the periodic ring probe must treat leaves as
    /// eligible entry points.
    #[test]
    fn ring_probe_enters_through_leaf_connections_too() {
        let cfg = OverlayConfig {
            stabilize_interval: SimDuration::from_secs(1),
            ..OverlayConfig::default()
        };
        let mut n = BrunetNode::new(a(500), cfg, 7);
        let mut sk = TestSink::new();
        n.start(T0, uri(1, 4000), Vec::new(), &mut sk);
        // A structured neighborhood (our own ring) plus one leaf to an
        // introducer that lives in the other ring.
        n.record_conn(T0, a(400), ConnType::StructuredNear, ep(40, 1), &mut sk);
        n.record_conn(T0, a(600), ConnType::StructuredNear, ep(60, 1), &mut sk);
        n.record_conn(T0, a(900), ConnType::Leaf, ep(90, 1), &mut sk);
        sk.clear();
        // The back-off schedule on 1 s rounds: waits of 1, 2, 4, then 8 s.
        // 30 s stays inside the keepalive timeout, so the near set (and
        // with it the schedule) holds still.
        let (mut probes, mut via_leaf) = (Vec::new(), 0);
        for k in 1..=30u64 {
            n.on_tick(T0 + SimDuration::from_secs(k), &mut sk);
            for (to, f) in sk.take_sends() {
                if matches!(&f, Frame::Routed(p)
                    if p.src == a(500) && p.dst == a(500)
                        && matches!(p.body, Body::CtmRequest { .. }))
                {
                    probes.push(k);
                    via_leaf += usize::from(to == ep(90, 1));
                }
            }
        }
        assert_eq!(probes, vec![1, 2, 4, 8, 16, 24]);
        assert!(
            via_leaf > 0,
            "the ring probe must rotate through leaf connections — they \
             are the only edges that cross an interleaved-ring split"
        );
    }

    /// Tick `n` at `secs` and report whether it launched a ring probe (a
    /// self-addressed CTM, through a connection or an introducer).
    fn probes_at(n: &mut BrunetNode, sk: &mut TestSink, secs: u64) -> bool {
        n.on_tick(SimTime::from_secs(secs), sk);
        let me = n.address();
        sk.take_sends().iter().any(|(_, f)| {
            matches!(f, Frame::Routed(p)
                if p.src == me && p.dst == me && matches!(p.body, Body::CtmRequest { .. }))
        })
    }

    #[test]
    fn near_set_changes_bring_the_ring_probe_back() {
        // Keepalives far off, so no peer times out inside the test.
        let cfg = OverlayConfig {
            ping_interval: SimDuration::from_secs(600),
            ..OverlayConfig::default()
        };
        let mut n = BrunetNode::new(a(500), cfg, 7);
        let mut sk = TestSink::new();
        n.start(T0, uri(1, 4000), Vec::new(), &mut sk);
        for (v, last) in [(400u64, 40u8), (450, 45), (550, 55), (600, 60)] {
            n.record_conn(T0, a(v), ConnType::StructuredNear, ep(last, 1), &mut sk);
        }
        sk.clear();
        let rounds = |n: &mut BrunetNode, sk: &mut TestSink, secs: &[u64]| -> Vec<u64> {
            secs.iter()
                .copied()
                .filter(|&t| probes_at(n, sk, t))
                .collect()
        };
        assert_eq!(
            rounds(&mut n, &mut sk, &[0, 5, 10, 15, 20, 25, 30, 35]),
            vec![0, 5, 15, 35],
            "a quiet, settled near set backs the probe off"
        );
        // A closer neighbour links us: the round at 40 s probes, where the
        // backed-off schedule would have waited until 75 s. That round
        // also trims 400, now outside the horizon — a second change.
        n.on_datagram(
            SimTime::from_secs(37),
            ep(48, 1),
            Frame::Link(LinkMsg::LinkRequest {
                from: a(480),
                target: a(500),
                ctype: ConnType::StructuredNear,
                attempt: 3,
            })
            .encode(),
            &mut sk,
        );
        assert_eq!(sk.counters.get(Counter::NearLinked), 5);
        assert_eq!(
            rounds(&mut n, &mut sk, &[40, 45, 50, 55, 60, 65, 70, 75, 80]),
            vec![40, 45, 50, 60, 80]
        );
        assert_eq!(sk.counters.get(Counter::NearLost), 1, "400 trimmed");
        // A near neighbour drops us: the next round probes again, where the
        // backed-off schedule would have waited until 120 s.
        n.on_datagram(
            SimTime::from_secs(82),
            ep(60, 1),
            Frame::Link(LinkMsg::LinkError {
                from: a(600),
                attempt: 0,
                reason: LinkErrorReason::NotConnected,
            })
            .encode(),
            &mut sk,
        );
        assert_eq!(sk.counters.get(Counter::NearLost), 2);
        assert!(probes_at(&mut n, &mut sk, 85));
    }

    #[test]
    fn near_request_for_a_linked_peer_claims_the_role_in_place() {
        // A joiner keeps its leaf to the introducer, which is also one of
        // its ring neighbours. Asking for it as near must add the role to
        // the connection: a CTM would be answered by the very peer we
        // hold, and skipping it left a hole the next node out filled and
        // was trimmed from, round after round.
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::Leaf, ep(20, 1), &mut sk);
        sk.clear();
        let ctms = sk.counters.ctm_total();
        n.exec_overlord_cmds(
            T0,
            vec![OverlordCmd::RequestCtm {
                target: a(200),
                ctype: ConnType::StructuredNear,
            }],
            &mut sk,
        );
        let c = n.conns().get(a(200)).expect("still connected");
        assert!(c.types.contains(ConnType::StructuredNear));
        assert!(c.types.contains(ConnType::Leaf));
        assert_eq!(sk.counters.ctm_total(), ctms, "no CTM for a linked peer");
        assert_eq!(sk.counters.get(Counter::NearLinked), 1);
    }

    #[test]
    fn ctm_reply_goes_straight_back_over_an_existing_connection() {
        // Node 500 holds near links to 400, 600 and its probe's requester
        // 520, plus a far link to 700, the requester's first hop.
        let (mut n, mut sk) = started(a(500), Vec::new());
        n.record_conn(T0, a(400), ConnType::StructuredNear, ep(40, 1), &mut sk);
        n.record_conn(T0, a(600), ConnType::StructuredNear, ep(60, 1), &mut sk);
        n.record_conn(T0, a(520), ConnType::StructuredNear, ep(52, 1), &mut sk);
        n.record_conn(T0, a(700), ConnType::StructuredFar, ep(70, 1), &mut sk);
        sk.clear();
        let probe = |src: u64, token: u64| Packet {
            src: a(src),
            dst: a(src),
            hops: 2,
            ttl: 64,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token,
                ctype: ConnType::StructuredNear,
                uris: vec![uri(52, 4000)],
                reply_relay: Some(a(700)),
            },
        };
        // A connected requester: exactly one frame to its remote, the reply
        // addressed to it — no routed trip through the relay.
        n.on_datagram(
            T0,
            ep(70, 1),
            Frame::Routed(probe(520, 5)).encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        let to_requester: Vec<_> = s.iter().filter(|(to, _)| *to == ep(52, 1)).collect();
        assert_eq!(to_requester.len(), 1, "{s:?}");
        match &to_requester[0].1 {
            Frame::Routed(p) => {
                assert_eq!(p.dst, a(520));
                assert!(matches!(p.body,
                    Body::CtmReply { token: 5, responder, for_node, .. }
                        if responder == a(500) && for_node == a(520)));
            }
            other => panic!("expected a CTM reply, got {other:?}"),
        }
        assert!(
            !s.iter().any(|(_, f)| matches!(f,
                Frame::Routed(p) if matches!(p.body, Body::CtmReply { .. }) && p.dst == a(700))),
            "the relay is not used"
        );
        // An unconnected requester (480) still gets its reply via the relay.
        n.on_datagram(
            T0,
            ep(70, 1),
            Frame::Routed(probe(480, 6)).encode(),
            &mut sk,
        );
        let s = sk.take_sends();
        assert!(
            s.iter().any(|(to, f)| *to == ep(70, 1)
                && matches!(f, Frame::Routed(p)
                    if p.dst == a(700)
                        && matches!(p.body, Body::CtmReply { token: 6, for_node, .. }
                            if for_node == a(480)))),
            "{s:?}"
        );
    }

    #[test]
    fn wildcard_join_with_existing_leaf_reroutes_the_join_ctm() {
        let (mut n, mut sk) = started(a(100), vec![uri(7, 4000), uri(8, 4000)]);
        let tried = sk.take_sends()[0].0;
        // An inbound joiner grabs the leaf slot while our wildcard attempt
        // is still in flight.
        n.record_conn(T0, a(50), ConnType::Leaf, ep(5, 1), &mut sk);
        assert_eq!(n.leaf_peer, Some(a(50)));
        sk.clear();
        n.on_datagram(
            T0 + SimDuration::from_millis(50),
            tried,
            Frame::Link(LinkMsg::LinkReply {
                from: a(60),
                attempt: 0,
                observed: ep(77, 1234),
            })
            .encode(),
            &mut sk,
        );
        // The join CTM travels via the introducer that answered, not the
        // stale leaf — otherwise it would never reach the main ring.
        assert!(
            sk.take_sends().iter().any(|(to, f)| *to == tried
                && matches!(f, Frame::Routed(p)
                    if matches!(&p.body, Body::CtmRequest { reply_relay: Some(r), .. } if *r == a(60)))),
            "join CTM must be relayed via the new wildcard leaf"
        );
        assert_eq!(n.leaf_peer, Some(a(50)), "the original leaf slot is kept");
    }

    #[test]
    fn rebootstrap_rejoins_through_learned_cache() {
        let (mut n, mut sk) = started(a(100), Vec::new());
        n.record_conn(T0, a(200), ConnType::StructuredFar, ep(20, 1), &mut sk);
        // Every connection is gone (peers died); only the cache remains.
        n.conns.remove(a(200));
        n.pinger.untrack(a(200));
        sk.clear();
        n.exec_overlord_cmds(T0, vec![OverlordCmd::Rebootstrap], &mut sk);
        assert!(
            sk.take_sends().iter().any(|(to, f)| *to == ep(20, 1)
                && matches!(f, Frame::Link(LinkMsg::LinkRequest { target, .. }) if *target == WILDCARD)),
            "isolated node rejoins through its learned introducer"
        );
    }
}
