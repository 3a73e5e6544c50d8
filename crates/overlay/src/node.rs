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
//! ## One home per protocol decision
//!
//! This module is dispatch glue; each decision lives in a part that is
//! tested without a node: linking and keepalives ([`crate::linking`],
//! [`crate::ping`], glued in `link`), the CTM protocol (`ctm`), the join
//! ([`crate::bootstrap`]), the overlords ([`crate::overlord`]) and routing
//! (`ConnTable::route`). Managers and overlords answer with command
//! lists that the node executes. The lists stay on purpose: they are the
//! tested output contracts of pure deciders, and deciding a whole round
//! before acting on it is the order the pinned digests encode (the far
//! census reads the table before the near trims run).
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

mod ctm;
mod link;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::Address;
use crate::bootstrap::{BootstrapManager, JoinState, JoinStep};
use crate::config::OverlayConfig;
use crate::conn::{ConnTable, ConnType, NextHop};
use crate::driver::{NodeEvent, NodeSink};
use crate::linking::LinkingManager;
use crate::overlord::{FarOverlord, NearOverlord, OverlordCmd, ShortcutOverlord};
use crate::ping::PingManager;
use crate::telemetry::Counter;
use crate::uri::{TransportUri, UriSet};
use crate::wire::{Body, Frame, LinkErrorReason, Packet, RoutedHeader};
use ctm::Ctm;

/// The wildcard target address used when linking to a bootstrap node whose
/// overlay address is not yet known.
pub const WILDCARD: Address = Address([0; 20]);

/// Housekeeping cadence (pending-CTM expiry, shortcut idle checks, join
/// retries are evaluated at this granularity).
const HOUSEKEEPING: SimDuration = SimDuration::from_secs(2);

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

impl NodeStats {
    /// The hop budget every forward passes, on both forwarding paths:
    /// count the packet forwarded, or dropped once `hops` has reached `ttl`.
    fn spend_hop<S: NodeSink + ?Sized>(&mut self, hops: u8, ttl: u8, sink: &mut S) -> bool {
        if hops >= ttl {
            self.dropped_ttl += 1;
            sink.count(Counter::DroppedTtl);
            return false;
        }
        self.forwarded += 1;
        sink.count(Counter::Forwarded);
        true
    }
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
    ctm: Ctm,
    join: BootstrapManager,
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
            ctm: Ctm::default(),
            join: BootstrapManager::new(seed),
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
        self.join.start(now, &bootstrap, self.cfg.join_retry);
        self.next_housekeeping = now + HOUSEKEEPING;
        self.try_bootstrap(now, sink);
    }

    /// Dial the introducer cache (the join part chooses how).
    fn try_bootstrap<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.join.dial(now, &mut self.linking, sink) {
            self.drive_linking(now, sink);
        }
    }

    /// The persistent join state: a snapshot of the introducer cache that a
    /// runtime can stash before [`BrunetNode::restart`] (which clean-slates
    /// it) and re-seed afterwards via [`BrunetNode::restore_join_state`].
    pub fn join_state(&self) -> JoinState {
        self.join.join_state()
    }

    /// Re-seed the introducer cache from a saved [`JoinState`] (failure
    /// counts survive; backoff deadlines do not — the restart clock is
    /// unrelated to the one the deadlines were set under).
    pub fn restore_join_state(&mut self, state: &JoinState) {
        self.join.restore(state);
    }

    /// Restart after a migration: all overlay state is discarded (the
    /// paper's "kill and restart the user-level IPOP program"), the node
    /// re-binds and rejoins, keeping its overlay address and therefore its
    /// ring position. What survives is the node's identity: its RNG
    /// streams continue, CTM tokens keep counting and [`NodeStats`] carry
    /// over.
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
        self.ctm.reset();
        self.join.reset();
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
        // Consumed, not forwarded in place: the storage goes back first.
        // Decode copied out all but an App payload, which still shares it.
        let frame = Frame::decode(data.clone());
        sink.reclaim(data);
        match frame {
            Ok(Frame::Link(msg)) => self.on_link_msg(now, src, msg, sink),
            Ok(Frame::Routed(pkt)) => self.route_packet(now, pkt, Some(src), sink),
            Err(_) => {
                self.stats.decode_errors += 1;
                sink.count(Counter::DroppedDecode);
            }
        }
    }

    /// Try to forward a peeked transit frame without decoding it. Returns
    /// `None` when the datagram was handled (forwarded, or dropped on TTL),
    /// or the buffer back when routing says we are the nearest node: the
    /// caller then decodes it for nearest-delivery, one decode in total.
    fn transit_forward<S: NodeSink + ?Sized>(
        &mut self,
        src: PhysAddr,
        h: &RoutedHeader,
        data: Bytes,
        sink: &mut S,
    ) -> Option<Bytes> {
        let NextHop::Relay(c) = self.conns.route(self.addr, h.dst, Some(src), None) else {
            return Some(data);
        };
        if !self.stats.spend_hop(h.hops, h.ttl, sink) {
            sink.reclaim(data);
            return None;
        }
        sink.count(Counter::TransitFastPath);
        sink.add_count(Counter::TransitBytes, data.len() as u64);
        // A freshly received datagram uniquely owns its buffer, so the hop
        // byte is patched in place and the same allocation goes back out.
        sink.send(c.remote, RoutedHeader::patch_hops(data, h.hops + 1));
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
        let pkt = self.packet(dst, Body::App { proto, data });
        self.route_packet(now, pkt, None, sink);
    }

    /// A packet we originate: a fresh hop budget, not edge-forwarded.
    fn packet(&self, dst: Address, body: Body) -> Packet {
        Packet {
            src: self.addr,
            dst,
            hops: 0,
            ttl: self.cfg.ttl,
            edge_forwarded: false,
            body,
        }
    }

    // ------------------------------------------------------ routed layer --

    /// Forward or deliver a routed packet. `from` is the endpoint it
    /// arrived from, `None` for packets we originate; decode-path transit
    /// forwards are counted next to the fast path's.
    fn route_packet<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        mut pkt: Packet,
        from: Option<PhysAddr>,
        sink: &mut S,
    ) {
        let is_ctm_request = matches!(pkt.body, Body::CtmRequest { .. });
        if pkt.dst == self.addr {
            // Relay unwrapping: a CTM reply addressed to us as the
            // requester's relay goes on over our link to the requester.
            if let Body::CtmReply { for_node, .. } = pkt.body {
                if for_node != self.addr {
                    match self.conns.get(for_node).map(|c| c.remote) {
                        Some(remote) => {
                            pkt.dst = for_node;
                            sink.send(remote, Frame::Routed(pkt).encode());
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
        if pkt.edge_forwarded && is_ctm_request {
            self.deliver_local(now, pkt, false, sink);
            return;
        }
        // Self-addressed CTMs (joins and ring probes) must reach the
        // nearest node *other than their source*.
        let skip = (is_ctm_request && pkt.src == pkt.dst).then_some(pkt.src);
        match self.conns.route(self.addr, pkt.dst, from, skip) {
            NextHop::Local => self.deliver_local(now, pkt, false, sink),
            NextHop::Relay(c) => {
                let remote = c.remote;
                if !self.stats.spend_hop(pkt.hops, pkt.ttl, sink) {
                    return;
                }
                pkt.hops += 1;
                let frame = Frame::Routed(pkt).encode();
                if from.is_some() {
                    sink.count(Counter::TransitSlowPath);
                    sink.add_count(Counter::TransitBytes, frame.len() as u64);
                }
                sink.send(remote, frame);
            }
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
            Body::CtmRequest { .. } => self.answer_ctm(now, pkt, exact, sink),
            Body::CtmReply {
                token,
                responder,
                uris,
                ..
            } => {
                // A stale or duplicate token answers nothing.
                if let Some(ctype) = self.ctm.answered(token) {
                    self.connect_to(now, responder, ctype, uris, sink);
                }
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

    // ------------------------------------------------------- connections --

    /// Establish (or upgrade) a connection to `peer` using its URI list.
    fn connect_to<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        uris: Vec<TransportUri>,
        sink: &mut S,
    ) {
        if peer == self.addr
            || self.claim_in_place(now, peer, ctype, sink)
            || self.linking.has_attempt(peer)
        {
            return;
        }
        self.linking.start(now, peer, ctype, uris);
        self.drive_linking(now, sink);
    }

    /// Already linked to `peer`: claim `ctype` on that connection instead of
    /// asking anew, which the very peer we hold would answer. Returns
    /// whether `peer` is linked.
    fn claim_in_place<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        peer: Address,
        ctype: ConnType,
        sink: &mut S,
    ) -> bool {
        let Some(remote) = self.conns.get(peer).map(|c| c.remote) else {
            return false;
        };
        self.record_conn(now, peer, ctype, remote, sink);
        true
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
            self.join.learn_peer(remote);
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
                self.send_neighbor_query(remote, sink);
            }
            sink.event(NodeEvent::Connected { peer, ctype });
        }
        // The first leaf takes the join slot and relays our join CTM.
        if ctype == ConnType::Leaf && self.join.leaf.is_none() {
            self.join.leaf = Some(peer);
            self.send_join_ctm(now, peer, sink);
        }
    }

    /// The one teardown — keepalive timeout, the peer's `NotConnected`, or
    /// our own trim: shed `role` from `peer`'s connection (`None`: all of
    /// it). A lost near role brings the ring probe back. If the connection
    /// went, the peer is forgotten and the leaf slot freed — a joiner that
    /// kept a dead leaf would route every join retry into it and never
    /// dial an introducer again. Returns the gone connection's endpoint.
    fn teardown<S: NodeSink + ?Sized>(
        &mut self,
        peer: Address,
        role: Option<ConnType>,
        sink: &mut S,
    ) -> Option<PhysAddr> {
        let c = self.conns.get(peer)?;
        let remote = c.remote;
        let near_lost = c.types.contains(ConnType::StructuredNear)
            && role.is_none_or(|r| r == ConnType::StructuredNear);
        let gone = match role {
            Some(r) => self.conns.remove_role(peer, r),
            None => self.conns.remove(peer).is_some(),
        };
        if near_lost {
            sink.count(Counter::NearLost);
            self.near.near_set_changed();
        }
        if !gone {
            return None;
        }
        self.pinger.untrack(peer);
        sink.event(NodeEvent::Disconnected { peer });
        if self.join.leaf == Some(peer) {
            self.join.leaf = None;
        }
        Some(remote)
    }

    /// Count one tunnelled packet to/from `peer` and ask for a shortcut
    /// when the score rule fires.
    fn observe_traffic<S: NodeSink + ?Sized>(&mut self, now: SimTime, peer: Address, sink: &mut S) {
        if !self.shortcut.on_traffic(now, peer, &self.cfg) {
            return;
        }
        sink.count(Counter::ShortcutCross);
        if self.cfg.max_shortcuts == 0 {
            return;
        }
        // The cap bounds new links; a linked peer claims the role in place.
        if self.conns.get(peer).is_none()
            && self.conns.with_type(ConnType::Shortcut).count() >= self.cfg.max_shortcuts
        {
            return;
        }
        self.request_ctm(now, peer, ConnType::Shortcut, sink);
    }

    // ------------------------------------------------- protocol drivers --

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
            let pending = self.ctm.pending_far_count();
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
                    self.request_ctm(now, target, ctype, sink);
                }
                OverlordCmd::DropRole { peer, ctype } => {
                    // Tell the peer it was dropped so it sheds its half
                    // too. A silent trim leaves the peer with a one-way
                    // connection: its queries and probes to us go
                    // unanswered (we no longer know it), yet our linking
                    // traffic keeps refreshing its keepalive — a phantom
                    // that can anchor its ring view on the wrong
                    // neighbour indefinitely.
                    if let Some(remote) = self.teardown(peer, Some(ctype), sink) {
                        self.send_link_error(remote, 0, LinkErrorReason::NotConnected, sink);
                    }
                }
                OverlordCmd::RingProbe => self.send_ring_probe(now, sink),
                OverlordCmd::Rebootstrap => {
                    if self.join.may_rebootstrap(&self.conns) {
                        self.try_bootstrap(now, sink);
                    }
                }
                OverlordCmd::SendNeighborQuery { peer } => {
                    if let Some(remote) = self.conns.get(peer).map(|c| c.remote) {
                        self.send_neighbor_query(remote, sink);
                    }
                }
            }
        }
    }

    fn housekeeping<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        self.ctm.expire(now);
        // Shortcut idle release.
        let mut cmds = Vec::new();
        self.shortcut.poll(now, &self.conns, &mut cmds);
        self.exec_overlord_cmds(now, cmds, sink);
        let routable = self.is_routable();
        match self
            .join
            .housekeeping(now, routable, &self.conns, self.cfg.join_retry)
        {
            Some(JoinStep::Ctm(leaf)) => self.send_join_ctm(now, leaf, sink),
            Some(JoinStep::Dial) => self.try_bootstrap(now, sink),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use crate::telemetry::TelemetryCounters;
    use crate::wire::LinkMsg;
    use rand::Rng;
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

    /// The tokens of every CTM request among `frames`.
    fn ctm_tokens(frames: &[(PhysAddr, Frame)]) -> Vec<u64> {
        let token = |(_, f): &(PhysAddr, Frame)| match f {
            Frame::Routed(Packet {
                body: Body::CtmRequest { token, .. },
                ..
            }) => Some(*token),
            _ => None,
        };
        frames.iter().filter_map(token).collect()
    }

    #[test]
    fn restart_keeps_identity_and_starts_every_protocol_fresh() {
        let introducers: Vec<_> = (1..=8).map(|i| uri(i, 4000)).collect();
        let (mut n, mut sk) = started(a(100), introducers.clone());
        // Build up state in every part: a near link and a leaf (the join
        // CTM), tunnelled traffic (shortcut score), a linking attempt, and
        // a stabilize round (a ring probe and a far request, both drawing
        // on the node's RNG stream).
        n.record_conn(T0, a(200), ConnType::StructuredNear, ep(20, 1), &mut sk);
        n.record_conn(T0, a(300), ConnType::Leaf, ep(30, 1), &mut sk);
        n.send_app(T0, a(900), 1, Bytes::from_static(b"x"), &mut sk);
        n.connect_to(T0, a(400), ConnType::Shortcut, vec![uri(40, 1)], &mut sk);
        n.on_tick(T0, &mut sk);
        let issued = ctm_tokens(&sk.take_sends());
        assert!(issued.len() >= 2 && n.ctm.has_pending(a(100)));
        let stats = format!("{:?}", n.stats());
        let (rng, join) = (n.rng.clone(), n.join.clone());
        let t1 = SimTime::from_secs(100);
        n.restart(t1, uri(2, 4000), Vec::new(), &mut sk);

        // Identity survives: counters, and both RNG streams continue
        // where they were rather than restarting from the seed.
        assert_eq!(format!("{:?}", n.stats()), stats);
        let next = |mut r: SmallRng| r.gen::<u64>();
        assert_eq!(next(n.rng.clone()), next(rng));
        assert_ne!(next(n.rng.clone()), next(SmallRng::seed_from_u64(7)));
        let picks = |mut m: BootstrapManager| {
            m.configure(&introducers);
            (0..4).map(|_| m.next_candidate(t1)).collect::<Vec<_>>()
        };
        let mut continued = join;
        continued.reset();
        assert_eq!(picks(n.join.clone()), picks(continued));
        assert_ne!(picks(n.join.clone()), picks(BootstrapManager::new(7)));

        // Every protocol part starts over.
        assert!(!n.ctm.has_pending(a(100)) && n.ctm.pending_far_count() == 0);
        assert_eq!(
            format!("{:?}", n.near),
            format!("{:?}", NearOverlord::new())
        );
        assert_eq!(n.join.leaf, None);
        assert!(format!("{:?}", n.join).contains("introducer: None"));
        assert!(n.linking.is_empty() && n.pinger.is_empty() && n.conns.is_empty());
        assert_eq!(n.shortcut.score(a(900), t1), 0.0);

        // CTM tokens keep counting: a reply to a pre-restart request can
        // never match a new one.
        n.record_conn(t1, a(300), ConnType::Leaf, ep(30, 1), &mut sk);
        let after = ctm_tokens(&sk.take_sends());
        assert_eq!(after, vec![issued.iter().max().unwrap() + 1]);
    }

    #[test]
    fn the_hop_budget_counts_forwards_and_drops() {
        let (mut stats, mut sk) = (NodeStats::default(), TestSink::new());
        assert!(stats.spend_hop(63, 64, &mut sk));
        assert!(!stats.spend_hop(64, 64, &mut sk), "hops == ttl is spent");
        assert!(!stats.spend_hop(200, 64, &mut sk));
        assert_eq!((stats.forwarded, stats.dropped_ttl), (1, 2));
        assert_eq!(sk.counters.get(Counter::Forwarded), 1);
        assert_eq!(sk.counters.get(Counter::DroppedTtl), 2);
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
        // INTRODUCER_RETRIES = 2: the funnel collapses after 5+10 = 15 s
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
        assert_eq!(n.join.leaf, Some(a(50)));
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
        assert_eq!(n.join.leaf, Some(a(50)), "the original leaf slot is kept");
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
