//! The link layer of a node (§IV-B): link frames in, [`LinkCmd`]s and
//! [`PingCmd`]s out. [`crate::linking`] and [`crate::ping`] decide; this
//! is the glue that answers and executes.

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::SimTime;

use super::{BrunetNode, WILDCARD};
use crate::addr::Address;
use crate::driver::{NodeEvent, NodeSink};
use crate::linking::LinkCmd;
use crate::ping::PingCmd;
use crate::telemetry::Counter;
use crate::uri::TransportUri;
use crate::wire::{Frame, LinkErrorReason, LinkMsg};

impl BrunetNode {
    pub(super) fn send_link_error<S: NodeSink + ?Sized>(
        &self,
        to: PhysAddr,
        attempt: u64,
        reason: LinkErrorReason,
        sink: &mut S,
    ) {
        let error = LinkMsg::LinkError {
            from: self.addr,
            attempt,
            reason,
        };
        sink.send(to, Frame::Link(error).encode());
    }

    /// Ask a peer who it sees around the ring.
    pub(super) fn send_neighbor_query<S: NodeSink + ?Sized>(&self, to: PhysAddr, sink: &mut S) {
        let query = LinkMsg::NeighborQuery { from: self.addr };
        sink.send(to, Frame::Link(query).encode());
    }

    pub(super) fn on_link_msg<S: NodeSink + ?Sized>(
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
                let known = self.conns.get(from).is_some();
                let refusal = if target != self.addr && target != WILDCARD {
                    Some(LinkErrorReason::WrongNode)
                } else if !known
                    && self.linking.has_active_attempt(from)
                    && self.linking.unanswered_sends(from) < 3
                {
                    // The paper's race rule: tell the peer to stand down.
                    // Exception: if several of our own requests have already
                    // vanished while the peer's request reached us, their
                    // path works and ours does not (symmetric-NAT peers look
                    // exactly like this) — yield instead of deadlocking.
                    Some(LinkErrorReason::InRace)
                } else {
                    None
                };
                if let Some(reason) = refusal {
                    self.send_link_error(src, attempt, reason, sink);
                    return;
                }
                // A known peer is a duplicate or refresh: stay idempotent.
                // Otherwise accept passively (this also covers the case
                // where our own attempt is backed off after a race: we
                // yield to the peer).
                if !known {
                    self.linking.satisfied(from);
                }
                self.record_conn(now, from, ctype, src, sink);
                let reply = LinkMsg::LinkReply {
                    from: self.addr,
                    attempt,
                    observed: src,
                };
                sink.send(src, Frame::Link(reply).encode());
                if known {
                    self.pinger.heard(from, now, &self.cfg);
                }
            }
            LinkMsg::LinkReply {
                from,
                attempt,
                observed,
            } => {
                self.my_uris.learn_observed(TransportUri::udp(observed));
                let mut cmds = Vec::new();
                self.linking.on_reply(from, attempt, src, &mut cmds);
                // A wildcard (bootstrap) attempt matches by attempt id and
                // establishes whoever answered.
                let mut joined = false;
                if cmds.is_empty() {
                    self.linking.on_reply(WILDCARD, attempt, src, &mut cmds);
                    if let Some(LinkCmd::Established { peer, .. }) = cmds.first_mut() {
                        *peer = from;
                        joined = true;
                        self.join.introducer_answered();
                    }
                }
                self.exec_link_cmds(now, cmds, sink);
                // A self-initiated wildcard join that landed while an
                // earlier leaf holds the join slot (an inbound joiner beat
                // us, or we are escaping a marooned pair) still needs its
                // join CTM — routed via the introducer that just answered,
                // not the stale leaf.
                if joined && self.join.leaf != Some(from) {
                    self.send_join_ctm(now, from, sink);
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
                // Our keepalive hit a peer that no longer knows us.
                LinkErrorReason::NotConnected => {
                    self.teardown(from, None, sink);
                }
            },
            LinkMsg::Ping { from, nonce } => {
                if self.conns.get(from).is_some() {
                    self.pinger.heard(from, now, &self.cfg);
                    let pong = LinkMsg::Pong {
                        from: self.addr,
                        nonce,
                        observed: src,
                    };
                    sink.send(src, Frame::Link(pong).encode());
                } else {
                    self.send_link_error(src, nonce, LinkErrorReason::NotConnected, sink);
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
                    // The wire needs a list: the one place the horizon is
                    // collected.
                    let k = self.cfg.near_per_side;
                    let mut neighbors: Vec<Address> = self
                        .conns
                        .nearest_cw(self.addr, k)
                        .chain(self.conns.nearest_ccw(self.addr, k))
                        .collect();
                    neighbors.dedup();
                    let reply = LinkMsg::NeighborReply {
                        from: self.addr,
                        neighbors,
                        observed: src,
                    };
                    sink.send(src, Frame::Link(reply).encode());
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

    pub(super) fn drive_linking<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.linking.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        let mut cmds = Vec::new();
        self.linking.poll(now, &self.cfg, &mut cmds);
        self.exec_link_cmds(now, cmds, sink);
    }

    pub(super) fn exec_link_cmds<S: NodeSink + ?Sized>(
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
                    let req = LinkMsg::LinkRequest {
                        from: self.addr,
                        target,
                        ctype,
                        attempt,
                    };
                    sink.send(to, Frame::Link(req).encode());
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
                    // The introducer funnel collapsed: the join part demotes
                    // the candidate and says whether to fall through the
                    // cache. A fresh attempt cannot fail on its first poll,
                    // so the recursion terminates.
                    if peer == WILDCARD && self.join.introducer_failed(now) {
                        sink.count(Counter::IntroducerFallback);
                        self.try_bootstrap(now, sink);
                    }
                }
            }
        }
    }

    pub(super) fn drive_pinger<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        if self.pinger.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        let mut cmds = Vec::new();
        self.pinger.poll(now, &self.cfg, &mut cmds);
        for cmd in cmds {
            match cmd {
                PingCmd::SendPing { peer, nonce } => match self.conns.get(peer) {
                    Some(c) => {
                        let ping = LinkMsg::Ping {
                            from: self.addr,
                            nonce,
                        };
                        sink.send(c.remote, Frame::Link(ping).encode());
                    }
                    None => self.pinger.untrack(peer),
                },
                PingCmd::Dead { peer } => {
                    if self.teardown(peer, None, sink).is_some() {
                        sink.count(Counter::PeerDead);
                    }
                }
            }
        }
    }
}
