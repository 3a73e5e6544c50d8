//! The Connect-To-Me part of a node (§IV-C, §IV-E).
//!
//! A node asks for a connection by routing a CTM request toward an
//! address; whoever greedy routing delivers it to replies with its URIs,
//! and both ends start linking, which also punches the NAT hole. [`Ctm`]
//! is the requester's state, [`reply_route`] and [`edge_forward`] the
//! responder's rules; the `impl BrunetNode` block counts, builds and sends.
//!
//! **Ring probes** are self-addressed near CTMs: routing excludes the
//! source, so a probe finds the true nearest *other* node, escaping the
//! local optima stabilization can reach after a mass join. Any connection
//! is an entry point, leaves included (a joiner's leaf is often the one
//! edge across two interleaved rings); every 4th probe enters through a
//! cached introducer instead, the only way into the other ring once a long
//! partition heals.
//!
//! Pending requests are an ordered table keyed by token (`crate::table`).
//! Tokens only grow, so a request appends, and a node with nothing in
//! flight holds no buffer for them.

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::{SimDuration, SimTime};

use super::BrunetNode;
use crate::addr::Address;
use crate::conn::{ConnTable, ConnType};
use crate::driver::NodeSink;
use crate::table::Table;
use crate::telemetry::Counter;
use crate::wire::{Body, Frame, Packet};

/// How long a pending CTM waits for its reply before it may be re-issued.
const CTM_TIMEOUT: SimDuration = SimDuration::from_secs(15);

#[derive(Clone, Copy, Debug)]
struct Pending {
    target: Address,
    ctype: ConnType,
    expires: SimTime,
}

/// The requester side: tokens, requests awaiting replies, probe rotation.
#[derive(Debug, Default)]
pub(super) struct Ctm {
    pending: Table<u64, Pending>,
    /// The last token issued; tokens start at 1.
    last_token: u64,
    probe_rounds: u64,
}

impl Ctm {
    /// Clean-slate restart: pending requests and the probe rotation are
    /// forgotten. Tokens keep counting, so a late reply to a request sent
    /// before the restart never matches one sent after it.
    pub(super) fn reset(&mut self) {
        self.pending.clear();
        self.probe_rounds = 0;
    }

    /// Issue the token for a request toward `target` and hold it pending.
    fn open(&mut self, now: SimTime, target: Address, ctype: ConnType) -> u64 {
        self.last_token += 1;
        let expires = now + CTM_TIMEOUT;
        let pending = Pending {
            target,
            ctype,
            expires,
        };
        self.pending.insert(self.last_token, pending);
        self.last_token
    }

    /// The role a reply with this token answers; `None` when stale.
    pub(super) fn answered(&self, token: u64) -> Option<ConnType> {
        self.pending.get(token).map(|p| p.ctype)
    }

    /// Whether a request toward `target` still waits for its reply.
    pub(super) fn has_pending(&self, target: Address) -> bool {
        self.pending.values().any(|p| p.target == target)
    }

    /// Far-link requests in flight (the far census counts them as held).
    pub(super) fn pending_far_count(&self) -> usize {
        let far = |p: &&Pending| p.ctype == ConnType::StructuredFar;
        self.pending.values().filter(far).count()
    }

    /// Forget requests whose reply window has closed.
    pub(super) fn expire(&mut self, now: SimTime) {
        self.pending.retain(|_, p| p.expires > now);
    }

    /// Count one ring probe; `true` when it enters through an introducer.
    fn probe_via_introducer(&mut self) -> bool {
        self.probe_rounds = self.probe_rounds.wrapping_add(1);
        self.probe_rounds % 4 == 0
    }
}

/// Where the reply to `requester` goes, as `(destination, direct
/// endpoint)`: over the connection we hold to it (the usual case for a
/// ring probe confirming its successor), else routed through the relay it
/// named for responders with no link to it.
pub(super) fn reply_route(
    conns: &ConnTable,
    requester: Address,
    relay: Option<Address>,
) -> (Address, Option<PhysAddr>) {
    match conns.get(requester) {
        Some(c) => (requester, Some(c.remote)),
        None => (relay.unwrap_or(requester), None),
    }
}

/// Nearest-delivery join semantics: a request that reached us as the
/// nearest node, not the exact destination, hands one copy to our
/// neighbour on the other side of the requested address, so both future
/// ring neighbours answer. The copy is processed where it lands.
pub(super) fn edge_forward(
    me: Address,
    conns: &ConnTable,
    req: Packet,
    exact: bool,
) -> Option<(PhysAddr, Packet)> {
    if exact || req.edge_forwarded {
        return None;
    }
    let other = if me.dist_cw(req.dst) <= req.dst.dist_cw(me) {
        conns.nearest_cw(req.dst, 2).find(|&n| n != req.src)
    } else {
        conns.nearest_ccw(req.dst, 2).find(|&n| n != req.src)
    }?;
    let hops = req.hops.saturating_add(1);
    let copy = Packet {
        edge_forwarded: true,
        hops,
        ..req
    };
    Some((conns.get(other)?.remote, copy))
}

impl BrunetNode {
    /// Answer a CTM request that ends here: reply, link toward the
    /// requester (the bidirectional rule), edge-forward one copy.
    pub(super) fn answer_ctm<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        req: Packet,
        exact: bool,
        sink: &mut S,
    ) {
        let Body::CtmRequest {
            token,
            ctype,
            ref uris,
            reply_relay,
        } = req.body
        else {
            return;
        };
        if req.src == self.addr {
            return; // our own join CTM came back: we are an overlay of one
        }
        let uris = uris.clone();
        let (dst, direct) = reply_route(&self.conns, req.src, reply_relay);
        let reply = Body::CtmReply {
            token,
            responder: self.addr,
            uris: self.advertised_uris(),
            for_node: req.src,
        };
        let reply = self.packet(dst, reply);
        match direct {
            Some(remote) => sink.send(remote, Frame::Routed(reply).encode()),
            None => self.route_packet(now, reply, None, sink),
        }
        self.connect_to(now, req.src, ctype, uris, sink);
        if let Some((to, copy)) = edge_forward(self.addr, &self.conns, req, exact) {
            sink.send(to, Frame::Routed(copy).encode());
        }
    }

    /// Ask for a `ctype` connection to `target` with a routed CTM, unless it
    /// can be claimed in place or a request or linking is under way.
    pub(super) fn request_ctm<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        target: Address,
        ctype: ConnType,
        sink: &mut S,
    ) {
        if target == self.addr
            || self.claim_in_place(now, target, ctype, sink)
            || self.ctm.has_pending(target)
            || self.linking.has_attempt(target)
        {
            return;
        }
        let kind = match ctype {
            ConnType::Shortcut => Counter::CtmShortcut,
            ConnType::StructuredFar => Counter::CtmFar,
            _ => Counter::CtmNear,
        };
        let pkt = self.ctm_request(now, target, ctype, None, kind, sink);
        self.route_packet(now, pkt, None, sink);
    }

    /// Send the self-addressed join CTM that discovers our ring neighbours
    /// via a directly connected relay: our leaf, or an introducer that just
    /// answered a wildcard join while an earlier leaf holds the slot (the
    /// stale leaf would bounce the CTM around the old component).
    pub(super) fn send_join_ctm<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        relay: Address,
        sink: &mut S,
    ) {
        if let Some(remote) = self.conns.get(relay).map(|c| c.remote) {
            let (me, near) = (self.addr, ConnType::StructuredNear);
            let pkt = self.ctm_request(now, me, near, Some(relay), Counter::CtmJoin, sink);
            sink.send(remote, Frame::Routed(pkt).encode());
        }
    }

    /// Verify our ring position (module docs). A probe through a connection
    /// names that peer as reply relay: a reply routed to our address could
    /// dead-end at the very successor the probe exists to find. One through
    /// an introducer names none; its responder dials us directly.
    pub(super) fn send_ring_probe<S: NodeSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        use rand::seq::IteratorRandom;
        let mut entry = None;
        if self.ctm.probe_via_introducer() {
            let own = self.advertised_uris();
            entry = self
                .join
                .uris()
                .into_iter()
                .filter(|u| self.conns.peer_by_remote(u.addr).is_none() && !own.contains(u))
                .choose(&mut self.rng)
                .map(|u| (u.addr, None));
        }
        let via_conn = self.conns.iter().map(|c| (c.remote, Some(c.peer)));
        let Some((to, relay)) = entry.or_else(|| via_conn.choose(&mut self.rng)) else {
            return;
        };
        let (me, near) = (self.addr, ConnType::StructuredNear);
        let pkt = self.ctm_request(now, me, near, relay, Counter::CtmRingProbe, sink);
        sink.send(to, Frame::Routed(pkt).encode());
    }

    /// The one request builder: count a CTM of this `kind`, issue its
    /// token, and build the request from us to `dst`.
    fn ctm_request<S: NodeSink + ?Sized>(
        &mut self,
        now: SimTime,
        dst: Address,
        ctype: ConnType,
        reply_relay: Option<Address>,
        kind: Counter,
        sink: &mut S,
    ) -> Packet {
        self.stats.ctm_sent += 1;
        sink.count(kind);
        let token = self.ctm.open(now, dst, ctype);
        let uris = self.advertised_uris();
        self.packet(
            dst,
            Body::CtmRequest {
                token,
                ctype,
                uris,
                reply_relay,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use wow_netsim::addr::PhysIp;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn ep(v: u64) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, (v >> 8) as u8, v as u8), 1)
    }

    const T0: SimTime = SimTime::ZERO;

    fn table(peers: &[(u64, ConnType)]) -> ConnTable {
        let mut t = ConnTable::new();
        for &(p, ctype) in peers {
            t.upsert(a(p), ctype, ep(p), T0);
        }
        t
    }

    #[test]
    fn tokens_keep_counting_across_a_reset() {
        let mut c = Ctm::default();
        let near = ConnType::StructuredNear;
        assert_eq!(c.open(T0, a(1), near), 1);
        assert_eq!(c.open(T0, a(9), ConnType::StructuredFar), 2);
        c.reset();
        assert_eq!(c.answered(2), None, "pending requests are forgotten");
        assert_eq!(c.open(T0, a(1), near), 3, "no token is reissued");
    }

    #[test]
    fn pending_requests_match_replies_until_they_expire() {
        let mut c = Ctm::default();
        let far = c.open(T0, a(9), ConnType::StructuredFar);
        c.open(T0, a(5), ConnType::Shortcut);
        assert_eq!(c.answered(far), Some(ConnType::StructuredFar));
        assert!(c.has_pending(a(9)) && c.has_pending(a(5)) && !c.has_pending(a(7)));
        assert_eq!(c.pending_far_count(), 1);
        c.expire(T0 + SimDuration::from_micros(CTM_TIMEOUT.as_micros() - 1));
        assert!(c.has_pending(a(9)), "still inside its window");
        c.expire(T0 + CTM_TIMEOUT);
        assert_eq!(c.answered(far), None);
        assert_eq!(c.pending_far_count(), 0);
    }

    #[test]
    fn every_fourth_probe_enters_through_an_introducer() {
        let mut c = Ctm::default();
        let rounds: Vec<bool> = (0..8).map(|_| c.probe_via_introducer()).collect();
        assert_eq!(
            rounds,
            [false, false, false, true, false, false, false, true]
        );
        c.reset();
        assert!(!c.probe_via_introducer(), "the rotation restarts");
    }

    #[test]
    fn reply_goes_direct_when_linked_else_through_the_relay() {
        let conns = table(&[
            (520, ConnType::StructuredNear),
            (700, ConnType::StructuredFar),
        ]);
        assert_eq!(
            reply_route(&conns, a(520), Some(a(700))),
            (a(520), Some(ep(520)))
        );
        assert_eq!(reply_route(&conns, a(480), Some(a(700))), (a(700), None));
        assert_eq!(reply_route(&conns, a(480), None), (a(480), None));
    }

    #[test]
    fn nearest_delivery_forwards_one_copy_across_the_gap() {
        // 500 holds 400 and 600; a request for 520 lands on 500 as the
        // nearest node, so 600 (the other side of 520) gets the copy.
        let conns = table(&[
            (400, ConnType::StructuredNear),
            (600, ConnType::StructuredNear),
        ]);
        let req = Packet {
            src: a(520),
            dst: a(520),
            hops: 2,
            ttl: 64,
            edge_forwarded: false,
            body: Body::CtmRequest {
                token: 5,
                ctype: ConnType::StructuredNear,
                uris: vec![],
                reply_relay: None,
            },
        };
        let (to, copy) = edge_forward(a(500), &conns, req.clone(), false).expect("forwarded");
        assert_eq!(to, ep(600));
        assert!(copy.edge_forwarded);
        assert_eq!(copy.hops, 3);
        assert_eq!(copy.body, req.body);
        assert!(edge_forward(a(500), &conns, req, true).is_none(), "exact");
        assert!(edge_forward(a(500), &conns, copy, false).is_none(), "once");
    }
}
