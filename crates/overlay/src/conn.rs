//! Connection types and the per-node connection table.
//!
//! A *connection* is an established, kept-alive overlay link to a peer over
//! which packets are routed. The paper distinguishes four types: leaf
//! (bootstrap access links), structured near (ring neighbours), structured
//! far (small-world long links) and shortcut (traffic-driven direct links).
//! One underlying link may serve several roles at once — e.g. a near
//! connection also carries shortcut traffic — so each table entry holds a
//! set of types.

use wow_netsim::addr::PhysAddr;
use wow_netsim::time::SimTime;

use crate::addr::{Address, U160};

/// Role of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConnType {
    /// Bootstrap access link; not used for general routing.
    Leaf,
    /// Ring-neighbour link ("structured near").
    StructuredNear,
    /// Small-world long link ("structured far").
    StructuredFar,
    /// Traffic-driven direct link.
    Shortcut,
}

impl ConnType {
    pub(crate) fn bit(self) -> u8 {
        match self {
            ConnType::Leaf => 1,
            ConnType::StructuredNear => 2,
            ConnType::StructuredFar => 4,
            ConnType::Shortcut => 8,
        }
    }

    /// Stable numeric id for the wire format.
    pub fn wire_id(self) -> u8 {
        match self {
            ConnType::Leaf => 0,
            ConnType::StructuredNear => 1,
            ConnType::StructuredFar => 2,
            ConnType::Shortcut => 3,
        }
    }

    /// Inverse of [`ConnType::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<ConnType> {
        Some(match id {
            0 => ConnType::Leaf,
            1 => ConnType::StructuredNear,
            2 => ConnType::StructuredFar,
            3 => ConnType::Shortcut,
            _ => return None,
        })
    }
}

/// A small set of [`ConnType`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnTypeSet(u8);

impl ConnTypeSet {
    /// The empty set.
    pub const EMPTY: ConnTypeSet = ConnTypeSet(0);

    /// A singleton set.
    pub fn only(t: ConnType) -> Self {
        ConnTypeSet(t.bit())
    }

    /// Insert a type.
    pub fn insert(&mut self, t: ConnType) {
        self.0 |= t.bit();
    }

    /// Remove a type.
    pub fn remove(&mut self, t: ConnType) {
        self.0 &= !t.bit();
    }

    /// Membership test.
    pub fn contains(self, t: ConnType) -> bool {
        self.0 & t.bit() != 0
    }

    /// True if no types remain.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the set contains any structured (routing-eligible) type.
    pub fn is_structured(self) -> bool {
        self.contains(ConnType::StructuredNear)
            || self.contains(ConnType::StructuredFar)
            || self.contains(ConnType::Shortcut)
    }
}

/// One established connection.
#[derive(Clone, Debug)]
pub struct Connection {
    /// The peer's overlay address.
    pub peer: Address,
    /// Roles this link currently serves.
    pub types: ConnTypeSet,
    /// The underlay endpoint that worked during linking; where we send.
    pub remote: PhysAddr,
    /// When the link was established.
    pub established_at: SimTime,
}

/// The connection table of one node, ordered by peer address.
#[derive(Clone, Debug, Default)]
pub struct ConnTable {
    // Sorted by peer address (= ring order); lookups binary-search.
    conns: Vec<Connection>,
    // Ordered ring index: the addresses of routing-eligible (structured)
    // connections, sorted. Maintained incrementally by every mutation, so
    // `next_hop` can binary-search the destination's ring position instead
    // of scanning the whole table — O(log n + excludes) per hop.
    structured: Vec<Address>,
    // Reverse index: (underlay endpoint, peer) pairs, sorted. Maps an
    // arriving datagram's source address back to the connection it belongs
    // to in O(log n), replacing the per-packet linear scan the forwarding
    // path used to do. Endpoints are not assumed unique — two peers behind
    // one NAT can present the same mapping — so lookups return the lowest
    // peer address, matching the old scan's first-in-address-order rule.
    by_remote: Vec<(PhysAddr, Address)>,
}

impl ConnTable {
    /// Empty table.
    pub fn new() -> Self {
        ConnTable::default()
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections exist.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Iterate over all connections in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter()
    }

    /// Look up by peer address.
    pub fn get(&self, peer: Address) -> Option<&Connection> {
        self.conns
            .binary_search_by(|c| c.peer.cmp(&peer))
            .ok()
            .map(|i| &self.conns[i])
    }

    /// The peer reachable at `remote`, if any — lowest address first when
    /// several share the endpoint. O(log n) against the reverse index.
    pub fn peer_by_remote(&self, remote: PhysAddr) -> Option<Address> {
        let i = self.by_remote.partition_point(|&(r, _)| r < remote);
        match self.by_remote.get(i) {
            Some(&(r, p)) if r == remote => Some(p),
            _ => None,
        }
    }

    fn remote_index_insert(&mut self, remote: PhysAddr, peer: Address) {
        if let Err(i) = self.by_remote.binary_search(&(remote, peer)) {
            self.by_remote.insert(i, (remote, peer));
        }
    }

    fn remote_index_remove(&mut self, remote: PhysAddr, peer: Address) {
        if let Ok(i) = self.by_remote.binary_search(&(remote, peer)) {
            self.by_remote.remove(i);
        }
    }

    /// Re-sync the ring index entry for `peer` after a type-set mutation.
    fn index_update(&mut self, peer: Address) {
        let eligible = self
            .conns
            .binary_search_by(|c| c.peer.cmp(&peer))
            .ok()
            .is_some_and(|i| self.conns[i].types.is_structured());
        match self.structured.binary_search(&peer) {
            Ok(i) if !eligible => {
                self.structured.remove(i);
            }
            Err(i) if eligible => self.structured.insert(i, peer),
            _ => {}
        }
    }

    /// Insert a new connection or add a role to an existing one.
    pub fn upsert(&mut self, peer: Address, t: ConnType, remote: PhysAddr, now: SimTime) -> Upsert {
        let outcome = match self.conns.binary_search_by(|c| c.peer.cmp(&peer)) {
            Ok(i) => {
                let new_role = !self.conns[i].types.contains(t);
                self.conns[i].types.insert(t);
                let old = self.conns[i].remote;
                if old != remote {
                    self.conns[i].remote = remote;
                    self.remote_index_remove(old, peer);
                    self.remote_index_insert(remote, peer);
                }
                Upsert {
                    new_peer: false,
                    new_role,
                }
            }
            Err(i) => {
                self.conns.insert(
                    i,
                    Connection {
                        peer,
                        types: ConnTypeSet::only(t),
                        remote,
                        established_at: now,
                    },
                );
                self.remote_index_insert(remote, peer);
                Upsert {
                    new_peer: true,
                    new_role: true,
                }
            }
        };
        self.index_update(peer);
        outcome
    }

    /// Update the proven underlay endpoint for a peer (NAT renumbering:
    /// the peer's keepalive arrived from a new mapping). Returns true if
    /// the endpoint changed.
    pub fn update_remote(&mut self, peer: Address, remote: PhysAddr) -> bool {
        if let Ok(i) = self.conns.binary_search_by(|c| c.peer.cmp(&peer)) {
            if self.conns[i].remote != remote {
                let old = self.conns[i].remote;
                self.conns[i].remote = remote;
                self.remote_index_remove(old, peer);
                self.remote_index_insert(remote, peer);
                return true;
            }
        }
        false
    }

    /// Remove a role from a connection; drops the connection entirely when
    /// its last role is removed. Returns true if the connection was dropped.
    pub fn remove_role(&mut self, peer: Address, t: ConnType) -> bool {
        let mut dropped = false;
        if let Ok(i) = self.conns.binary_search_by(|c| c.peer.cmp(&peer)) {
            self.conns[i].types.remove(t);
            if self.conns[i].types.is_empty() {
                let gone = self.conns.remove(i);
                self.remote_index_remove(gone.remote, peer);
                dropped = true;
            }
        }
        self.index_update(peer);
        dropped
    }

    /// Remove a connection entirely (link failure).
    pub fn remove(&mut self, peer: Address) -> Option<Connection> {
        let removed = match self.conns.binary_search_by(|c| c.peer.cmp(&peer)) {
            Ok(i) => Some(self.conns.remove(i)),
            Err(_) => None,
        };
        if let Some(c) = &removed {
            self.remote_index_remove(c.remote, peer);
        }
        self.index_update(peer);
        removed
    }

    /// Connections that carry a given role.
    pub fn with_type(&self, t: ConnType) -> impl Iterator<Item = &Connection> {
        self.conns.iter().filter(move |c| c.types.contains(t))
    }

    /// The `count` nearest structured-connected peers clockwise of `from`
    /// (excluding `from` itself), nearest first.
    ///
    /// Walks the sorted ring index forward from `from`'s position, wrapping
    /// once: O(log n + count). Addresses are distinct, so index order past
    /// `from` is exactly increasing clockwise distance.
    pub fn nearest_cw(&self, from: Address, count: usize) -> impl Iterator<Item = Address> + '_ {
        let n = self.structured.len();
        let start = self.structured.partition_point(|&p| p <= from);
        (0..n)
            .map(move |k| self.structured[(start + k) % n])
            .filter(move |&p| p != from)
            .take(count)
    }

    /// The `count` nearest structured-connected peers counter-clockwise of
    /// `from`, nearest first: the index walked backward from `from`'s
    /// position, as [`ConnTable::nearest_cw`] walks it forward.
    pub fn nearest_ccw(&self, from: Address, count: usize) -> impl Iterator<Item = Address> + '_ {
        let n = self.structured.len();
        let end = self.structured.partition_point(|&p| p < from);
        (1..=n)
            .map(move |k| self.structured[(end + n - k) % n])
            .filter(move |&p| p != from)
            .take(count)
    }

    /// The routing core a node's two forwarding paths share: the greedy
    /// [`ConnTable::next_hop`], never straight back to the peer a packet
    /// arrived from (`from`, looked up by endpoint) nor to `skip`.
    pub(crate) fn route(
        &self,
        me: Address,
        dst: Address,
        from: Option<PhysAddr>,
        skip: Option<Address>,
    ) -> NextHop<'_> {
        match (from.and_then(|r| self.peer_by_remote(r)), skip) {
            (Some(back), Some(skip)) => self.next_hop(me, dst, &[back, skip]),
            (back, skip) => self.next_hop(me, dst, back.or(skip).as_slice()),
        }
    }

    /// Greedy next hop for a packet addressed to `dst`, from a node whose
    /// own address is `me`.
    ///
    /// Considers structured connections only, plus leaf connections whose
    /// peer *is* the destination (so bootstrap targets can hand replies back
    /// to leaf-connected joiners). Returns:
    ///
    /// * `NextHop::Local` — no candidate is strictly closer to `dst` than we
    ///   are: we are the nearest node we know of.
    /// * `NextHop::Relay(conn)` — forward to this connection.
    ///
    /// `exclude` suppresses peers a packet must not be forwarded to: the
    /// link it arrived on (preventing two-node routing loops), and — for
    /// self-addressed ring probes — the destination itself, so the probe
    /// lands on the nearest *other* node.
    pub fn next_hop(&self, me: Address, dst: Address, exclude: &[Address]) -> NextHop<'_> {
        if dst == me {
            return NextHop::Local;
        }
        let excluded = |p: Address| exclude.contains(&p);
        // A direct link to the destination is ring distance zero — nothing
        // can beat it. This also covers the leaf exact-delivery rule
        // (bootstrap targets hand replies back to leaf-connected joiners).
        if let Some(c) = self.get(dst) {
            if !excluded(dst) {
                return NextHop::Relay(c);
            }
        }
        // The nearest structured peer to `dst` (by circular distance) is
        // either the first index entry clockwise of `dst` or the first
        // counter-clockwise — locate both by binary search, stepping past
        // excluded entries. On an equal-distance tie the smaller address
        // wins, matching the linear scan's first-in-address-order rule.
        let n = self.structured.len();
        let mut best: Option<Address> = None;
        let mut best_dist = me.ring_dist(dst);
        if n > 0 {
            let start = match self.structured.binary_search(&dst) {
                // `dst` itself can sit in the index only when its conn was
                // excluded above; the walks skip it via the exclude check.
                Ok(i) | Err(i) => i,
            };
            let succ = (0..n)
                .map(|k| self.structured[(start + k) % n])
                .find(|&p| !excluded(p));
            let pred = (1..=n)
                .map(|k| self.structured[(start + n - k) % n])
                .find(|&p| !excluded(p));
            for p in [pred, succ].into_iter().flatten() {
                let d = p.ring_dist(dst);
                let wins = match best {
                    _ if d < best_dist => true,
                    Some(b) => d == best_dist && p < b,
                    None => false,
                };
                if wins {
                    best_dist = d;
                    best = Some(p);
                }
            }
        }
        match best {
            Some(p) => NextHop::Relay(self.get(p).expect("indexed peer has a connection")),
            None => {
                // Gateway rule: a node with no structured connections (a
                // joiner) forwards everything through a leaf link.
                if self.structured.is_empty() {
                    if let Some(leaf) = self
                        .conns
                        .iter()
                        .find(|c| c.types.contains(ConnType::Leaf) && !excluded(c.peer))
                    {
                        return NextHop::Relay(leaf);
                    }
                }
                NextHop::Local
            }
        }
    }

    /// Ring distance from `me` to the nearest structured peer, if any —
    /// used to scale far-target sampling.
    pub fn nearest_structured_dist(&self, me: Address) -> Option<U160> {
        self.conns
            .iter()
            .filter(|c| c.types.is_structured())
            .map(|c| me.ring_dist(c.peer))
            .min()
    }
}

/// A point-in-time copy of one node's identity and connection table.
///
/// Taken by test auditors (the `wow` crate's ring auditor) to check
/// structural invariants — ring connectivity, mutual near-neighbour
/// consistency, greedy routability — across a whole overlay offline,
/// without the nodes being live while the checks run.
#[derive(Clone, Debug)]
pub struct ConnSnapshot {
    /// The node's own overlay address.
    pub addr: Address,
    /// A copy of its connection table at snapshot time.
    pub table: ConnTable,
}

impl ConnSnapshot {
    /// The node's current ring successor (nearest structured peer
    /// clockwise), if it has one.
    pub fn successor(&self) -> Option<Address> {
        self.table.nearest_cw(self.addr, 1).next()
    }

    /// The node's current ring predecessor (nearest structured peer
    /// counter-clockwise), if it has one.
    pub fn predecessor(&self) -> Option<Address> {
        self.table.nearest_ccw(self.addr, 1).next()
    }

    /// True if this node holds a `StructuredNear` link to `peer`.
    pub fn has_near(&self, peer: Address) -> bool {
        self.table
            .get(peer)
            .is_some_and(|c| c.types.contains(ConnType::StructuredNear))
    }
}

/// Result of [`ConnTable::upsert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upsert {
    /// The peer had no connection before this call.
    pub new_peer: bool,
    /// The role was not previously present on this connection.
    pub new_role: bool,
}

/// Routing decision from [`ConnTable::next_hop`].
#[derive(Debug)]
pub enum NextHop<'a> {
    /// This node is the closest it knows of; deliver (or drop) locally.
    Local,
    /// Forward over this connection.
    Relay(&'a Connection),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use wow_netsim::addr::PhysIp;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn ep(port: u16) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, 0, 1), port)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn typeset_ops() {
        let mut s = ConnTypeSet::only(ConnType::Leaf);
        assert!(s.contains(ConnType::Leaf));
        assert!(!s.is_structured());
        s.insert(ConnType::Shortcut);
        assert!(s.is_structured());
        s.remove(ConnType::Leaf);
        s.remove(ConnType::Shortcut);
        assert!(s.is_empty());
    }

    #[test]
    fn wire_id_roundtrip() {
        for t in [
            ConnType::Leaf,
            ConnType::StructuredNear,
            ConnType::StructuredFar,
            ConnType::Shortcut,
        ] {
            assert_eq!(ConnType::from_wire_id(t.wire_id()), Some(t));
        }
        assert_eq!(ConnType::from_wire_id(9), None);
    }

    #[test]
    fn upsert_merges_roles() {
        let mut t = ConnTable::new();
        let first = t.upsert(a(5), ConnType::StructuredNear, ep(1), T0);
        assert!(first.new_peer && first.new_role);
        let second = t.upsert(a(5), ConnType::Shortcut, ep(2), T0);
        assert!(!second.new_peer && second.new_role);
        let repeat = t.upsert(a(5), ConnType::Shortcut, ep(2), T0);
        assert!(!repeat.new_peer && !repeat.new_role);
        assert_eq!(t.len(), 1);
        let c = t.get(a(5)).unwrap();
        assert!(c.types.contains(ConnType::StructuredNear));
        assert!(c.types.contains(ConnType::Shortcut));
        assert_eq!(c.remote, ep(2), "remote refreshed by upsert");
    }

    #[test]
    fn remove_role_drops_on_last() {
        let mut t = ConnTable::new();
        t.upsert(a(5), ConnType::StructuredNear, ep(1), T0);
        t.upsert(a(5), ConnType::Shortcut, ep(1), T0);
        assert!(!t.remove_role(a(5), ConnType::Shortcut));
        assert!(t.remove_role(a(5), ConnType::StructuredNear));
        assert!(t.is_empty());
    }

    #[test]
    fn update_remote_roams_endpoint() {
        let mut t = ConnTable::new();
        t.upsert(a(5), ConnType::StructuredNear, ep(1), T0);
        assert!(t.update_remote(a(5), ep(2)), "endpoint changed");
        assert_eq!(t.get(a(5)).unwrap().remote, ep(2));
        assert!(!t.update_remote(a(5), ep(2)), "idempotent");
        assert!(!t.update_remote(a(9), ep(3)), "unknown peer ignored");
    }

    #[test]
    fn nearest_cw_ccw() {
        let mut t = ConnTable::new();
        for v in [10u64, 20, 30, 90] {
            t.upsert(a(v), ConnType::StructuredNear, ep(v as u16), T0);
        }
        assert!(t.nearest_cw(a(15), 2).eq([a(20), a(30)]));
        assert!(t.nearest_ccw(a(15), 2).eq([a(10), a(90)]));
        // Wrap-around: from 95, clockwise reaches 10 first.
        assert!(t.nearest_cw(a(95), 1).eq([a(10)]));
    }

    #[test]
    fn route_never_bounces_back_nor_returns_to_a_skipped_source() {
        let mut t = ConnTable::new();
        t.upsert(a(1000), ConnType::StructuredNear, ep(10), T0);
        t.upsert(a(5000), ConnType::StructuredFar, ep(50), T0);
        let via = |h: NextHop<'_>| match h {
            NextHop::Relay(c) => Some(c.peer),
            NextHop::Local => None,
        };
        assert_eq!(via(t.route(a(0), a(4800), None, None)), Some(a(5000)));
        assert_eq!(
            via(t.route(a(0), a(4800), Some(ep(99)), None)),
            Some(a(5000))
        );
        // Arrived over the link to 5000: never straight back.
        assert_eq!(
            via(t.route(a(0), a(4800), Some(ep(50)), None)),
            Some(a(1000))
        );
        assert_eq!(
            via(t.route(a(0), a(4800), None, Some(a(5000)))),
            Some(a(1000))
        );
        // Both excluded: nothing closer than us is left.
        assert_eq!(
            via(t.route(a(0), a(4800), Some(ep(50)), Some(a(1000)))),
            None
        );
    }

    #[test]
    fn greedy_next_hop_picks_closest() {
        let mut t = ConnTable::new();
        t.upsert(a(100), ConnType::StructuredNear, ep(1), T0);
        t.upsert(a(500), ConnType::StructuredFar, ep(2), T0);
        match t.next_hop(a(0), a(480), &[]) {
            NextHop::Relay(c) => assert_eq!(c.peer, a(500)),
            other => panic!("expected relay, got {other:?}"),
        }
        // Destination closer to me than to anyone I know: local.
        assert!(matches!(t.next_hop(a(0), a(3), &[]), NextHop::Local));
    }

    #[test]
    fn leaf_not_used_for_general_routing_but_exact_delivery_works() {
        let mut t = ConnTable::new();
        t.upsert(a(100), ConnType::Leaf, ep(1), T0);
        t.upsert(a(300), ConnType::StructuredNear, ep(2), T0);
        // dst 120 is nearest to the leaf peer, but leaf links don't route.
        match t.next_hop(a(0), a(120), &[]) {
            NextHop::Local => {}
            NextHop::Relay(c) => assert_ne!(c.peer, a(100), "leaf must not route"),
        }
        // Exact-match to the leaf peer does deliver over the leaf link.
        match t.next_hop(a(0), a(100), &[]) {
            NextHop::Relay(c) => assert_eq!(c.peer, a(100)),
            other => panic!("expected leaf relay, got {other:?}"),
        }
    }

    #[test]
    fn gateway_rule_for_structureless_joiner() {
        let mut t = ConnTable::new();
        t.upsert(a(100), ConnType::Leaf, ep(1), T0);
        // No structured connections: everything relays through the leaf.
        match t.next_hop(a(0), a(77), &[]) {
            NextHop::Relay(c) => assert_eq!(c.peer, a(100)),
            other => panic!("expected leaf gateway, got {other:?}"),
        }
        // ... except when that leaf is excluded (came from there).
        assert!(matches!(t.next_hop(a(0), a(77), &[a(100)]), NextHop::Local));
    }

    #[test]
    fn exclude_prevents_bounce_back() {
        let mut t = ConnTable::new();
        t.upsert(a(100), ConnType::StructuredNear, ep(1), T0);
        match t.next_hop(a(0), a(100), &[a(100)]) {
            NextHop::Local => {}
            other => panic!("expected local, got {other:?}"),
        }
    }

    /// Oracle: the linear scan [`ConnTable::peer_by_remote`] replaced.
    fn peer_by_remote_scan(t: &ConnTable, remote: PhysAddr) -> Option<Address> {
        t.conns.iter().find(|c| c.remote == remote).map(|c| c.peer)
    }

    /// Oracle: the linear scan [`ConnTable::next_hop`] replaced — walk the
    /// address-sorted table, first strictly closer eligible peer wins.
    fn next_hop_scan<'a>(
        t: &'a ConnTable,
        me: Address,
        dst: Address,
        exclude: &[Address],
    ) -> NextHop<'a> {
        if dst == me {
            return NextHop::Local;
        }
        let mut best: Option<&Connection> = None;
        let mut best_dist = me.ring_dist(dst);
        for c in t.conns.iter().filter(|c| !exclude.contains(&c.peer)) {
            let d = c.peer.ring_dist(dst);
            if (c.types.is_structured() || c.peer == dst) && d < best_dist {
                best_dist = d;
                best = Some(c);
            }
        }
        // Gateway rule: no structured connection at all, so any leaf will do.
        let gateway = || {
            let joiner = !t.conns.iter().any(|c| c.types.is_structured());
            t.conns
                .iter()
                .find(|c| joiner && c.types.contains(ConnType::Leaf) && !exclude.contains(&c.peer))
        };
        best.or_else(gateway).map_or(NextHop::Local, NextHop::Relay)
    }

    /// Oracle: the collect-and-sort [`ConnTable::nearest_cw`] replaced.
    fn nearest_cw_sort(t: &ConnTable, from: Address, count: usize) -> Vec<Address> {
        let mut peers: Vec<Address> = t
            .conns
            .iter()
            .filter(|c| c.types.is_structured())
            .map(|c| c.peer)
            .filter(|&p| p != from)
            .collect();
        peers.sort_by_key(|&p| from.dist_cw(p));
        peers.truncate(count);
        peers
    }

    /// Oracle: the collect-and-sort [`ConnTable::nearest_ccw`] replaced.
    fn nearest_ccw_sort(t: &ConnTable, from: Address, count: usize) -> Vec<Address> {
        let mut peers: Vec<Address> = t
            .conns
            .iter()
            .filter(|c| c.types.is_structured())
            .map(|c| c.peer)
            .filter(|&p| p != from)
            .collect();
        peers.sort_by_key(|&p| p.dist_cw(from));
        peers.truncate(count);
        peers
    }

    /// The index walks must return exactly what sorting every structured
    /// peer by ring distance returns, on random tables with leaves
    /// interleaved, `from` in the table and not, `count` of 0, 1, up to and
    /// past the table size, and an empty index (leaves only, or nothing).
    #[test]
    fn nearest_walks_agree_with_sort_on_random_tables() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let types = [
            ConnType::Leaf,
            ConnType::StructuredNear,
            ConnType::StructuredFar,
            ConnType::Shortcut,
        ];
        let mut rng = SmallRng::seed_from_u64(0x5EED_0A11);
        let mut empty_index = 0;
        for _case in 0..400 {
            let mut t = ConnTable::new();
            let universe = rng.gen_range(1u64..48);
            for _ in 0..rng.gen_range(0usize..24) {
                let peer = a(rng.gen_range(0..universe));
                let ty = types[rng.gen_range(0..types.len())];
                t.upsert(peer, ty, ep(rng.gen_range(1u16..9999)), T0);
            }
            for _ in 0..rng.gen_range(0usize..6) {
                let peer = a(rng.gen_range(0..universe));
                if rng.gen_bool(0.5) {
                    t.remove_role(peer, types[rng.gen_range(0..types.len())]);
                } else {
                    t.remove(peer);
                }
            }
            empty_index += usize::from(t.structured.is_empty());
            let n = t.structured.len();
            for _query in 0..20 {
                // A table member (present), a point of the universe (often
                // absent, between members), or anywhere on the ring.
                let from = match (rng.gen_range(0u8..3), t.conns.len()) {
                    (0, len) if len > 0 => t.conns[rng.gen_range(0..len)].peer,
                    (1, _) => a(rng.gen_range(0..universe + 2)),
                    _ => Address::random(&mut rng),
                };
                for count in [0, 1, 2, n, n + 3] {
                    assert_eq!(
                        t.nearest_cw(from, count).collect::<Vec<_>>(),
                        nearest_cw_sort(&t, from, count),
                        "cw from={from:?} count={count}"
                    );
                    assert_eq!(
                        t.nearest_ccw(from, count).collect::<Vec<_>>(),
                        nearest_ccw_sort(&t, from, count),
                        "ccw from={from:?} count={count}"
                    );
                }
            }
        }
        assert!(empty_index > 0, "no case had an empty index");
    }

    /// The reverse (endpoint → peer) index must agree with the linear-scan
    /// reference on arbitrary tables churned by every mutation that can move
    /// an endpoint: upsert with a fresh remote, `update_remote` roaming,
    /// role removal and full removal.
    #[test]
    fn peer_by_remote_agrees_with_scan_on_random_tables() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let types = [
            ConnType::Leaf,
            ConnType::StructuredNear,
            ConnType::StructuredFar,
            ConnType::Shortcut,
        ];
        let mut rng = SmallRng::seed_from_u64(0xBEEF_CAFE);
        for _case in 0..400 {
            let mut t = ConnTable::new();
            // Small endpoint universe so collisions (two peers behind one
            // NAT mapping) and misses both occur.
            let universe = rng.gen_range(4u64..40);
            let ports = rng.gen_range(2u16..16);
            for _ in 0..rng.gen_range(0usize..24) {
                let peer = a(rng.gen_range(0..universe));
                let ty = types[rng.gen_range(0..types.len())];
                t.upsert(peer, ty, ep(rng.gen_range(1..=ports)), T0);
            }
            for _ in 0..rng.gen_range(0usize..8) {
                let peer = a(rng.gen_range(0..universe));
                match rng.gen_range(0u8..3) {
                    0 => {
                        t.remove_role(peer, types[rng.gen_range(0..types.len())]);
                    }
                    1 => {
                        t.remove(peer);
                    }
                    _ => {
                        t.update_remote(peer, ep(rng.gen_range(1..=ports)));
                    }
                }
            }
            // Every live endpoint resolves identically to the scan, and the
            // index never invents entries for endpoints nobody holds.
            for port in 1..=ports + 2 {
                let remote = ep(port);
                assert_eq!(
                    t.peer_by_remote(remote),
                    peer_by_remote_scan(&t, remote),
                    "index and scan disagree for {remote:?}"
                );
            }
        }
    }

    /// The ordered-index `next_hop` must agree with the linear-scan
    /// reference on arbitrary tables, destinations and exclude lists —
    /// including tables churned by role removal and full peer removal (which
    /// exercise the incremental index maintenance).
    #[test]
    fn next_hop_index_agrees_with_scan_on_random_tables() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let types = [
            ConnType::Leaf,
            ConnType::StructuredNear,
            ConnType::StructuredFar,
            ConnType::Shortcut,
        ];
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _case in 0..400 {
            let mut t = ConnTable::new();
            // Small address universe so exact matches, ties at dst ± d and
            // excluded-destination cases all actually occur.
            let universe = rng.gen_range(4u64..40);
            for _ in 0..rng.gen_range(0usize..24) {
                let peer = a(rng.gen_range(0..universe));
                let ty = types[rng.gen_range(0..types.len())];
                t.upsert(peer, ty, ep(rng.gen_range(1u16..9999)), T0);
            }
            // Churn: some role drops and full removals.
            for _ in 0..rng.gen_range(0usize..6) {
                let peer = a(rng.gen_range(0..universe));
                if rng.gen_bool(0.5) {
                    t.remove_role(peer, types[rng.gen_range(0..types.len())]);
                } else {
                    t.remove(peer);
                }
            }
            for _query in 0..20 {
                let me = a(rng.gen_range(0..universe));
                let dst = a(rng.gen_range(0..universe));
                let mut exclude = Vec::new();
                for _ in 0..rng.gen_range(0usize..6) {
                    exclude.push(a(rng.gen_range(0..universe)));
                }
                let fast = t.next_hop(me, dst, &exclude);
                let slow = next_hop_scan(&t, me, dst, &exclude);
                match (&fast, &slow) {
                    (NextHop::Local, NextHop::Local) => {}
                    (NextHop::Relay(f), NextHop::Relay(s)) => {
                        assert_eq!(
                            f.peer, s.peer,
                            "index and scan disagree: me={me:?} dst={dst:?} \
                             exclude={exclude:?}"
                        );
                    }
                    _ => panic!(
                        "index {fast:?} vs scan {slow:?}: me={me:?} dst={dst:?} \
                         exclude={exclude:?}"
                    ),
                }
            }
        }
    }
}
