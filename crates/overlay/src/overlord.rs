//! Connection overlords.
//!
//! Brunet gives each connection type an *overlord* that continuously ensures
//! the node has the right connections of that type (§IV-E). Three live here:
//!
//! * [`NearOverlord`] — keeps `near_per_side` ring neighbours on each side,
//!   discovering better ones by querying current neighbours (stabilization,
//!   in the style of Chord) and trimming links that fall outside the
//!   horizon.
//! * [`FarOverlord`] — keeps `k` long links whose clockwise distances are
//!   log-uniform (Kleinberg's harmonic small-world distribution), giving the
//!   O((1/k)·log²n) greedy routing bound the paper cites.
//! * [`ShortcutOverlord`] — the paper's contribution: watches tunnelled
//!   traffic per destination with the queueing score
//!   `s_{i+1} = max(s_i + a_i − c, 0)` and asks for a direct connection when
//!   the score crosses a threshold; releases shortcuts that go idle. A node
//!   whose threshold no score can reach (shortcuts disabled) keeps no
//!   scores, only the idle clocks of `Shortcut` roles peers gave it; the
//!   per-peer record is one entry of an ordered table (`crate::table`).
//!
//! Overlords are pure deciders: they read the connection table and emit
//! [`OverlordCmd`]s, which the node executes once the whole round is
//! decided. That order is part of the behaviour: the far census reads the
//! table before the near overlord's trims run.

use rand::Rng;

use wow_netsim::time::{SimDuration, SimTime};

use crate::addr::{sample_far_target, Address};
use crate::config::OverlayConfig;
use crate::conn::{ConnTable, ConnType};
use crate::table::Table;

/// An action requested by an overlord.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlordCmd {
    /// Send a Connect-To-Me for this target and role.
    RequestCtm {
        /// Overlay address to connect to (or route toward, for far links).
        target: Address,
        /// Desired role.
        ctype: ConnType,
    },
    /// Remove a role from a connection (dropping it if that was the last).
    DropRole {
        /// Connection peer.
        peer: Address,
        /// Role to shed.
        ctype: ConnType,
    },
    /// Ask this neighbour for its ring neighbours.
    SendNeighborQuery {
        /// Connection peer.
        peer: Address,
    },
    /// Launch a self-addressed ring probe (routed find-my-successor).
    RingProbe,
    /// The node is fully isolated (no connections at all): fall through the
    /// introducer cache and restart the wildcard join. The node ignores
    /// this unless it really is disconnected and not already joining.
    Rebootstrap,
}

// ---------------------------------------------------------------- near ----

/// Ring probes back off to at most `stabilize_interval << PROBE_MAX_SHIFT`
/// apart (8×: 40 s with the default 5 s rounds) while the near set holds
/// still.
const PROBE_MAX_SHIFT: u32 = 3;

/// Maintains structured-near (ring neighbour) connections.
#[derive(Debug, Default)]
pub struct NearOverlord {
    next_stabilize: SimTime,
    /// The first stabilization round at or after this instant launches a
    /// ring probe. Queries and trims run every round; probes back off.
    next_probe: SimTime,
    /// The probe interval is `stabilize_interval << probe_shift`.
    probe_shift: u32,
}

impl NearOverlord {
    /// New overlord; first stabilization (and ring probe) due immediately.
    pub fn new() -> Self {
        NearOverlord::default()
    }

    /// When the next stabilization round is due. Probes only ever ride on
    /// a round, so this is the overlord's only deadline.
    pub fn next_deadline(&self) -> SimTime {
        self.next_stabilize
    }

    /// The structured-near set changed (a neighbour linked or lost, a trim,
    /// a rejoin): the ring around us may have moved, so probe at the next
    /// round and restart the back-off from one stabilize interval.
    pub fn near_set_changed(&mut self) {
        self.next_probe = SimTime::ZERO;
        self.probe_shift = 0;
    }

    /// Periodic stabilization: query neighbours, trim the horizon, and
    /// launch a ring probe when its backed-off interval has elapsed.
    pub fn poll(
        &mut self,
        now: SimTime,
        me: Address,
        conns: &ConnTable,
        cfg: &OverlayConfig,
        out: &mut Vec<OverlordCmd>,
    ) {
        if now < self.next_stabilize {
            return;
        }
        self.next_stabilize = now + cfg.stabilize_interval;
        if conns.is_empty() {
            // Nothing to stabilize against — the node has fallen off the
            // overlay entirely (every peer died, or a partition healed after
            // our links were reaped). Queries and probes would go nowhere;
            // ask the node to rejoin through its introducer cache instead.
            self.near_set_changed();
            out.push(OverlordCmd::Rebootstrap);
            return;
        }
        let k = cfg.near_per_side;
        // Ask current ring neighbours who *they* see; their answers surface
        // nodes between us that we should link to.
        for peer in conns.nearest_cw(me, k).chain(conns.nearest_ccw(me, k)) {
            out.push(OverlordCmd::SendNeighborQuery { peer });
        }
        // And verify the position globally: neighbour gossip alone can get
        // stuck in a local optimum after a mass join (a node whose "near"
        // links all point far away learns nothing useful from them). The
        // routed probe finds the true successor regardless. A probe that
        // finds a better neighbour links it, which resets the back-off
        // through `near_set_changed`; one that merely confirms a settled
        // horizon doubles the wait, so a converged ring pays keepalives and
        // queries, not a routed lookup per node per round. A node with no
        // near link at all (a joiner whose join CTM went unanswered) is not
        // on the ring yet: it probes every round.
        if now >= self.next_probe {
            let interval =
                SimDuration::from_micros(cfg.stabilize_interval.as_micros() << self.probe_shift);
            self.next_probe = now + interval;
            let routable = conns.with_type(ConnType::StructuredNear).next().is_some();
            self.probe_shift = if routable {
                (self.probe_shift + 1).min(PROBE_MAX_SHIFT)
            } else {
                0
            };
            out.push(OverlordCmd::RingProbe);
        }
        // Trim near roles outside the horizon — but only once both sides
        // are fully populated, so thin rings keep their links.
        let [Some(cw), Some(ccw)] = horizon(me, conns, k) else {
            return;
        };
        for c in conns.with_type(ConnType::StructuredNear) {
            if me.dist_cw(c.peer) > me.dist_cw(cw) && c.peer.dist_cw(me) > ccw.dist_cw(me) {
                out.push(OverlordCmd::DropRole {
                    peer: c.peer,
                    ctype: ConnType::StructuredNear,
                });
            }
        }
    }

    /// A neighbour reported its neighbours; connect to any that improve our
    /// ring horizon.
    pub fn on_neighbor_reply(
        &mut self,
        me: Address,
        conns: &ConnTable,
        neighbors: &[Address],
        cfg: &OverlayConfig,
        out: &mut Vec<OverlordCmd>,
    ) {
        let [cw_edge, ccw_edge] = horizon(me, conns, cfg.near_per_side);
        for &n in neighbors {
            // A peer we hold for another role only (typically a joiner's
            // leaf to its introducer) is still a candidate: skipping it
            // leaves a hole in the horizon that the next node out fills
            // and then trims, round after round.
            if n == me
                || conns
                    .get(n)
                    .is_some_and(|c| c.types.contains(ConnType::StructuredNear))
            {
                continue;
            }
            let improves_cw = cw_edge.is_none_or(|e| me.dist_cw(n) < me.dist_cw(e));
            let improves_ccw = ccw_edge.is_none_or(|e| n.dist_cw(me) < e.dist_cw(me));
            if improves_cw || improves_ccw {
                out.push(OverlordCmd::RequestCtm {
                    target: n,
                    ctype: ConnType::StructuredNear,
                });
            }
        }
    }
}

/// Our ring horizon's edges: the `k`-th nearest structured peer clockwise
/// and counter-clockwise, `None` while that side is short.
fn horizon(me: Address, conns: &ConnTable, k: usize) -> [Option<Address>; 2] {
    [
        conns.nearest_cw(me, k).nth(k - 1),
        conns.nearest_ccw(me, k).nth(k - 1),
    ]
}

// ----------------------------------------------------------------- far ----

/// Maintains `k` structured-far (small-world) connections.
#[derive(Debug, Default)]
pub struct FarOverlord {
    next_check: SimTime,
}

impl FarOverlord {
    /// New overlord; first census due immediately.
    pub fn new() -> Self {
        FarOverlord::default()
    }

    /// When the next census is due.
    pub fn next_deadline(&self) -> SimTime {
        self.next_check
    }

    /// Periodic census: acquire when short, shed when over.
    ///
    /// `pending` is the number of far CTMs the node already has in flight,
    /// so a slow WAN does not cause a thundering herd of requests.
    #[allow(clippy::too_many_arguments)]
    pub fn poll(
        &mut self,
        now: SimTime,
        me: Address,
        conns: &ConnTable,
        pending: usize,
        cfg: &OverlayConfig,
        rng: &mut impl Rng,
        out: &mut Vec<OverlordCmd>,
    ) {
        if now < self.next_check {
            return;
        }
        self.next_check = now + cfg.far_check_interval;
        let have = conns.with_type(ConnType::StructuredFar).count();
        if have + pending < cfg.far_count {
            // One request per round; the interval paces acquisition.
            // Sample distances log-uniformly from *just beyond the nearest
            // structured neighbour* up to half the ring (Symphony-style):
            // sampling below the local arc size would route the CTM back to
            // ourselves, wasting the round.
            let min_exp = conns
                .nearest_structured_dist(me)
                .and_then(|d| d.highest_bit())
                .map(|b| (b + 1).min(157))
                .unwrap_or(32);
            let target = sample_far_target(rng, me, min_exp);
            out.push(OverlordCmd::RequestCtm {
                target,
                ctype: ConnType::StructuredFar,
            });
        } else if have > cfg.far_count + 2 {
            // Hysteresis: incoming far links (other nodes' random targets)
            // continually arrive; shedding the moment we exceed k would
            // oscillate and churn routes. Tolerate a small surplus.
            // Shed the newest surplus links; the old ones have proven value
            // and other nodes may be routing through them.
            let mut fars: Vec<_> = conns.with_type(ConnType::StructuredFar).collect();
            fars.sort_by_key(|c| c.established_at);
            for c in fars.iter().skip(cfg.far_count) {
                out.push(OverlordCmd::DropRole {
                    peer: c.peer,
                    ctype: ConnType::StructuredFar,
                });
            }
        }
    }
}

// ------------------------------------------------------------ shortcut ----

/// What the shortcut overlord knows of one peer's tunnelled traffic.
#[derive(Clone, Copy, Debug)]
struct Traffic {
    /// The queueing score as of `last_seen`; 0 on a node that cannot score.
    score: f64,
    /// The last tunnelled packet to or from the peer.
    last_seen: SimTime,
    /// Whether `last_seen` runs a `Shortcut` role's idle clock. The first
    /// poll that finds the peer quiet for [`SHORTCUT_IDLE_TIMEOUT`] stops
    /// it; a role then counts from its connection's establishment, while
    /// an undrained score is kept for the next burst.
    clock: bool,
}

/// Shortcut score added per observed packet (the paper's `a_i` weight).
const SHORTCUT_ARRIVAL_WEIGHT: f64 = 1.0;
/// Shortcut score drained per second (the paper's service rate `c`).
const SHORTCUT_SERVICE_RATE: f64 = 1.5;
/// Shortcut connections are released after this long without traffic.
const SHORTCUT_IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Traffic-driven shortcut creation (§IV-E).
///
/// A node whose `shortcut_threshold` no score can reach (the paper's
/// "shortcuts disabled" baseline, [`OverlayConfig::without_shortcuts`])
/// keeps no scores: [`ShortcutOverlord::observe`] records only the idle
/// clock of a `Shortcut` role the node holds anyway, because it answers a
/// scoring peer's CTM with the role that peer asked for.
#[derive(Debug, Default)]
pub struct ShortcutOverlord {
    /// Per peer: kept while its score drains or its idle clock runs.
    traffic: Table<Address, Traffic>,
}

impl ShortcutOverlord {
    /// New overlord with empty score table.
    pub fn new() -> Self {
        ShortcutOverlord::default()
    }

    /// Current score for a destination (after decay to `now`).
    pub fn score(&self, peer: Address, now: SimTime) -> f64 {
        self.traffic
            .get(peer)
            .map(|e| {
                let dt = now.saturating_since(e.last_seen).as_secs_f64();
                (e.score - SHORTCUT_SERVICE_RATE * dt).max(0.0)
            })
            .unwrap_or(0.0)
    }

    /// The record of `peer`, created at `now`, with its idle clock running.
    fn heard(&mut self, now: SimTime, peer: Address) -> &mut Traffic {
        let e = self.traffic.get_or_insert_with(peer, || Traffic {
            score: 0.0,
            last_seen: now,
            clock: true,
        });
        e.clock = true;
        e
    }

    /// Score one tunnelled packet to/from `peer`: `true` when the score has
    /// crossed the threshold.
    fn on_traffic(&mut self, now: SimTime, peer: Address, cfg: &OverlayConfig) -> bool {
        let e = self.heard(now, peer);
        // The paper's virtual work queue: drain at rate c, add the arrival.
        let dt = now.saturating_since(e.last_seen).as_secs_f64();
        e.score = (e.score - SHORTCUT_SERVICE_RATE * dt).max(0.0) + SHORTCUT_ARRIVAL_WEIGHT;
        e.last_seen = now;
        e.score >= cfg.shortcut_threshold
    }

    /// Observe one tunnelled packet to/from `peer`. Returns `true` when its
    /// score has crossed the threshold and a shortcut should be requested
    /// (the caller checks connection state and the shortcut cap). Where no
    /// score can reach the threshold nothing is scored: the packet only
    /// runs the idle clock of a `Shortcut` role `conns` holds for `peer`.
    pub fn observe(
        &mut self,
        now: SimTime,
        peer: Address,
        conns: &ConnTable,
        cfg: &OverlayConfig,
    ) -> bool {
        if cfg.shortcut_threshold < f64::INFINITY {
            return self.on_traffic(now, peer, cfg);
        }
        if conns
            .get(peer)
            .is_some_and(|c| c.types.contains(ConnType::Shortcut))
        {
            self.heard(now, peer).last_seen = now;
        }
        false
    }

    /// Periodic housekeeping: release idle shortcuts, forget stale scores.
    pub fn poll(&mut self, now: SimTime, conns: &ConnTable, out: &mut Vec<OverlordCmd>) {
        for c in conns.with_type(ConnType::Shortcut) {
            let last = match self.traffic.get(c.peer) {
                Some(e) if e.clock => e.last_seen,
                _ => c.established_at,
            };
            if now.saturating_since(last) >= SHORTCUT_IDLE_TIMEOUT {
                out.push(OverlordCmd::DropRole {
                    peer: c.peer,
                    ctype: ConnType::Shortcut,
                });
            }
        }
        // Stop the idle clocks of quiet peers, and forget those whose score
        // has also drained; keeps the table bounded by the node's active
        // working set.
        self.traffic.retain(|_, e| {
            let silent = now.saturating_since(e.last_seen);
            let drained = e.score - SHORTCUT_SERVICE_RATE * silent.as_secs_f64() <= 0.0;
            let quiet = silent >= SHORTCUT_IDLE_TIMEOUT;
            e.clock &= !quiet;
            !(quiet && drained)
        });
    }

    /// Drop all state (node restart).
    pub fn clear(&mut self) {
        self.traffic.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::U160;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wow_netsim::addr::{PhysAddr, PhysIp};
    use wow_netsim::time::SimDuration;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn ep(port: u16) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, 0, 1), port)
    }

    fn cfg() -> OverlayConfig {
        OverlayConfig::default()
    }

    const T0: SimTime = SimTime::ZERO;

    // ---- near ----

    #[test]
    fn near_queries_current_neighbors() {
        let mut conns = ConnTable::new();
        conns.upsert(a(10), ConnType::StructuredNear, ep(1), T0);
        conns.upsert(a(990), ConnType::StructuredNear, ep(2), T0);
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        near.poll(T0, a(500), &conns, &cfg(), &mut out);
        let queried: Vec<_> = out
            .iter()
            .filter_map(|c| match c {
                OverlordCmd::SendNeighborQuery { peer } => Some(*peer),
                _ => None,
            })
            .collect();
        assert!(queried.contains(&a(10)));
        assert!(queried.contains(&a(990)));
        // Not due again until the interval passes.
        out.clear();
        near.poll(
            T0 + SimDuration::from_secs(1),
            a(500),
            &conns,
            &cfg(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn near_requests_rebootstrap_when_fully_isolated() {
        let conns = ConnTable::new();
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        near.poll(T0, a(500), &conns, &cfg(), &mut out);
        assert_eq!(out, vec![OverlordCmd::Rebootstrap]);
        // Still paced by the stabilize interval.
        out.clear();
        near.poll(
            T0 + SimDuration::from_secs(1),
            a(500),
            &conns,
            &cfg(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    /// A settled neighbourhood around me = 500: two near peers per side.
    fn settled() -> ConnTable {
        let mut conns = ConnTable::new();
        for v in [490u64, 495, 505, 510] {
            conns.upsert(a(v), ConnType::StructuredNear, ep(v as u16), T0);
        }
        conns
    }

    /// Poll every stabilize interval from `from` (inclusive) to `until`
    /// (exclusive) and return the rounds, in seconds, that launched a probe.
    fn probe_rounds(near: &mut NearOverlord, conns: &ConnTable, from: u64, until: u64) -> Vec<u64> {
        let mut probed = Vec::new();
        for t in (from..until).step_by(5) {
            let mut out = Vec::new();
            near.poll(SimTime::from_secs(t), a(500), conns, &cfg(), &mut out);
            if out.contains(&OverlordCmd::RingProbe) {
                probed.push(t);
            }
        }
        probed
    }

    #[test]
    fn ring_probe_interval_doubles_up_to_eight_rounds() {
        let conns = settled();
        let mut near = NearOverlord::new();
        // Waits of 5, 10, 20, then 40 s for good.
        assert_eq!(
            probe_rounds(&mut near, &conns, 0, 300),
            vec![0, 5, 15, 35, 75, 115, 155, 195, 235, 275]
        );
    }

    #[test]
    fn near_set_change_resets_the_probe_back_off() {
        let conns = settled();
        let mut near = NearOverlord::new();
        assert_eq!(
            probe_rounds(&mut near, &conns, 0, 80),
            vec![0, 5, 15, 35, 75]
        );
        // Capped: the next probe would be at 115. A neighbour links (or is
        // lost) before the round at 80: that round probes, and the back-off
        // starts over from one interval.
        near.near_set_changed();
        assert_eq!(
            probe_rounds(&mut near, &conns, 80, 160),
            vec![80, 85, 95, 115, 155]
        );
    }

    #[test]
    fn a_joiner_not_yet_routable_probes_every_round() {
        // A leaf to its introducer and a far link, but no near link: its
        // join CTM went unanswered, and the probe is its way onto the ring.
        let mut conns = ConnTable::new();
        conns.upsert(a(300), ConnType::Leaf, ep(300), T0);
        conns.upsert(a(900), ConnType::StructuredFar, ep(900), T0);
        let mut near = NearOverlord::new();
        assert_eq!(
            probe_rounds(&mut near, &conns, 0, 30),
            vec![0, 5, 10, 15, 20, 25]
        );
        // Its first near link starts the back-off.
        conns.upsert(a(505), ConnType::StructuredNear, ep(505), T0);
        near.near_set_changed();
        assert_eq!(
            probe_rounds(&mut near, &conns, 30, 70),
            vec![30, 35, 45, 65]
        );
    }

    #[test]
    fn isolation_resets_the_probe_back_off() {
        let conns = settled();
        let mut near = NearOverlord::new();
        probe_rounds(&mut near, &conns, 0, 80);
        let mut out = Vec::new();
        near.poll(
            SimTime::from_secs(80),
            a(500),
            &ConnTable::new(),
            &cfg(),
            &mut out,
        );
        assert_eq!(out, vec![OverlordCmd::Rebootstrap]);
        assert_eq!(probe_rounds(&mut near, &conns, 85, 100), vec![85, 90]);
    }

    #[test]
    fn queries_and_trims_keep_the_stabilize_cadence() {
        let mut conns = settled();
        conns.upsert(a(600), ConnType::StructuredNear, ep(600), T0);
        let mut near = NearOverlord::new();
        let mut rounds = 0;
        for t in (0..300).step_by(5) {
            let mut out = Vec::new();
            near.poll(SimTime::from_secs(t), a(500), &conns, &cfg(), &mut out);
            let queries = out
                .iter()
                .filter(|c| matches!(c, OverlordCmd::SendNeighborQuery { .. }))
                .count();
            assert_eq!(queries, 4, "round at {t} s queries every neighbour");
            assert!(
                out.contains(&OverlordCmd::DropRole {
                    peer: a(600),
                    ctype: ConnType::StructuredNear,
                }),
                "round at {t} s trims the horizon"
            );
            rounds += 1;
        }
        assert_eq!(rounds, 60);
        // Between rounds nothing runs, probe or not.
        let mut out = Vec::new();
        near.poll(SimTime::from_secs(298), a(500), &conns, &cfg(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn near_connects_to_reported_closer_node() {
        let mut conns = ConnTable::new();
        conns.upsert(a(100), ConnType::StructuredNear, ep(1), T0);
        conns.upsert(a(200), ConnType::StructuredNear, ep(2), T0);
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        // Peer reports a node at 60 — between me (50) and my cw list.
        near.on_neighbor_reply(a(50), &conns, &[a(60), a(100)], &cfg(), &mut out);
        assert!(out.contains(&OverlordCmd::RequestCtm {
            target: a(60),
            ctype: ConnType::StructuredNear,
        }));
        // Already-connected and self entries are ignored.
        assert!(!out
            .iter()
            .any(|c| matches!(c, OverlordCmd::RequestCtm { target, .. } if *target == a(100))));
    }

    #[test]
    fn near_claims_a_reported_neighbour_held_for_another_role() {
        // Me = 50 holds 60 as a leaf only (it introduced us): reported as a
        // ring neighbour, it is still requested as near.
        let mut conns = ConnTable::new();
        conns.upsert(a(60), ConnType::Leaf, ep(6), T0);
        conns.upsert(a(100), ConnType::StructuredNear, ep(1), T0);
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        near.on_neighbor_reply(a(50), &conns, &[a(60)], &cfg(), &mut out);
        assert_eq!(
            out,
            vec![OverlordCmd::RequestCtm {
                target: a(60),
                ctype: ConnType::StructuredNear,
            }]
        );
    }

    #[test]
    fn near_ignores_nodes_outside_horizon_when_full() {
        let mut conns = ConnTable::new();
        // Two per side around me=500 with per_side=2.
        for v in [490u64, 495, 505, 510] {
            conns.upsert(a(v), ConnType::StructuredNear, ep(v as u16), T0);
        }
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        near.on_neighbor_reply(a(500), &conns, &[a(800)], &cfg(), &mut out);
        assert!(out.is_empty(), "distant node must not trigger a near CTM");
    }

    #[test]
    fn near_trims_out_of_horizon_links_only_when_full() {
        let c = cfg();
        let mut conns = ConnTable::new();
        for v in [490u64, 495, 505, 510, 600] {
            conns.upsert(a(v), ConnType::StructuredNear, ep(v as u16), T0);
        }
        let mut near = NearOverlord::new();
        let mut out = Vec::new();
        near.poll(T0, a(500), &conns, &c, &mut out);
        assert!(out.contains(&OverlordCmd::DropRole {
            peer: a(600),
            ctype: ConnType::StructuredNear,
        }));
        // With a thin ring (one side short), nothing is trimmed.
        let mut thin = ConnTable::new();
        thin.upsert(a(505), ConnType::StructuredNear, ep(1), T0);
        thin.upsert(a(600), ConnType::StructuredNear, ep(2), T0);
        let mut near2 = NearOverlord::new();
        let mut out2 = Vec::new();
        near2.poll(T0, a(500), &thin, &c, &mut out2);
        assert!(!out2
            .iter()
            .any(|cmd| matches!(cmd, OverlordCmd::DropRole { .. })));
    }

    // ---- far ----

    #[test]
    fn far_acquires_until_k() {
        let c = cfg();
        let conns = ConnTable::new();
        let mut far = FarOverlord::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        far.poll(T0, a(0), &conns, 0, &c, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            OverlordCmd::RequestCtm {
                ctype: ConnType::StructuredFar,
                ..
            }
        ));
        // Pending requests count against the target.
        let mut out2 = Vec::new();
        let mut far2 = FarOverlord::new();
        far2.poll(T0, a(0), &conns, c.far_count, &c, &mut rng, &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn far_sheds_newest_surplus_beyond_hysteresis() {
        let c = cfg();
        let mut conns = ConnTable::new();
        // Within the k+2 hysteresis band: nothing shed.
        for (i, v) in [1000u64, 2000, 3000, 4000, 5000, 6000].iter().enumerate() {
            conns.upsert(
                a(*v),
                ConnType::StructuredFar,
                ep(i as u16),
                SimTime::from_secs(i as u64),
            );
        }
        let mut far = FarOverlord::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        far.poll(T0, a(0), &conns, 0, &c, &mut rng, &mut out);
        assert!(
            !out.iter()
                .any(|cmd| matches!(cmd, OverlordCmd::DropRole { .. })),
            "k+2 surplus is tolerated"
        );
        // Beyond the band (8 links, k=4): everything past k is shed,
        // newest first preserved order.
        conns.upsert(
            a(7000),
            ConnType::StructuredFar,
            ep(7),
            SimTime::from_secs(6),
        );
        conns.upsert(
            a(8000),
            ConnType::StructuredFar,
            ep(8),
            SimTime::from_secs(7),
        );
        let mut far2 = FarOverlord::new();
        let mut out2 = Vec::new();
        far2.poll(T0, a(0), &conns, 0, &c, &mut rng, &mut out2);
        let dropped: Vec<_> = out2
            .iter()
            .filter_map(|cmd| match cmd {
                OverlordCmd::DropRole { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, vec![a(5000), a(6000), a(7000), a(8000)]);
    }

    // ---- shortcut ----

    #[test]
    fn score_follows_queueing_recurrence() {
        let mut sc = ShortcutOverlord::new();
        let c = cfg(); // arrival 1.0, service 1.5/s, threshold 10
                       // A burst of 5 packets at the same instant: score 5.
        for _ in 0..5 {
            sc.on_traffic(T0, a(1), &c);
        }
        assert!((sc.score(a(1), T0) - 5.0).abs() < 1e-9);
        // Two seconds later, 3 units have drained.
        let t2 = T0 + SimDuration::from_secs(2);
        assert!((sc.score(a(1), t2) - 2.0).abs() < 1e-9);
        // Long idle: floors at zero.
        let t9 = T0 + SimDuration::from_secs(9);
        assert_eq!(sc.score(a(1), t9), 0.0);
    }

    #[test]
    fn sustained_traffic_crosses_threshold_sparse_traffic_does_not() {
        let c = cfg();
        // 2 packets/s against service 1.5/s: net +0.5/s → threshold 10 at 20 s.
        let mut sc = ShortcutOverlord::new();
        let mut crossed_at = None;
        for half_sec in 0..120 {
            let t = SimTime::from_millis(half_sec * 500);
            if sc.on_traffic(t, a(1), &c) {
                crossed_at = Some(t);
                break;
            }
        }
        let t = crossed_at.expect("sustained traffic must trigger");
        assert!(
            t >= SimTime::from_secs(15) && t <= SimTime::from_secs(25),
            "triggered at {t}"
        );
        // 1 packet/s against service 1.5/s never accumulates.
        let mut sc2 = ShortcutOverlord::new();
        for sec in 0..300 {
            assert!(!sc2.on_traffic(SimTime::from_secs(sec), a(2), &c));
        }
    }

    #[test]
    fn idle_shortcut_is_released() {
        let c = cfg();
        let mut sc = ShortcutOverlord::new();
        let mut conns = ConnTable::new();
        conns.upsert(a(1), ConnType::Shortcut, ep(1), T0);
        sc.on_traffic(T0, a(1), &c);
        let mut out = Vec::new();
        sc.poll(T0 + SimDuration::from_secs(60), &conns, &mut out);
        assert!(out.is_empty(), "not idle yet");
        sc.poll(T0 + SimDuration::from_secs(121), &conns, &mut out);
        assert_eq!(
            out,
            vec![OverlordCmd::DropRole {
                peer: a(1),
                ctype: ConnType::Shortcut,
            }]
        );
    }

    #[test]
    fn disabled_config_never_triggers() {
        let c = cfg().without_shortcuts();
        let mut sc = ShortcutOverlord::new();
        for i in 0..10_000u64 {
            assert!(!sc.on_traffic(SimTime::from_millis(i), a(1), &c));
        }
    }

    #[test]
    fn score_table_is_garbage_collected() {
        let c = cfg();
        let mut sc = ShortcutOverlord::new();
        for v in 0..100 {
            sc.on_traffic(T0, a(v), &c);
        }
        let conns = ConnTable::new();
        let mut out = Vec::new();
        sc.poll(T0 + SimDuration::from_secs(300), &conns, &mut out);
        assert_eq!(sc.traffic.len(), 0);
    }
}
