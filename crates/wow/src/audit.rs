//! Structural ring auditor for self-healing experiments.
//!
//! The faultlab harness (see `wow_netsim::fault`) injects crashes,
//! partitions and NAT expiries into a running overlay; this module answers
//! the question "did the ring actually heal?". It works on point-in-time
//! [`ConnSnapshot`]s of every *live* node's connection table — taken
//! between sim steps, so the checks are pure and re-runnable — and asserts
//! the structural invariants the paper's recovery experiments rely on:
//!
//! 1. **Ring connectivity** — every live node's nearest clockwise
//!    structured peer is exactly its successor in sorted address order, so
//!    the near-links form a single cycle over the live membership.
//! 2. **Mutual near-neighbours** — successor links are bidirectional
//!    `StructuredNear` connections, not one-sided leftovers.
//! 3. **No dangling links to the dead** — structured connections point only
//!    at live nodes (the failure detector has finished its sweep).
//! 4. **Greedy routability** — for sampled source/destination pairs, the
//!    greedy walk over the snapshots reaches the exact destination without
//!    exceeding a hop budget or stepping into a dead node.
//!
//! A passing [`AuditReport`] is the settle criterion of
//! [`crate::harness::settle`]: time-to-repair is the first audit after a
//! fault batch with no violations.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::Rng;

use wow_netsim::time::SimTime;
use wow_overlay::addr::Address;
use wow_overlay::conn::{ConnSnapshot, NextHop};

/// Result of one audit pass over a set of live-node snapshots.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Simulated time the snapshots were taken.
    pub at: SimTime,
    /// Number of live nodes audited.
    pub live: usize,
    /// Human-readable invariant violations; empty means the ring is healed.
    pub violations: Vec<String>,
    /// Greedy routing pairs attempted.
    pub pairs_checked: usize,
    /// Greedy routing pairs that reached their exact destination.
    pub pairs_routable: usize,
}

impl AuditReport {
    /// True if every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Minimum hop budget for the greedy routability walk, matching the
/// protocol's default TTL. At paper scale (n ≤ a few hundred) a healed
/// ring routes well inside this; the actual budget grows as ⌈log₂n⌉² for
/// large rings, because with a constant far-link count the Kleinberg
/// expectation is O(log²n / k) hops and its tail crosses 64 somewhere
/// around n = 10⁵ — a walk that long is slow, not lost.
const ROUTE_TTL_FLOOR: usize = 64;

/// Hop budget for a ring of `n` live nodes.
fn route_ttl(n: usize) -> usize {
    let log2n = usize::BITS - n.max(1).leading_zeros();
    ROUTE_TTL_FLOOR.max((log2n * log2n) as usize)
}

/// Audit the structural invariants over the live nodes' snapshots.
///
/// `samples` greedy routing pairs are drawn from `rng`; determinism is the
/// caller's problem (the churn runner derives the rng from the scenario
/// seed so the whole audit series replays bit-identically).
pub fn audit_ring(
    at: SimTime,
    snapshots: &[ConnSnapshot],
    samples: usize,
    rng: &mut SmallRng,
) -> AuditReport {
    let mut report = AuditReport {
        at,
        live: snapshots.len(),
        violations: Vec::new(),
        pairs_checked: 0,
        pairs_routable: 0,
    };
    let by_addr: BTreeMap<Address, &ConnSnapshot> = snapshots.iter().map(|s| (s.addr, s)).collect();
    let order: Vec<Address> = by_addr.keys().copied().collect();
    let n = order.len();
    // A lone survivor has no ring to form or route over, but it can still
    // hold links to the dead: invariant 3 applies to any non-empty set.
    let ring = n >= 2;

    for (i, &addr) in order.iter().enumerate() {
        let snap = by_addr[&addr];
        if ring {
            let want_succ = order[(i + 1) % n];

            // Invariant 1: ring connectivity (single cycle over live nodes).
            match snap.successor() {
                Some(s) if s == want_succ => {}
                got => report.violations.push(format!(
                    "ring: node {addr:?} sees successor {got:?}, expected {want_succ:?}"
                )),
            }

            // Invariant 2: the successor link is a mutual StructuredNear pair.
            if snap.has_near(want_succ) {
                if !by_addr[&want_succ].has_near(addr) {
                    report.violations.push(format!(
                        "mutual: {want_succ:?} lacks a near link back to {addr:?}"
                    ));
                }
            } else {
                report.violations.push(format!(
                    "mutual: node {addr:?} lacks a near link to successor {want_succ:?}"
                ));
            }
        }

        // Invariant 3: no structured connection points at a dead node.
        for c in snap.table.iter().filter(|c| c.types.is_structured()) {
            if !by_addr.contains_key(&c.peer) {
                report.violations.push(format!(
                    "dangling: node {addr:?} still links dead peer {:?}",
                    c.peer
                ));
            }
        }
    }
    if !ring {
        return report;
    }

    // Invariant 4: greedy routability between random live pairs.
    for _ in 0..samples {
        let src = order[rng.gen_range(0..n)];
        let dst = order[rng.gen_range(0..n)];
        report.pairs_checked += 1;
        match greedy_route(&by_addr, src, dst) {
            Ok(_hops) => report.pairs_routable += 1,
            Err(why) => report
                .violations
                .push(format!("route {src:?} -> {dst:?}: {why}")),
        }
    }
    report
}

/// Walk the greedy next-hop decision over the snapshots from `src` to
/// `dst`, excluding the arrival link at each hop exactly like the packet
/// path does. Returns the hop count on exact delivery.
fn greedy_route(
    by_addr: &BTreeMap<Address, &ConnSnapshot>,
    src: Address,
    dst: Address,
) -> Result<usize, String> {
    let ttl = route_ttl(by_addr.len());
    let mut cur = src;
    let mut prev: Option<Address> = None;
    for hops in 0..ttl {
        let snap = by_addr
            .get(&cur)
            .ok_or_else(|| format!("routed into dead node {cur:?} after {hops} hops"))?;
        let exclude: &[Address] = match &prev {
            Some(p) => std::slice::from_ref(p),
            None => &[],
        };
        match snap.table.next_hop(cur, dst, exclude) {
            NextHop::Local => {
                return if cur == dst {
                    Ok(hops)
                } else {
                    Err(format!("stranded at {cur:?} after {hops} hops"))
                };
            }
            NextHop::Relay(c) => {
                prev = Some(cur);
                cur = c.peer;
            }
        }
    }
    Err(format!("TTL exhausted ({ttl} hops)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wow_netsim::addr::{PhysAddr, PhysIp};
    use wow_overlay::addr::U160;
    use wow_overlay::conn::{ConnTable, ConnType};

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    fn ep(v: u16) -> PhysAddr {
        PhysAddr::new(PhysIp::new(10, 0, 0, 1), v)
    }

    /// A perfect ring over `addrs` (sorted), each node near-linked both
    /// ways, far links omitted.
    fn perfect_ring(addrs: &[Address]) -> Vec<ConnSnapshot> {
        let mut sorted = addrs.to_vec();
        sorted.sort();
        let n = sorted.len();
        sorted
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let mut table = ConnTable::new();
                let succ = sorted[(i + 1) % n];
                let pred = sorted[(i + n - 1) % n];
                table.upsert(succ, ConnType::StructuredNear, ep(1), SimTime::ZERO);
                table.upsert(pred, ConnType::StructuredNear, ep(2), SimTime::ZERO);
                ConnSnapshot { addr, table }
            })
            .collect()
    }

    #[test]
    fn perfect_ring_passes_all_invariants() {
        let addrs: Vec<Address> = (1..=8).map(|v| a(v * 100)).collect();
        let snaps = perfect_ring(&addrs);
        let mut rng = SmallRng::seed_from_u64(7);
        let report = audit_ring(SimTime::ZERO, &snaps, 32, &mut rng);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.pairs_routable, report.pairs_checked);
    }

    #[test]
    fn dangling_link_to_dead_node_is_flagged() {
        let addrs: Vec<Address> = (1..=6).map(|v| a(v * 100)).collect();
        let mut snaps = perfect_ring(&addrs);
        // Node 0 keeps a far link to an address nobody owns any more.
        snaps[0]
            .table
            .upsert(a(9999), ConnType::StructuredFar, ep(9), SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(7);
        let report = audit_ring(SimTime::ZERO, &snaps, 0, &mut rng);
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("dangling")));
    }

    /// A lone survivor has no ring invariants to check, but a structured
    /// link to a dead peer still means the failure detector has not
    /// finished: the audit must not call it healed.
    #[test]
    fn lone_survivor_linking_the_dead_is_flagged() {
        let mut snaps = perfect_ring(&[a(100), a(200)]);
        snaps.truncate(1);
        let mut rng = SmallRng::seed_from_u64(7);
        let report = audit_ring(SimTime::ZERO, &snaps, 16, &mut rng);
        assert!(!report.passed());
        assert!(report.violations[0].contains("dangling"));
        assert_eq!(report.pairs_checked, 0);

        // Once it drops the link, the survivor audits whole.
        snaps[0].table.remove_role(a(200), ConnType::StructuredNear);
        assert!(audit_ring(SimTime::ZERO, &snaps, 16, &mut rng).passed());
        assert!(audit_ring(SimTime::ZERO, &[], 16, &mut rng).passed());
    }

    #[test]
    fn one_sided_near_link_is_flagged() {
        let addrs: Vec<Address> = (1..=6).map(|v| a(v * 100)).collect();
        let mut snaps = perfect_ring(&addrs);
        // Snip node 1's near link back to node 0 (its predecessor).
        let me = snaps[1].addr;
        let pred = snaps[0].addr;
        snaps[1].table.remove_role(pred, ConnType::StructuredNear);
        let mut rng = SmallRng::seed_from_u64(7);
        let report = audit_ring(SimTime::ZERO, &snaps, 0, &mut rng);
        assert!(!report.passed());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("mutual") || v.contains("ring")),
            "{me:?}: {:?}",
            report.violations
        );
    }

    #[test]
    fn torn_ring_fails_routability() {
        // Only two "islands" linked internally: routing across must fail.
        let left: Vec<Address> = (1..=3).map(|v| a(v * 100)).collect();
        let right: Vec<Address> = (7..=9).map(|v| a(v * 100)).collect();
        let mut snaps = perfect_ring(&left);
        snaps.extend(perfect_ring(&right));
        let mut rng = SmallRng::seed_from_u64(7);
        let report = audit_ring(SimTime::ZERO, &snaps, 64, &mut rng);
        assert!(!report.passed());
        assert!(report.pairs_routable < report.pairs_checked);
    }
}
