//! One simulated-overlay harness for the self-healing experiments.
//!
//! Churn ([`crate::churn`]), the scale runs, the flash-crowd join storm and
//! the compound-chaos suite are configurations over the three pieces here:
//!
//! * an [`Overlay`] world — the simulator plus each node's host, actor,
//!   address and live-membership flag — with two start shapes: a
//!   bootstrapped [`public_overlay`] (node 0 is the bootstrap, starts
//!   staggered 200 ms apart) and a pre-wired ring ([`Overlay::seed_ring`]:
//!   near links on both sides plus caller-chosen far links, mirrored);
//! * [`Overlay::live_snapshots`] and [`Overlay::live_counters`] over the
//!   live membership, and [`Overlay::audit`] over those snapshots;
//! * one repair wait, [`settle`]: run to each time a poll [`Schedule`]
//!   yields, clamped to the deadline, audit, stop at the first pass.
//!
//! The harness draws no randomness of its own: the caller (or
//! [`public_overlay`]'s fixed labels) names every stream, so a seed replays
//! the same world, faults and audit verdicts.

use std::marker::PhantomData;

use rand::rngs::SmallRng;

use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::conn::{ConnSnapshot, ConnType};
use wow_overlay::node::BrunetNode;
use wow_overlay::prelude::{OverlayConfig, TelemetryCounters};
use wow_overlay::uri::TransportUri;

use crate::audit::{audit_ring, AuditReport};
use crate::simrt::{ForwardingCost, NoApp, OverlayApp, OverlayHost};

/// The UDP port every harness node binds.
pub const PORT: u16 = 4000;

/// A simulated overlay of end nodes running app `A`. Index `i` names the
/// same node in every per-node vector.
pub struct Overlay<A: OverlayApp> {
    /// The simulator.
    pub sim: Sim,
    /// Whether each node belongs to the audited membership. Callers clear
    /// it on a crash or a partition and set it again on rejoin.
    pub live: Vec<bool>,
    hosts: Vec<HostId>,
    actors: Vec<ActorId>,
    addrs: Vec<Address>,
    app: PhantomData<fn() -> A>,
}

impl<A: OverlayApp> Overlay<A> {
    /// An overlay with no nodes yet on `sim`.
    pub fn new(sim: Sim) -> Self {
        Overlay {
            sim,
            live: Vec::new(),
            hosts: Vec::new(),
            actors: Vec::new(),
            addrs: Vec::new(),
            app: PhantomData,
        }
    }

    /// Start `node` on `host` at `start`, bootstrapping from `bootstrap`;
    /// returns its index.
    pub fn add_node(
        &mut self,
        host: HostId,
        start: SimTime,
        node: BrunetNode,
        bootstrap: Vec<TransportUri>,
        app: A,
    ) -> usize {
        self.addrs.push(node.address());
        let actor = OverlayHost::new(node, PORT, bootstrap, ForwardingCost::end_node(), app);
        self.actors.push(self.sim.add_actor_at(host, start, actor));
        self.hosts.push(host);
        self.live.push(true);
        self.actors.len() - 1
    }

    /// Each node's [`OverlayHost`] actor.
    pub fn actors(&self) -> &[ActorId] {
        &self.actors
    }

    /// Each node's overlay address.
    pub fn addrs(&self) -> &[Address] {
        &self.addrs
    }

    /// Node `i`'s UDP endpoint.
    pub fn endpoint(&self, i: usize) -> PhysAddr {
        PhysAddr::new(self.sim.world_ref().host_ip(self.hosts[i]), PORT)
    }

    /// Run `f` on node `i`'s host actor.
    pub fn with<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut OverlayHost<A>, &mut Ctx<'_>) -> R,
    ) -> R {
        self.sim.with_actor::<OverlayHost<A>, _>(self.actors[i], f)
    }

    /// Wire the nodes added so far into a pre-wired ring: start them, then
    /// seed each with its `near_per_side` ring neighbours on each side and
    /// the far links `far[i]`, each far link mirrored on its target so it
    /// is symmetric. The nodes must have been added in address order.
    pub fn seed_ring(&mut self, near_per_side: usize, far: &[Vec<usize>]) {
        debug_assert!(self.addrs.windows(2).all(|w| w[0] < w[1]));
        // Process the start events so every node is running and bound.
        let now = self.sim.now();
        self.sim.run_until(now);
        let n = self.actors.len();
        let eps: Vec<PhysAddr> = (0..n).map(|i| self.endpoint(i)).collect();
        for i in 0..n {
            // Symmetric by construction: node i+1's first ccw neighbour is i.
            let mut conns: Vec<(Address, ConnType, PhysAddr)> = Vec::new();
            for d in 1..=near_per_side {
                let cw = (i + d) % n;
                let ccw = (i + n - d) % n;
                conns.push((self.addrs[cw], ConnType::StructuredNear, eps[cw]));
                if ccw != cw {
                    conns.push((self.addrs[ccw], ConnType::StructuredNear, eps[ccw]));
                }
            }
            for &j in &far[i] {
                conns.push((self.addrs[j], ConnType::StructuredFar, eps[j]));
            }
            self.with(i, |h, ctx| {
                for &(peer, t, ep) in &conns {
                    h.node_mut().seed_connection(ctx.now, peer, t, ep);
                }
            });
            let (me, my_ep) = (self.addrs[i], eps[i]);
            for &j in &far[i] {
                self.with(j, |h, ctx| {
                    h.node_mut()
                        .seed_connection(ctx.now, me, ConnType::StructuredFar, my_ep);
                });
            }
        }
    }

    /// Crash node `i`'s host and drop it from the live membership.
    pub fn crash(&mut self, i: usize) {
        self.live[i] = false;
        self.sim.world().crash_host(self.hosts[i]);
    }

    /// At `at`, bring node `i`'s host back with a clean slate and restart
    /// its node (the runtime keeps only its introducer cache). Rejoining
    /// the live membership is the caller's call.
    pub fn schedule_restart(&mut self, i: usize, at: SimTime) {
        let (host, actor) = (self.hosts[i], self.actors[i]);
        self.sim.schedule(at, move |sim| {
            sim.world().restart_host(host);
            sim.with_actor::<OverlayHost<A>, _>(actor, |h, ctx| h.restart_node(ctx));
        });
    }

    /// Every live node's connection table, in index order.
    pub fn live_snapshots(&mut self) -> Vec<ConnSnapshot> {
        let mut out = Vec::with_capacity(self.actors.len());
        for i in 0..self.actors.len() {
            if self.live[i] {
                out.push(self.with(i, |h, _| h.node().conn_snapshot()));
            }
        }
        out
    }

    /// Node telemetry merged over the live membership.
    pub fn live_counters(&mut self) -> TelemetryCounters {
        let mut total = TelemetryCounters::new();
        for i in 0..self.actors.len() {
            if self.live[i] {
                total.merge(&self.with(i, |h, _| h.counters()));
            }
        }
        total
    }

    /// Audit the live membership now, sampling `samples` greedy routes.
    pub fn audit(&mut self, samples: usize, rng: &mut SmallRng) -> AuditReport {
        let snaps = self.live_snapshots();
        audit_ring(self.sim.now(), &snaps, samples, rng)
    }
}

/// `n` public nodes on one wide-area domain: node 0 is the bootstrap,
/// starts are staggered 200 ms apart, addresses come from the `addresses`
/// stream and node seeds from `node`. `workers` pins the simulator's worker
/// count (`0` leaves it to the simulator).
pub fn public_overlay(seed: u64, n: usize, workers: usize) -> Overlay<NoApp> {
    let mut sim = Sim::new(seed);
    sim.set_workers(workers);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addresses");
    let mut net = Overlay::new(sim);
    let mut bootstrap = Vec::new();
    for i in 0..n {
        let host = net.sim.add_host(wan, HostSpec::new(format!("h{i}")));
        let node = BrunetNode::new(
            Address::random(&mut rng),
            OverlayConfig::default(),
            seeds.seed_for_indexed("node", i as u64),
        );
        let start = SimTime::from_millis(i as u64 * 200);
        net.add_node(host, start, node, bootstrap.clone(), NoApp);
        if i == 0 {
            bootstrap.push(TransportUri::udp(net.endpoint(0)));
        }
    }
    net
}

/// When [`settle`] audits: the first poll comes `first` after the start,
/// and each gap doubles up to `cap`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    first: SimDuration,
    cap: SimDuration,
}

impl Schedule {
    /// Gaps doubling from `poll` up to 8×: fine-grained while a repair is
    /// likely, cheap while a ring is still converging.
    pub fn backoff(poll: SimDuration) -> Self {
        Schedule {
            first: poll,
            cap: SimDuration::from_micros(poll.as_micros().saturating_mul(8)),
        }
    }

    /// A fixed `poll` grid.
    pub fn fixed(poll: SimDuration) -> Self {
        Schedule {
            first: poll,
            cap: poll,
        }
    }
}

/// What a [`settle`] wait found.
#[derive(Clone, Debug)]
pub struct Settled {
    /// The first poll whose audit passed, if one did by the deadline.
    pub repaired_at: Option<SimTime>,
    /// Audits made.
    pub polls: usize,
    /// The last audit: the passing one, or the failing one at the deadline.
    pub last: AuditReport,
}

/// Wait for a repair: for each time `schedule` yields after `from`, clamped
/// to `deadline`, `poll(t)` runs the world to `t` and audits it. Stops at
/// the first passing audit or after the audit at the deadline, which is
/// checked exactly, never overshot.
pub fn settle(
    from: SimTime,
    deadline: SimTime,
    schedule: Schedule,
    mut poll: impl FnMut(SimTime) -> AuditReport,
) -> Settled {
    let (mut t, mut gap) = (from, schedule.first.as_micros());
    let mut polls = 0;
    loop {
        t = (t + SimDuration::from_micros(gap)).min(deadline);
        gap = gap.saturating_mul(2).min(schedule.cap.as_micros());
        let last = poll(t);
        polls += 1;
        if last.passed() || t >= deadline {
            let repaired_at = last.passed().then_some(t);
            return Settled {
                repaired_at,
                polls,
                last,
            };
        }
    }
}

/// Print a failed audit's first violations to stderr under `stage`: an
/// `audit=false` cell in a CSV is useless without the why.
pub fn log_audit_failure(stage: &str, report: &AuditReport) {
    if report.passed() {
        return;
    }
    eprintln!(
        "[{stage}] audit FAILED over {} live nodes ({}/{} pairs routable):",
        report.live, report.pairs_routable, report.pairs_checked
    );
    for v in report.violations.iter().take(5) {
        eprintln!("[{stage}]   {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(at: SimTime, pass: bool) -> AuditReport {
        AuditReport {
            at,
            live: 0,
            violations: if pass { vec![] } else { vec!["torn".into()] },
            pairs_checked: 0,
            pairs_routable: 0,
        }
    }

    /// Offsets from `from` (whole seconds) of every poll a wait makes when
    /// the audit first passes at `pass_at` seconds after the start.
    fn polls(schedule: Schedule, settle_s: u64, pass_at: Option<u64>) -> (Vec<u64>, Settled) {
        let from = SimTime::from_secs(100);
        let mut seen = Vec::new();
        let out = settle(
            from,
            from + SimDuration::from_secs(settle_s),
            schedule,
            |t| {
                let off = t.saturating_since(from).as_secs_f64() as u64;
                seen.push(off);
                report(t, pass_at.is_some_and(|p| off >= p))
            },
        );
        (seen, out)
    }

    #[test]
    fn stops_at_the_first_pass_and_counts_polls() {
        let five = SimDuration::from_secs(5);
        let (seen, out) = polls(Schedule::backoff(five), 240, Some(30));
        assert_eq!(seen, [5, 15, 35]);
        assert_eq!(out.polls, 3);
        assert_eq!(out.repaired_at, Some(SimTime::from_secs(135)));
        assert!(out.last.passed());
    }

    #[test]
    fn the_last_poll_lands_exactly_on_the_deadline() {
        let five = SimDuration::from_secs(5);
        let (seen, out) = polls(Schedule::backoff(five), 100, None);
        assert_eq!(seen, [5, 15, 35, 75, 100]);
        assert_eq!(out.polls, 5);
        assert_eq!(out.repaired_at, None);
        assert!(!out.last.passed());
        assert_eq!(out.last.at, SimTime::from_secs(200));
    }

    #[test]
    fn backoff_doubles_from_the_poll_up_to_eight_times() {
        let five = SimDuration::from_secs(5);
        let (seen, _) = polls(Schedule::backoff(five), 155, None);
        assert_eq!(seen, [5, 15, 35, 75, 115, 155]);
    }

    #[test]
    fn the_fixed_grid_steps_evenly() {
        let ten = SimDuration::from_secs(10);
        let (seen, out) = polls(Schedule::fixed(ten), 45, Some(30));
        assert_eq!(seen, [10, 20, 30]);
        assert_eq!(out.repaired_at, Some(SimTime::from_secs(130)));
        let (seen, _) = polls(Schedule::fixed(ten), 45, None);
        assert_eq!(seen, [10, 20, 30, 40, 45]);
    }
}
