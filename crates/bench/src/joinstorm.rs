//! Flash-crowd join storm: 10⁴–10⁵ nodes join a small live core inside a
//! simulated minute, through the decentralized multi-introducer bootstrap.
//!
//! Where the scale harness (`scale.rs`) *avoids* the join path by seeding a
//! pre-wired ring, this harness measures exactly that path under the worst
//! realistic load: a flash crowd. A small core ring (seeded, then warmed on
//! the real protocol) exposes `introducers` of its members as introducer
//! URIs; every joiner gets a seeded random subset of them in its introducer
//! cache and performs a real §IV-C join — wildcard link to one introducer
//! at a time, self-addressed CTM relayed via the leaf, near links, routable.
//! Joiner start times are staggered over the first `stagger_frac` of the
//! window so that late joiners still have time to finish inside it.
//!
//! Recorded per joiner: time from node start to the first structured-near
//! connection (routability — the same definition as `join_cdf_routable.csv`,
//! which this harness's CDF is compared against). After the window the ring
//! auditor polls on a doubling backoff until the merged ring — core plus
//! every joiner — is structurally whole.

use rand::Rng;

use wow::audit::audit_ring;
use wow::simrt::{ForwardingCost, NodeHandle, OverlayApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::{ConnSnapshot, ConnType};
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::Counter;

use crate::scale::{peak_rss_mib, PhaseMetrics};

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct JoinStormConfig {
    /// Root seed; addresses, introducer subsets and stagger jitter all
    /// derive from it.
    pub seed: u64,
    /// Pre-wired core ring size (the overlay that exists before the storm).
    pub core: usize,
    /// Core members advertised as introducers.
    pub introducers: usize,
    /// Flash-crowd size.
    pub joiners: usize,
    /// Introducer URIs handed to each joiner (its initial cache).
    pub per_joiner: usize,
    /// Core warm-up on the real protocol before the storm begins.
    pub warm: SimDuration,
    /// The storm window ("a simulated minute"): every join should complete
    /// inside it.
    pub window: SimDuration,
    /// Joiner starts are staggered over this leading fraction of the
    /// window.
    pub stagger_frac: f64,
    /// Post-window bound for the full-ring audit to come back clean.
    pub settle: SimDuration,
    /// Initial audit poll interval (doubles per failed audit, capped).
    pub poll: SimDuration,
    /// Greedy routing pairs sampled per audit pass.
    pub route_samples: usize,
}

impl JoinStormConfig {
    /// Defaults at a given storm size: 64-node core, 8 introducers, 3
    /// cached per joiner, 60 s window with starts over the first 80%.
    pub fn at(joiners: usize) -> Self {
        JoinStormConfig {
            seed: 0x10157,
            core: 64,
            introducers: 8,
            joiners,
            per_joiner: 3,
            warm: SimDuration::from_secs(10),
            window: SimDuration::from_secs(60),
            stagger_frac: 0.8,
            settle: SimDuration::from_secs(240),
            poll: SimDuration::from_secs(5),
            route_samples: 64,
        }
    }
}

/// Outcome of one storm.
#[derive(Clone, Debug)]
pub struct JoinStormResult {
    /// Core ring size.
    pub core: usize,
    /// Joiners launched.
    pub joiners: usize,
    /// Joiners routable by the end of the run.
    pub joined: usize,
    /// Joiners routable within the storm window.
    pub in_window: usize,
    /// Per-joiner seconds from start to routability (only joined ones),
    /// sorted ascending.
    pub latencies: Vec<f64>,
    /// Whether the core audited clean after warm-up.
    pub core_audit_ok: bool,
    /// Whether the merged ring audited clean within the settle bound.
    pub audit_ok: bool,
    /// Seconds from window end to the first clean full audit.
    pub repair_s: Option<f64>,
    /// Audit passes spent waiting for the full ring (backoff-paced).
    pub audit_polls: u32,
    /// Storm + settle phase numbers.
    pub storm: PhaseMetrics,
    /// Network-wide introducer fallbacks (cache fall-throughs) observed.
    pub introducer_fallbacks: u64,
    /// Peak resident set size over the process lifetime, MiB.
    pub peak_rss_mib: f64,
}

impl JoinStormResult {
    /// Join-latency percentile in seconds (over joined nodes).
    pub fn percentile(&self, q: f64) -> f64 {
        wow_netsim::trace::percentile(&self.latencies, q).unwrap_or(f64::NAN)
    }
}

/// Records the moment this node first became routable.
struct JoinClock {
    joined: Option<SimTime>,
}

impl OverlayApp for JoinClock {
    fn on_connected(&mut self, h: &mut NodeHandle<'_, '_>, _peer: Address, ctype: ConnType) {
        if ctype == ConnType::StructuredNear && self.joined.is_none() {
            self.joined = Some(h.now());
        }
    }
}

const PORT: u16 = 4000;

/// Run the storm.
pub fn run(cfg: &JoinStormConfig) -> JoinStormResult {
    let seeds = SeedSplitter::new(cfg.seed);

    // Addresses: core plus joiners drawn from one stream (160-bit random
    // addresses; collisions are beyond astronomically unlikely).
    let mut addr_rng = seeds.rng("storm-addresses");
    let total = cfg.core + cfg.joiners;
    let addrs: Vec<Address> = (0..total).map(|_| Address::random(&mut addr_rng)).collect();
    let (core_addrs, join_addrs) = addrs.split_at(cfg.core);
    let mut ring: Vec<Address> = core_addrs.to_vec();
    ring.sort();

    let mut sim = Sim::new(cfg.seed);
    // One worker: the storm funnels every join through a few introducers,
    // and at 10k joiners two workers ran it slower than one (EXPERIMENTS.md
    // "The simulator picks its own worker count").
    sim.set_workers(1);
    let wan = sim.add_domain(DomainSpec::public("wan"));

    // --- core: seeded ring, exactly the scale-harness idiom ---
    let overlay = OverlayConfig::default();
    let mut core_actors = Vec::with_capacity(cfg.core);
    let mut core_eps = Vec::with_capacity(cfg.core);
    for (i, &addr) in ring.iter().enumerate() {
        let host = sim.add_host(wan, HostSpec::new(format!("c{i}")));
        let node = BrunetNode::new(
            addr,
            overlay.clone(),
            seeds.seed_for_indexed("core-node", i as u64),
        );
        let actor = sim.add_actor(
            host,
            OverlayHost::new(
                node,
                PORT,
                Vec::new(),
                ForwardingCost::end_node(),
                JoinClock { joined: None },
            ),
        );
        core_eps.push(PhysAddr::new(sim.world().host_ip(host), PORT));
        core_actors.push(actor);
    }
    sim.run_until(SimTime::ZERO);
    let n = ring.len();
    for i in 0..n {
        let mut conns: Vec<(Address, ConnType, PhysAddr)> = Vec::new();
        for d in 1..=overlay.near_per_side {
            let cw = (i + d) % n;
            let ccw = (i + n - d) % n;
            conns.push((ring[cw], ConnType::StructuredNear, core_eps[cw]));
            if ccw != cw {
                conns.push((ring[ccw], ConnType::StructuredNear, core_eps[ccw]));
            }
        }
        // A couple of symmetric far chords so early greedy routing across
        // the core is not O(n).
        let far = (i + n / 4).max(i + 2) % n;
        if far != i {
            conns.push((ring[far], ConnType::StructuredFar, core_eps[far]));
        }
        sim.with_actor::<OverlayHost<JoinClock>, _>(core_actors[i], move |h, ctx| {
            let now = ctx.now;
            for &(peer, t, ep) in &conns {
                h.node_mut().seed_connection(now, peer, t, ep);
            }
        });
        if far != i {
            let (me, ep) = (ring[i], core_eps[i]);
            sim.with_actor::<OverlayHost<JoinClock>, _>(core_actors[far], move |h, ctx| {
                h.node_mut()
                    .seed_connection(ctx.now, me, ConnType::StructuredFar, ep);
            });
        }
    }

    // Warm the core on the real protocol, then audit it.
    sim.run_until(SimTime::ZERO + cfg.warm);
    let mut audit_rng = seeds.rng("storm-audit");
    let core_snaps: Vec<ConnSnapshot> = core_actors
        .iter()
        .map(|&a| sim.with_actor::<OverlayHost<JoinClock>, _>(a, |h, _| h.node().conn_snapshot()))
        .collect();
    let core_report = audit_ring(sim.now(), &core_snaps, cfg.route_samples, &mut audit_rng);
    let core_audit_ok = core_report.passed();
    drop(core_snaps);

    // --- the storm ---
    let intro_eps: Vec<PhysAddr> = core_eps
        .iter()
        .take(cfg.introducers.max(1))
        .copied()
        .collect();
    let storm_start = sim.now();
    let stagger_us = (cfg.window.as_micros() as f64 * cfg.stagger_frac.clamp(0.0, 1.0)) as u64;
    let mut storm_rng = seeds.rng("storm-joiners");
    let mut joiner_actors = Vec::with_capacity(cfg.joiners);
    let mut joiner_starts = Vec::with_capacity(cfg.joiners);
    for (j, &addr) in join_addrs.iter().enumerate() {
        let host = sim.add_host(wan, HostSpec::new(format!("j{j}")));
        // Partial Fisher–Yates: the first `per_joiner` slots end up holding
        // a uniform random subset, in random order.
        let mut my_intros = intro_eps.clone();
        let want = cfg.per_joiner.clamp(1, my_intros.len());
        for k in 0..want {
            let pick = storm_rng.gen_range(k..my_intros.len());
            my_intros.swap(k, pick);
        }
        my_intros.truncate(want);
        let bootstrap = my_intros
            .into_iter()
            .map(wow_overlay::uri::TransportUri::udp)
            .collect();
        let node = BrunetNode::new(
            addr,
            overlay.clone(),
            seeds.seed_for_indexed("join-node", j as u64),
        );
        let start_at = storm_start + SimDuration::from_micros(storm_rng.gen_range(0..=stagger_us));
        let actor = sim.add_actor_at(
            host,
            start_at,
            OverlayHost::new(
                node,
                PORT,
                bootstrap,
                ForwardingCost::end_node(),
                JoinClock { joined: None },
            ),
        );
        joiner_actors.push(actor);
        joiner_starts.push(start_at);
    }

    let window_end = storm_start + cfg.window;
    let ev0 = sim.events_processed();
    let wall = std::time::Instant::now();
    sim.run_until(window_end);

    // How many made it inside the window (sampled before settle runs on).
    let joined_at = |sim: &mut Sim, actor| {
        sim.with_actor::<OverlayHost<JoinClock>, _>(actor, |h, _| h.app().joined)
    };
    let mut in_window = 0usize;
    for &actor in &joiner_actors {
        if joined_at(&mut sim, actor).is_some_and(|t| t <= window_end) {
            in_window += 1;
        }
    }

    // --- settle: poll the merged ring on a doubling backoff ---
    let deadline = window_end + cfg.settle;
    let mut audit_polls = 0u32;
    let mut repaired_at = None;
    let mut interval = cfg.poll;
    let max_interval = SimDuration::from_micros(cfg.poll.as_micros().saturating_mul(8));
    loop {
        let mut snaps: Vec<ConnSnapshot> = Vec::with_capacity(cfg.core + cfg.joiners);
        for &a in core_actors.iter().chain(joiner_actors.iter()) {
            snaps.push(
                sim.with_actor::<OverlayHost<JoinClock>, _>(a, |h, _| h.node().conn_snapshot()),
            );
        }
        audit_polls += 1;
        let report = audit_ring(sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
        if report.passed() {
            repaired_at = Some(sim.now());
            break;
        }
        if sim.now() >= deadline {
            eprintln!(
                "[joinstorm] final audit FAILED over {} live nodes ({}/{} pairs routable):",
                report.live, report.pairs_routable, report.pairs_checked
            );
            for v in report.violations.iter().take(5) {
                eprintln!("[joinstorm]   {v}");
            }
            break;
        }
        let next = (sim.now() + interval).min(deadline);
        interval = SimDuration::from_micros(
            interval
                .as_micros()
                .saturating_mul(2)
                .min(max_interval.as_micros()),
        );
        sim.run_until(next);
    }
    let storm = PhaseMetrics {
        sim_s: sim.now().saturating_since(storm_start).as_secs_f64(),
        events: sim.events_processed() - ev0,
        wall_s: wall.elapsed().as_secs_f64(),
    };

    // --- collect latencies ---
    let mut latencies = Vec::with_capacity(cfg.joiners);
    let mut joined = 0usize;
    let mut fallbacks = 0u64;
    for (j, &actor) in joiner_actors.iter().enumerate() {
        if let Some(t) = joined_at(&mut sim, actor) {
            joined += 1;
            latencies.push(t.saturating_since(joiner_starts[j]).as_secs_f64());
        }
        fallbacks += sim.with_actor::<OverlayHost<JoinClock>, _>(actor, |h, _| {
            h.counters().get(Counter::IntroducerFallback)
        });
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("join latencies are finite"));

    JoinStormResult {
        core: cfg.core,
        joiners: cfg.joiners,
        joined,
        in_window,
        latencies,
        core_audit_ok,
        audit_ok: repaired_at.is_some(),
        repair_s: repaired_at.map(|t| t.saturating_since(window_end).as_secs_f64().max(0.0)),
        audit_polls,
        storm,
        introducer_fallbacks: fallbacks,
        peak_rss_mib: peak_rss_mib(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small storm joins everyone inside the window and the merged ring
    /// audits clean — the CI job runs the same assertions at 10k.
    #[test]
    fn small_storm_joins_inside_window_and_audits_clean() {
        let cfg = JoinStormConfig {
            joiners: 96,
            settle: SimDuration::from_secs(300),
            ..JoinStormConfig::at(96)
        };
        let out = run(&cfg);
        assert!(out.core_audit_ok, "core must audit clean before the storm");
        assert_eq!(out.joined, cfg.joiners, "every joiner must become routable");
        assert!(
            out.in_window * 100 >= cfg.joiners * 99,
            "joins must complete inside the minute: {}/{}",
            out.in_window,
            cfg.joiners
        );
        assert!(out.audit_ok, "merged ring must audit clean");
        assert!(
            out.percentile(99.0) <= cfg.window.as_secs_f64(),
            "p99 join latency {} s exceeds the window",
            out.percentile(99.0)
        );
    }
}
