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

use wow::harness::{log_audit_failure, settle, Overlay, Schedule, Settled};
use wow::simrt::{NodeHandle, OverlayApp};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnType;
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
#[derive(Default)]
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
    let mut net = Overlay::new(sim);

    // --- core: a pre-wired ring, as in the scale harness ---
    let overlay = OverlayConfig::default();
    for (i, &addr) in ring.iter().enumerate() {
        let host = net.sim.add_host(wan, HostSpec::new(format!("c{i}")));
        let node = BrunetNode::new(
            addr,
            overlay.clone(),
            seeds.seed_for_indexed("core-node", i as u64),
        );
        net.add_node(host, SimTime::ZERO, node, Vec::new(), JoinClock::default());
    }
    // One symmetric far chord per node so early greedy routing across the
    // core is not O(n).
    let n = ring.len();
    let far: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let far = (i + n / 4).max(i + 2) % n;
            if far != i {
                vec![far]
            } else {
                Vec::new()
            }
        })
        .collect();
    net.seed_ring(overlay.near_per_side, &far);

    // Warm the core on the real protocol, then audit it.
    net.sim.run_until(SimTime::ZERO + cfg.warm);
    let mut audit_rng = seeds.rng("storm-audit");
    let core_audit_ok = net.audit(cfg.route_samples, &mut audit_rng).passed();

    // --- the storm ---
    let intro_eps: Vec<PhysAddr> = (0..n.min(cfg.introducers.max(1)))
        .map(|i| net.endpoint(i))
        .collect();
    let storm_start = net.sim.now();
    let stagger_us = (cfg.window.as_micros() as f64 * cfg.stagger_frac.clamp(0.0, 1.0)) as u64;
    let mut storm_rng = seeds.rng("storm-joiners");
    let mut joiner_starts = Vec::with_capacity(cfg.joiners);
    for (j, &addr) in join_addrs.iter().enumerate() {
        let host = net.sim.add_host(wan, HostSpec::new(format!("j{j}")));
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
        net.add_node(host, start_at, node, bootstrap, JoinClock::default());
        joiner_starts.push(start_at);
    }
    let joiners = n..net.actors().len();

    let window_end = storm_start + cfg.window;
    let ev0 = net.sim.events_processed();
    let wall = std::time::Instant::now();
    net.sim.run_until(window_end);

    // How many made it inside the window (sampled before settle runs on).
    let joined_at = |net: &mut Overlay<JoinClock>, i| net.with(i, |h, _| h.app().joined);
    let in_window = joiners
        .clone()
        .filter(|&i| joined_at(&mut net, i).is_some_and(|t| t <= window_end))
        .count();

    // --- settle: audit the merged ring at window end, then on the backoff ---
    let deadline = window_end + cfg.settle;
    let first = net.audit(cfg.route_samples, &mut audit_rng);
    let settled = if first.passed() || window_end >= deadline {
        Settled {
            repaired_at: first.passed().then_some(window_end),
            polls: 0,
            last: first,
        }
    } else {
        settle(window_end, deadline, Schedule::backoff(cfg.poll), |t| {
            net.sim.run_until(t);
            net.audit(cfg.route_samples, &mut audit_rng)
        })
    };
    log_audit_failure("joinstorm final", &settled.last);
    let storm = PhaseMetrics {
        sim_s: net.sim.now().saturating_since(storm_start).as_secs_f64(),
        events: net.sim.events_processed() - ev0,
        wall_s: wall.elapsed().as_secs_f64(),
    };

    // --- collect latencies ---
    let mut latencies = Vec::with_capacity(cfg.joiners);
    let mut fallbacks = 0u64;
    for (i, start) in joiners.zip(joiner_starts) {
        if let Some(t) = joined_at(&mut net, i) {
            latencies.push(t.saturating_since(start).as_secs_f64());
        }
        fallbacks += net.with(i, |h, _| h.counters().get(Counter::IntroducerFallback));
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("join latencies are finite"));

    JoinStormResult {
        core: cfg.core,
        joiners: cfg.joiners,
        joined: latencies.len(),
        in_window,
        latencies,
        core_audit_ok,
        audit_ok: settled.repaired_at.is_some(),
        repair_s: settled
            .repaired_at
            .map(|t| t.saturating_since(window_end).as_secs_f64().max(0.0)),
        audit_polls: 1 + settled.polls as u32,
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
