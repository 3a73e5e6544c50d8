//! Self-healing under churn: the faultlab kill-k-nodes experiment, the
//! seed → transcript determinism contract, clean-slate restart rejoin, and
//! NAT-expiry shortcut recovery.
//!
//! The churn-suite CI job runs this file across several seeds via the
//! `WOW_CHURN_SEED` environment variable; any auditor invariant violation
//! or repair-bound breach fails the test.

use bytes::Bytes;
use std::sync::{Arc, Mutex};

use wow::churn::{run, ChurnConfig};
use wow::simrt::{ForwardingCost, NoApp, NodeHandle, OverlayApp, OverlayHost};
use wow_netsim::fault::FaultKind;
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::node::BrunetNode;
use wow_overlay::prelude::OverlayConfig;
use wow_overlay::uri::TransportUri;

/// The scenario seed, overridable so CI can sweep a matrix of seeds.
fn churn_seed() -> u64 {
    std::env::var("WOW_CHURN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0)
}

#[test]
fn kill_k_nodes_ring_self_heals_within_bound() {
    let cfg = ChurnConfig {
        seed: churn_seed(),
        nodes: 16,
        kill: 3,
        batches: 2,
        ..ChurnConfig::default()
    };
    let out = run(&cfg);
    assert!(out.initial_ok, "pre-fault overlay failed its audit");
    for b in &out.batches {
        assert_eq!(b.killed.len(), cfg.kill);
        assert!(
            b.repaired_at.is_some(),
            "batch {} (killed {:?}) did not heal within {:?}: {:?}",
            b.batch,
            b.killed,
            cfg.settle,
            b.last_report.violations
        );
    }
    // The transcript records exactly the crashes we asked for.
    let crashes = out
        .transcript
        .iter()
        .filter(|r| matches!(r.kind, FaultKind::Crash { .. }))
        .count();
    assert_eq!(crashes, cfg.kill * cfg.batches);
    // Healing consumed and re-established near links.
    use wow_overlay::prelude::Counter;
    assert!(out.counters.get(Counter::NearLost) > 0);
    assert!(out.counters.get(Counter::NearLinked) > 0);
}

/// FNV-1a over a [`wow::churn::ChurnOutcome`]'s whole `Debug` rendering:
/// transcript, every batch's audit verdicts and polls, merged counters.
fn outcome_digest(out: &wow::churn::ChurnOutcome) -> u64 {
    format!("{out:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The default-config churn outcome, pinned: a change to the overlay
/// world builder, the live-snapshot collector or the repair-wait loop
/// must not move a single audit, poll or counter. A change that means to
/// move protocol behaviour re-pins it and says why.
const DEFAULT_OUTCOME_DIGEST: u64 = 15_414_169_119_363_023_025;

#[test]
fn default_churn_outcome_is_pinned() {
    let out = run(&ChurnConfig::default());
    assert_eq!(outcome_digest(&out), DEFAULT_OUTCOME_DIGEST, "{out:?}");
}

#[test]
fn churn_run_is_deterministic_record_replay() {
    let cfg = ChurnConfig {
        seed: churn_seed() ^ 0x5EED,
        nodes: 10,
        kill: 2,
        batches: 1,
        route_samples: 8,
        ..ChurnConfig::default()
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(
        a.transcript, b.transcript,
        "same seed must replay the exact fault transcript"
    );
    assert_eq!(
        a.verdicts(),
        b.verdicts(),
        "same seed must replay the exact auditor verdicts"
    );
    assert_eq!(a.initial_ok, b.initial_ok);
    assert_eq!(a.counters, b.counters);
}

/// Parallel differential: a full churn run — kill batch, repair audits,
/// telemetry — must be identical at every worker count of the simulator's
/// windowed parallel engine.
#[test]
fn churn_run_is_identical_across_worker_counts() {
    let base = ChurnConfig {
        seed: churn_seed() ^ 0x9A12,
        nodes: 10,
        kill: 2,
        batches: 1,
        route_samples: 8,
        ..ChurnConfig::default()
    };
    let reference = run(&ChurnConfig {
        workers: 1,
        ..base.clone()
    });
    for workers in [2usize, 4, 8] {
        let out = run(&ChurnConfig {
            workers,
            ..base.clone()
        });
        assert_eq!(
            out.transcript, reference.transcript,
            "workers={workers}: fault transcript diverged from sequential"
        );
        assert_eq!(
            out.verdicts(),
            reference.verdicts(),
            "workers={workers}: auditor verdicts diverged from sequential"
        );
        assert_eq!(out.initial_ok, reference.initial_ok);
        assert_eq!(
            out.counters, reference.counters,
            "workers={workers}: node telemetry diverged from sequential"
        );
    }
}

#[test]
fn restarted_victims_rejoin_from_a_clean_slate() {
    let cfg = ChurnConfig {
        seed: churn_seed().wrapping_add(1),
        nodes: 10,
        kill: 2,
        batches: 1,
        restart_after: Some(SimDuration::from_secs(30)),
        settle: SimDuration::from_secs(240),
        ..ChurnConfig::default()
    };
    let out = run(&cfg);
    assert!(out.initial_ok);
    let b = &out.batches[0];
    assert!(
        b.repaired_at.is_some(),
        "restarted victims failed to rejoin the ring: {:?}",
        b.last_report.violations
    );
    // With restarts, the healed membership is the full overlay again.
    assert_eq!(b.last_report.live, cfg.nodes);
    let restarts = out
        .transcript
        .iter()
        .filter(|r| matches!(r.kind, FaultKind::Restart { .. }))
        .count();
    assert_eq!(restarts, cfg.kill);
}

/// Regression: the settle loop must audit on a doubling backoff, not busy-
/// spin the auditor on a fixed cadence. A restart batch keeps the ring
/// broken for at least the downtime, so a fixed `poll` cadence would burn
/// an auditor pass (full snapshot + route sampling) every 5 simulated
/// seconds of that wait; the backoff schedule spends logarithmically many.
#[test]
fn repair_wait_audits_on_a_backoff_schedule() {
    let cfg = ChurnConfig {
        seed: churn_seed().wrapping_add(2),
        nodes: 10,
        kill: 2,
        batches: 1,
        restart_after: Some(SimDuration::from_secs(60)),
        settle: SimDuration::from_secs(240),
        ..ChurnConfig::default()
    };
    let out = run(&cfg);
    assert!(out.initial_ok);
    let b = &out.batches[0];
    let off = b
        .repaired_at
        .expect("restart batch must heal within the bound")
        .saturating_since(b.at);

    // Replicate the runner's schedule — intervals doubling from `poll`,
    // capped at 8×, clamped to the settle deadline — and demand the audit
    // count match it exactly.
    let (mut t, mut polls) = (0u64, 0usize);
    let mut step = cfg.poll.as_micros();
    let cap = cfg.poll.as_micros() * 8;
    while t < off.as_micros() {
        t = (t + step).min(cfg.settle.as_micros());
        step = (step * 2).min(cap);
        polls += 1;
    }
    assert_eq!(
        b.audit_polls, polls,
        "audit count must follow the backoff schedule for a repair at +{off:?}"
    );

    // And it must genuinely undercut the old fixed-cadence loop, which
    // audited once per `poll` for the whole wait.
    let fixed = off.as_micros().div_ceil(cfg.poll.as_micros()) as usize;
    assert!(
        b.audit_polls < fixed,
        "backoff must beat the fixed cadence ({} vs {fixed} audits)",
        b.audit_polls
    );
}

/// Counts exact app deliveries.
struct Recorder {
    seen: Arc<Mutex<usize>>,
}
impl OverlayApp for Recorder {
    fn on_deliver(
        &mut self,
        _h: &mut NodeHandle<'_, '_>,
        _src: Address,
        _proto: u8,
        _data: Bytes,
        exact: bool,
    ) {
        if exact {
            *self.seen.lock().unwrap() += 1;
        }
    }
}

/// NAT-expiry overlay regression: a hole-punched pair whose mappings are
/// wiped mid-flow must re-link (traffic keeps flowing) rather than
/// blackhole.
#[test]
fn nat_expiry_mid_flow_relinks_instead_of_blackholing() {
    const PORT: u16 = 4000;
    let seed = 5; // same topology as the convergence hole-punch test
    let mut sim = Sim::new(seed);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let dom_a = sim.add_domain(DomainSpec::natted("a.edu", NatConfig::typical()));
    let dom_b = sim.add_domain(DomainSpec::natted("b.edu", NatConfig::hairpinning()));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addresses");

    let mut bootstrap: Vec<TransportUri> = Vec::new();
    for i in 0..3 {
        let host = sim.add_host(wan, HostSpec::new(format!("pl{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("pl", i),
        );
        sim.add_actor_at(
            host,
            SimTime::from_millis(i * 100),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::router(),
                NoApp,
            ),
        );
        if i == 0 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                PORT,
            )));
        }
    }
    let seen = Arc::new(Mutex::new(0usize));
    let mut nat_actors = Vec::new();
    let mut nat_addrs = Vec::new();
    for (i, dom) in [dom_a, dom_b].into_iter().enumerate() {
        let host = sim.add_host(dom, HostSpec::new(format!("vm{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("vm", i as u64),
        );
        let actor = sim.add_actor_at(
            host,
            SimTime::from_secs(2),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::end_node(),
                Recorder { seen: seen.clone() },
            ),
        );
        nat_actors.push(actor);
        nat_addrs.push(addr);
    }

    // Join, then drive A→B traffic until the hole-punched shortcut exists.
    let a_actor = nat_actors[0];
    let b_addr = nat_addrs[1];
    for k in 0..420u64 {
        let t = SimTime::from_secs(60) + SimDuration::from_millis(k * 500);
        sim.schedule(t, move |sim| {
            sim.with_actor::<OverlayHost<Recorder>, _>(a_actor, |host, ctx| {
                host.send_app(ctx, b_addr, 9, Bytes::from_static(b"flow"));
            });
        });
    }
    sim.run_until(SimTime::from_secs(200));
    let direct =
        sim.with_actor::<OverlayHost<Recorder>, _>(a_actor, |h, _| h.node().has_direct(b_addr));
    assert!(direct, "precondition: shortcut must form before the fault");
    let before_fault = *seen.lock().unwrap();
    assert!(before_fault > 0, "precondition: traffic flowing");

    // Mid-flow fault: both NATs forget every mapping.
    sim.world()
        .apply_fault(FaultKind::NatExpiry { domain: dom_a });
    sim.world()
        .apply_fault(FaultKind::NatExpiry { domain: dom_b });

    // The flow keeps sending until t=270 — past the keepalive failure
    // window (~45 s), so it spans the blackhole, the stale link's death and
    // the re-punch to the fresh mappings.
    sim.run_until(SimTime::from_secs(300));
    let after_fault = *seen.lock().unwrap() - before_fault;
    assert!(
        after_fault > 0,
        "NAT expiry mid-flow must not blackhole the pair: \
         0 of the post-fault sends were delivered"
    );
    // And the direct link is re-established (re-punched or re-linked via
    // the overlay), not permanently lost.
    let relinked =
        sim.with_actor::<OverlayHost<Recorder>, _>(a_actor, |h, _| h.node().has_direct(b_addr));
    assert!(relinked, "pair should re-link after mapping expiry");
}
