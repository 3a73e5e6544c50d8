//! Outcome pins for the simulated-overlay experiments built on the shared
//! harness: the 96-joiner flash crowd, the 48-node kill-k churn and the
//! 64-node hotspot-traffic run. Each pin is an FNV-1a digest over every
//! simulator-derived field (wall clock and RSS excluded), so a refactor of
//! the world builder, the snapshot collector or the repair-wait loop that
//! moves a single event, audit poll or latency fails here. A change that
//! means to move protocol behaviour re-pins and says why.

use wow_bench::joinstorm::{self, JoinStormConfig};
use wow_bench::scale::{run_churn, run_traffic, ScaleConfig};
use wow_netsim::prelude::SimDuration;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const STORM_DIGEST: u64 = 7_966_842_514_840_291_016;
const SCALE_CHURN_DIGEST: u64 = 11_571_186_232_911_654_958;
const SCALE_TRAFFIC_DIGEST: u64 = 9_376_212_105_881_158_773;

#[test]
fn small_storm_outcome_is_pinned() {
    let cfg = JoinStormConfig {
        joiners: 96,
        settle: SimDuration::from_secs(300),
        ..JoinStormConfig::at(96)
    };
    let out = joinstorm::run(&cfg);
    let sim = format!(
        "latencies={:?} joined={} in_window={} core_ok={} audit_ok={} repair_s={:?} polls={} \
         fallbacks={} events={} sim_s={:?}",
        out.latencies,
        out.joined,
        out.in_window,
        out.core_audit_ok,
        out.audit_ok,
        out.repair_s,
        out.audit_polls,
        out.introducer_fallbacks,
        out.storm.events,
        out.storm.sim_s,
    );
    assert_eq!(fnv1a(&sim), STORM_DIGEST, "{sim}");
}

#[test]
fn small_scale_churn_outcome_is_pinned() {
    let cfg = ScaleConfig {
        nodes: 48,
        kill: 4,
        warm: SimDuration::from_secs(20),
        settle: SimDuration::from_secs(180),
        poll: SimDuration::from_secs(5),
        ..ScaleConfig::at(48)
    };
    let out = run_churn(&cfg);
    let sim = format!(
        "n={} kill={} warm_ev={} repair_ev={} repair_sim_s={:?} repair_s={:?} initial_ok={}",
        out.nodes,
        out.kill,
        out.warm.events,
        out.repair.events,
        out.repair.sim_s,
        out.repair_s,
        out.initial_audit_ok,
    );
    assert_eq!(fnv1a(&sim), SCALE_CHURN_DIGEST, "{sim}");
}

#[test]
fn small_scale_traffic_outcome_is_pinned() {
    let cfg = ScaleConfig {
        nodes: 64,
        pairs: 4,
        rate_hz: 4,
        warm: SimDuration::from_secs(20),
        traffic: SimDuration::from_secs(40),
        ..ScaleConfig::at(64)
    };
    let sim = format!(
        "{}\n{}",
        run_traffic(&cfg, true).digest(),
        run_traffic(&cfg, false).digest()
    );
    assert_eq!(fnv1a(&sim), SCALE_TRAFFIC_DIGEST, "{sim}");
}
