//! Churn scenario runner: the paper's kill-k-nodes self-healing experiment.
//!
//! A configuration over [`crate::harness`]: builds a
//! [`public_overlay`] on the simulator, lets it converge, then injects
//! batches of simultaneous host crashes through the faultlab layer
//! (`wow_netsim::fault`) and measures **time-to-repair**: the first moment
//! the ring auditor ([`crate::audit`]) finds every structural invariant
//! restored over the surviving membership. Optionally restarts the victims
//! after a fixed downtime — restarted nodes come back with a clean slate
//! (fresh port bindings, no NAT mappings, empty connection table) and must
//! rejoin through the bootstrap like any newcomer. The repair wait is
//! [`settle`] on [`Schedule::backoff`].
//!
//! Everything — victim choice, fault times, audit sampling — derives from
//! the scenario seed, so one seed replays the exact fault transcript and
//! audit verdict sequence (asserted by the record/replay test).

use rand::rngs::SmallRng;
use rand::Rng;

use wow_netsim::fault::FaultRecord;
use wow_netsim::prelude::*;
use wow_overlay::prelude::TelemetryCounters;

use crate::audit::AuditReport;
use crate::harness::{public_overlay, settle, Overlay, Schedule};
use crate::simrt::NoApp;

/// Parameters of one churn scenario.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Root seed: fault transcript, victim choice and audit sampling all
    /// derive from it.
    pub seed: u64,
    /// Overlay size before any faults.
    pub nodes: usize,
    /// Nodes killed simultaneously per batch.
    pub kill: usize,
    /// Number of kill batches.
    pub batches: usize,
    /// Warm-up time for the initial ring to converge.
    pub converge: SimDuration,
    /// Repair-time bound: a batch whose ring is not audited whole within
    /// this window fails.
    pub settle: SimDuration,
    /// Audit polling interval while waiting for repair.
    pub poll: SimDuration,
    /// If set, victims restart (clean slate) this long after the crash and
    /// must rejoin before the batch can pass its audit.
    pub restart_after: Option<SimDuration>,
    /// Greedy routing pairs sampled per audit pass.
    pub route_samples: usize,
    /// Event-execution workers for the underlying simulator. `0` leaves the
    /// count to the simulator; any value yields byte-identical outcomes
    /// (see the parallel differential suite).
    pub workers: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xC4A0,
            nodes: 16,
            kill: 2,
            batches: 2,
            converge: SimDuration::from_secs(120),
            settle: SimDuration::from_secs(180),
            poll: SimDuration::from_secs(5),
            restart_after: None,
            route_samples: 16,
            workers: 0,
        }
    }
}

/// Outcome of one kill batch.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Batch index.
    pub batch: usize,
    /// Node indices killed in this batch.
    pub killed: Vec<usize>,
    /// When the batch's crashes fired.
    pub at: SimTime,
    /// First audit pass with no violations, if the ring healed in bound.
    pub repaired_at: Option<SimTime>,
    /// The last audit of the batch (the passing one, or the final failing
    /// one if the repair bound was breached).
    pub last_report: AuditReport,
    /// Auditor passes spent waiting for this batch to repair. The wait
    /// polls on [`Schedule::backoff`] (gaps doubling from `poll`, capped
    /// at 8×), so this grows logarithmically with repair time rather than
    /// linearly — the regression test in `tests/churn.rs` pins that.
    pub audit_polls: usize,
}

impl BatchOutcome {
    /// Seconds from the crash to the first clean audit.
    pub fn repair_secs(&self) -> Option<f64> {
        self.repaired_at
            .map(|t| t.saturating_since(self.at).as_micros() as f64 / 1e6)
    }
}

/// Everything a churn run produced.
#[derive(Debug)]
pub struct ChurnOutcome {
    /// The world-level fault transcript (determinism contract: a seed maps
    /// to exactly this sequence).
    pub transcript: Vec<FaultRecord>,
    /// Whether the pre-fault overlay audited clean.
    pub initial_ok: bool,
    /// Per-batch kill/repair results.
    pub batches: Vec<BatchOutcome>,
    /// Node telemetry merged over every surviving node at the end.
    pub counters: TelemetryCounters,
}

impl ChurnOutcome {
    /// True if the initial audit and every batch repair passed in bound.
    pub fn healed(&self) -> bool {
        self.initial_ok && self.batches.iter().all(|b| b.repaired_at.is_some())
    }

    /// The audit verdict sequence, for record/replay comparison.
    pub fn verdicts(&self) -> Vec<(usize, Option<SimTime>, Vec<String>)> {
        self.batches
            .iter()
            .map(|b| (b.batch, b.repaired_at, b.last_report.violations.clone()))
            .collect()
    }
}

/// Draw `k` distinct victims from the live, non-bootstrap nodes.
fn pick_victims(net: &Overlay<NoApp>, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    // Node 0 is the bootstrap for rejoins; the paper's experiment keeps the
    // seed node alive too.
    let mut pool: Vec<usize> = (1..net.actors().len()).filter(|&i| net.live[i]).collect();
    let take = k.min(pool.len());
    let mut out = Vec::with_capacity(take);
    for _ in 0..take {
        let j = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(j));
    }
    out.sort_unstable();
    out
}

/// Run the scenario.
pub fn run(cfg: &ChurnConfig) -> ChurnOutcome {
    let seeds = SeedSplitter::new(cfg.seed);
    let mut victim_rng = seeds.rng("churn-victims");
    let mut audit_rng = seeds.rng("churn-audit");
    // The same shape as the convergence tests, so audited behaviour
    // transfers.
    let mut net = public_overlay(cfg.seed, cfg.nodes, cfg.workers);

    net.sim.run_until(SimTime::ZERO + cfg.converge);
    let initial_ok = net.audit(cfg.route_samples, &mut audit_rng).passed();

    let mut batches = Vec::new();
    for batch in 0..cfg.batches {
        let killed = pick_victims(&net, cfg.kill, &mut victim_rng);
        let at = net.sim.now();
        for &i in &killed {
            net.crash(i);
        }
        let back = cfg.restart_after.map(|downtime| at + downtime);
        if let Some(back) = back {
            for &i in &killed {
                net.schedule_restart(i, back);
            }
        }

        let settled = settle(at, at + cfg.settle, Schedule::backoff(cfg.poll), |t| {
            net.sim.run_until(t);
            if back.is_some_and(|back| t >= back) {
                // Restarted victims are back in the audited membership.
                for &i in &killed {
                    net.live[i] = true;
                }
            }
            net.audit(cfg.route_samples, &mut audit_rng)
        });
        batches.push(BatchOutcome {
            batch,
            killed,
            at,
            repaired_at: settled.repaired_at,
            last_report: settled.last,
            audit_polls: settled.polls,
        });
    }

    ChurnOutcome {
        transcript: net.sim.world_ref().fault_transcript().to_vec(),
        initial_ok,
        batches,
        counters: net.live_counters(),
    }
}
