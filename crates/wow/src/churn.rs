//! Churn scenario runner: the paper's kill-k-nodes self-healing experiment.
//!
//! Builds a public overlay on the simulator, lets it converge, then injects
//! batches of simultaneous host crashes through the faultlab layer
//! (`wow_netsim::fault`) and measures **time-to-repair**: the first moment
//! the ring auditor ([`crate::audit`]) finds every structural invariant
//! restored over the surviving membership. Optionally restarts the victims
//! after a fixed downtime — restarted nodes come back with a clean slate
//! (fresh port bindings, no NAT mappings, empty connection table) and must
//! rejoin through the bootstrap like any newcomer.
//!
//! Everything — victim choice, fault times, audit sampling — derives from
//! the scenario seed, so one seed replays the exact fault transcript and
//! audit verdict sequence (asserted by the record/replay test).

use rand::rngs::SmallRng;
use rand::Rng;

use wow_netsim::fault::FaultRecord;
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::conn::ConnSnapshot;
use wow_overlay::node::BrunetNode;
use wow_overlay::prelude::{OverlayConfig, TelemetryCounters};
use wow_overlay::uri::TransportUri;

use crate::audit::{audit_ring, AuditReport};
use crate::simrt::{ForwardingCost, NoApp, OverlayHost};

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
    /// Auditor passes spent waiting for this batch to repair. The settle
    /// loop polls on a doubling backoff (starting at `poll`, capped at
    /// 8×), so this grows logarithmically with repair time rather than
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

const PORT: u16 = 4000;

struct Net {
    sim: Sim,
    hosts: Vec<HostId>,
    actors: Vec<ActorId>,
    down: Vec<bool>,
}

impl Net {
    /// Snapshot every live node's connection table.
    fn snapshots(&mut self) -> Vec<ConnSnapshot> {
        let mut out = Vec::new();
        for (i, &actor) in self.actors.iter().enumerate() {
            if self.down[i] {
                continue;
            }
            out.push(
                self.sim
                    .with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| h.node().conn_snapshot()),
            );
        }
        out
    }
}

/// Build the pre-fault overlay: `n` public nodes, node 0 as bootstrap,
/// staggered starts — the same shape as the convergence tests, so audited
/// behaviour transfers.
fn build(cfg: &ChurnConfig) -> Net {
    let mut sim = Sim::new(cfg.seed);
    sim.set_workers(cfg.workers);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let seeds = SeedSplitter::new(cfg.seed);
    let mut rng = seeds.rng("addresses");
    let mut hosts = Vec::new();
    let mut actors = Vec::new();
    let mut bootstrap = Vec::new();
    for i in 0..cfg.nodes {
        let host = sim.add_host(wan, HostSpec::new(format!("h{i}")));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(
            addr,
            OverlayConfig::default(),
            seeds.seed_for_indexed("node", i as u64),
        );
        let actor = sim.add_actor_at(
            host,
            SimTime::from_millis(i as u64 * 200),
            OverlayHost::new(
                node,
                PORT,
                bootstrap.clone(),
                ForwardingCost::end_node(),
                NoApp,
            ),
        );
        if i == 0 {
            bootstrap.push(TransportUri::udp(PhysAddr::new(
                sim.world().host_ip(host),
                PORT,
            )));
        }
        hosts.push(host);
        actors.push(actor);
    }
    Net {
        sim,
        hosts,
        actors,
        down: vec![false; cfg.nodes],
    }
}

/// Draw `k` distinct victims from the live, non-bootstrap nodes.
fn pick_victims(net: &Net, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    // Node 0 is the bootstrap for rejoins; the paper's experiment keeps the
    // seed node alive too.
    let mut pool: Vec<usize> = (1..net.actors.len()).filter(|&i| !net.down[i]).collect();
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
    let mut net = build(cfg);

    net.sim.run_until(SimTime::ZERO + cfg.converge);
    let snaps = net.snapshots();
    let initial = audit_ring(net.sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
    let initial_ok = initial.passed();

    let mut batches = Vec::new();
    for batch in 0..cfg.batches {
        let killed = pick_victims(&net, cfg.kill, &mut victim_rng);
        let at = net.sim.now();
        for &i in &killed {
            net.down[i] = true;
            net.sim.world().crash_host(net.hosts[i]);
        }
        if let Some(downtime) = cfg.restart_after {
            for &i in &killed {
                let host = net.hosts[i];
                let actor = net.actors[i];
                net.sim.schedule(at + downtime, move |sim| {
                    sim.world().restart_host(host);
                    sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, ctx| {
                        h.restart_node(ctx);
                    });
                });
            }
        }

        // Poll the auditor until the ring is whole again or the repair
        // bound is breached. The interval doubles from `poll` up to an 8×
        // cap: early polls catch fast repairs with fine granularity, late
        // polls stop burning a full auditor pass (snapshots + route
        // samples) every few simulated seconds on a ring that is still
        // converging. The last poll clamps to the deadline so the repair
        // bound is checked exactly, never overshot.
        let deadline = at + cfg.settle;
        let mut repaired_at = None;
        let mut last_report;
        let mut audit_polls = 0usize;
        let mut interval_us = cfg.poll.as_micros();
        let cap_us = cfg.poll.as_micros().saturating_mul(8);
        loop {
            let next = (net.sim.now() + SimDuration::from_micros(interval_us)).min(deadline);
            interval_us = interval_us.saturating_mul(2).min(cap_us);
            net.sim.run_until(next);
            if let Some(downtime) = cfg.restart_after {
                // Restarted victims are back in the audited membership.
                for &i in &killed {
                    if net.sim.now() >= at + downtime {
                        net.down[i] = false;
                    }
                }
            }
            let snaps = net.snapshots();
            let report = audit_ring(net.sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
            audit_polls += 1;
            let passed = report.passed();
            last_report = report;
            if passed {
                repaired_at = Some(net.sim.now());
                break;
            }
            if net.sim.now() >= deadline {
                break;
            }
        }
        batches.push(BatchOutcome {
            batch,
            killed,
            at,
            repaired_at,
            last_report,
            audit_polls,
        });
    }

    let mut counters = TelemetryCounters::new();
    for (i, &actor) in net.actors.iter().enumerate() {
        if net.down[i] {
            continue;
        }
        let c = net
            .sim
            .with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| h.counters());
        counters.merge(&c);
    }
    let transcript = net.sim.world_ref().fault_transcript().to_vec();
    ChurnOutcome {
        transcript,
        initial_ok,
        batches,
        counters,
    }
}
