//! Scale harness: the overlay at 10⁴–10⁵ nodes on the real simulator.
//!
//! The paper's experiments stop at a few hundred nodes; this harness
//! demonstrates that the timer-wheel event core, SoA world state and dense
//! storage let the *same* protocol stack run at 100k+ hosts. Paying a
//! staggered join storm at that size would measure the bootstrap, not the
//! steady state, so the overlay is booted pre-wired: node addresses are
//! sorted into the ring, every node is seeded with its `near_per_side`
//! ring neighbours on each side plus `far_count / 2` outgoing Kleinberg
//! far links (in-degree supplies the other half in expectation) via
//! [`BrunetNode::seed_connection`]. From the first tick onward everything
//! is the real protocol: pings, stabilization, far-link census, shortcut
//! scoring, failure detection.
//!
//! Two experiments run on that substrate:
//!
//! * **fig8-style shortcut traffic** — hotspot pairs exchange sustained
//!   application traffic; with shortcuts enabled the per-packet hop count
//!   collapses toward 1 and transit forwarding load drains off the ring,
//!   exactly the mechanism behind the paper's Fig. 8 throughput gap.
//! * **kill-k churn** — a batch of simultaneous host crashes, then the
//!   ring auditor polls until every structural invariant holds over the
//!   survivors (the paper's self-healing claim, at 1000× the ring size).
//!
//! Each phase records simulator events processed, wall-clock time and
//! events/second; peak RSS comes from `/proc/self/status`.

use bytes::Bytes;
use rand::Rng;

use wow::audit::audit_ring;
use wow::simrt::{ForwardingCost, NoApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnType;
use wow_overlay::node::BrunetNode;
use wow_overlay::telemetry::Counter;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Root seed; addresses, far-link targets, hotspot pairs and churn
    /// victims all derive from it.
    pub seed: u64,
    /// Overlay size.
    pub nodes: usize,
    /// Protocol warm-up after seeding (covers at least one ping round).
    pub warm: SimDuration,
    /// Hotspot pairs in the traffic phase.
    pub pairs: usize,
    /// Application messages per second per pair.
    pub rate_hz: u64,
    /// Traffic phase duration.
    pub traffic: SimDuration,
    /// Hosts crashed simultaneously in the churn phase.
    pub kill: usize,
    /// Repair bound: the ring must audit whole within this window.
    pub settle: SimDuration,
    /// Audit polling interval while waiting for repair.
    pub poll: SimDuration,
    /// Greedy routing pairs sampled per audit pass.
    pub route_samples: usize,
    /// Simulator event-execution workers (`0` = the simulator's choice).
    /// Any value yields byte-identical results; the `scale` bin's worker
    /// sweep (`results/scale_traffic.csv`) measures the speedup.
    pub workers: usize,
}

impl ScaleConfig {
    /// Defaults at a given size: kill 1% (min 10), warm 20 s, 32 hotspot
    /// pairs at 4 msg/s for 60 s.
    pub fn at(nodes: usize) -> Self {
        ScaleConfig {
            seed: 0x5CA1E,
            nodes,
            warm: SimDuration::from_secs(20),
            pairs: 32,
            rate_hz: 4,
            traffic: SimDuration::from_secs(60),
            kill: (nodes / 100).max(10),
            settle: SimDuration::from_secs(180),
            poll: SimDuration::from_secs(10),
            route_samples: 64,
            workers: 0,
        }
    }
}

/// Throughput numbers for one phase of a run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMetrics {
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Wall-clock seconds spent.
    pub wall_s: f64,
}

impl PhaseMetrics {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            f64::NAN
        }
    }
}

/// Outcome of one fig8-style traffic run.
#[derive(Clone, Debug)]
pub struct ScaleTrafficResult {
    /// Overlay size.
    pub nodes: usize,
    /// Whether shortcuts were enabled.
    pub shortcuts: bool,
    /// Seed + warm-up phase numbers.
    pub warm: PhaseMetrics,
    /// Traffic phase numbers.
    pub traffic: PhaseMetrics,
    /// Mean hops of exact deliveries at the hotspot sinks, first half of
    /// the traffic phase.
    pub hops_first_half: f64,
    /// Same, second half — with shortcuts this collapses toward 1.
    pub hops_second_half: f64,
    /// Network-wide transit forwards during the traffic phase.
    pub forwarded: u64,
    /// Shortcut connections held at the end of the phase.
    pub shortcut_conns: usize,
    /// Shortcut score threshold crossings observed.
    pub shortcut_crossings: u64,
    /// Whether the post-warm-up ring audit passed.
    pub audit_ok: bool,
    /// Peak resident set size over the process lifetime, MiB.
    pub peak_rss_mib: f64,
    /// Bytes per host spent on host names (interned arena ÷ host count).
    /// A `String` per host costs 24 bytes of struct plus a heap
    /// allocation each before the name bytes; the interned arena must
    /// stay under [`NAME_BYTES_PER_HOST_BOUND`].
    pub name_bytes_per_host: f64,
}

impl ScaleTrafficResult {
    /// Deterministic artifact digest: every simulator-derived field, floats
    /// as exact bit patterns; wall-clock and RSS excluded. The parallel
    /// engine's contract is that this string does not depend on the worker
    /// count — the `scale` bin's worker sweep and
    /// `tests/par_differential.rs` assert it.
    pub fn digest(&self) -> String {
        format!(
            "n={} sc={} warm_ev={} traffic_ev={} h1={:016x} h2={:016x} fwd={} conns={} cross={} audit={}",
            self.nodes,
            self.shortcuts,
            self.warm.events,
            self.traffic.events,
            self.hops_first_half.to_bits(),
            self.hops_second_half.to_bits(),
            self.forwarded,
            self.shortcut_conns,
            self.shortcut_crossings,
            self.audit_ok,
        )
    }
}

/// Regression bound on per-host name storage: 4 offset bytes plus the
/// name bytes themselves (`s<index>` stays ≤ 7 chars through n = 10⁶).
/// The pre-interning representation (a 24-byte `String` header plus a
/// private heap allocation per host) cannot get under this.
pub const NAME_BYTES_PER_HOST_BOUND: f64 = 16.0;

/// Outcome of one kill-k churn run.
#[derive(Clone, Debug)]
pub struct ScaleChurnResult {
    /// Overlay size before the crashes.
    pub nodes: usize,
    /// Hosts crashed.
    pub kill: usize,
    /// Seed + warm-up phase numbers.
    pub warm: PhaseMetrics,
    /// Crash-to-repair phase numbers (up to the passing audit).
    pub repair: PhaseMetrics,
    /// Seconds from the crash batch to the first clean audit, if healed
    /// within the bound.
    pub repair_s: Option<f64>,
    /// Whether the pre-crash audit passed.
    pub initial_audit_ok: bool,
    /// Peak resident set size over the process lifetime, MiB.
    pub peak_rss_mib: f64,
}

const PORT: u16 = 4000;

struct ScaleNet {
    sim: Sim,
    hosts: Vec<HostId>,
    actors: Vec<ActorId>,
    addrs: Vec<Address>,
    down: Vec<bool>,
}

impl ScaleNet {
    fn snapshots(&mut self) -> Vec<wow_overlay::conn::ConnSnapshot> {
        let mut out = Vec::with_capacity(self.actors.len());
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

    /// `(hops_sum, delivered)` totals over a set of nodes.
    fn delivery_stats(&mut self, idx: &[usize]) -> (u64, u64) {
        let mut hops = 0u64;
        let mut delivered = 0u64;
        for &i in idx {
            let s = self
                .sim
                .with_actor::<OverlayHost<NoApp>, _>(self.actors[i], |h, _| h.node().stats());
            hops += s.hops_sum;
            delivered += s.delivered;
        }
        (hops, delivered)
    }
}

/// Build an n-node pre-wired overlay: sorted ring, seeded near + far links.
fn build(cfg: &ScaleConfig, overlay: OverlayConfig) -> ScaleNet {
    let seeds = SeedSplitter::new(cfg.seed);
    let mut addr_rng = seeds.rng("scale-addresses");
    let mut addrs: Vec<Address> = (0..cfg.nodes)
        .map(|_| Address::random(&mut addr_rng))
        .collect();
    addrs.sort();
    addrs.dedup();
    let n = addrs.len();

    let mut sim = Sim::new(cfg.seed);
    sim.set_workers(cfg.workers);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let mut hosts = Vec::with_capacity(n);
    let mut actors = Vec::with_capacity(n);
    let mut eps = Vec::with_capacity(n);
    for (i, &addr) in addrs.iter().enumerate() {
        let host = sim.add_host(wan, HostSpec::new(format!("s{i}")));
        let node = BrunetNode::new(
            addr,
            overlay.clone(),
            seeds.seed_for_indexed("node", i as u64),
        );
        let actor = sim.add_actor(
            host,
            OverlayHost::new(node, PORT, Vec::new(), ForwardingCost::end_node(), NoApp),
        );
        eps.push(PhysAddr::new(sim.world().host_ip(host), PORT));
        hosts.push(host);
        actors.push(actor);
    }
    // Process the start events so every node is running and bound.
    sim.run_until(SimTime::ZERO);

    let near_per_side = overlay.near_per_side;
    let far_out = (overlay.far_count / 2).max(1);
    let mut far_rng = seeds.rng("scale-far");
    for i in 0..n {
        // Ring neighbours, `near_per_side` on each side. Seeding is
        // symmetric by construction: node i+1's first ccw neighbour is i.
        let mut conns: Vec<(Address, ConnType, PhysAddr)> = Vec::new();
        for d in 1..=near_per_side {
            let cw = (i + d) % n;
            let ccw = (i + n - d) % n;
            conns.push((addrs[cw], ConnType::StructuredNear, eps[cw]));
            if ccw != cw {
                conns.push((addrs[ccw], ConnType::StructuredNear, eps[ccw]));
            }
        }
        // Outgoing far links, log-uniform beyond the local arc (the same
        // Symphony-style distribution the far overlord samples from). The
        // mirror side is seeded on the target so the link is symmetric.
        let succ_dist = addrs[i].dist_cw(addrs[(i + 1) % n]);
        let min_exp = succ_dist
            .highest_bit()
            .map(|b| (b + 1).min(157))
            .unwrap_or(32);
        let mut fars: Vec<usize> = Vec::with_capacity(far_out);
        for _ in 0..far_out {
            let target = wow_overlay::addr::sample_far_target(&mut far_rng, addrs[i], min_exp);
            // Owner: the ring successor of the target address.
            let j = addrs.partition_point(|&a| a < target) % n;
            if j != i && !fars.contains(&j) {
                fars.push(j);
            }
        }
        for &j in &fars {
            conns.push((addrs[j], ConnType::StructuredFar, eps[j]));
        }
        let my_addr = addrs[i];
        let my_ep = eps[i];
        sim.with_actor::<OverlayHost<NoApp>, _>(actors[i], move |h, ctx| {
            let now = ctx.now;
            for &(peer, t, ep) in &conns {
                h.node_mut().seed_connection(now, peer, t, ep);
            }
            now
        });
        // Mirror the far links on the targets.
        for &j in &fars {
            sim.with_actor::<OverlayHost<NoApp>, _>(actors[j], move |h, ctx| {
                h.node_mut()
                    .seed_connection(ctx.now, my_addr, ConnType::StructuredFar, my_ep);
            });
        }
    }

    ScaleNet {
        sim,
        hosts,
        actors,
        addrs,
        down: vec![false; n],
    }
}

fn phase(sim: &mut Sim, until: SimTime) -> PhaseMetrics {
    let ev0 = sim.events_processed();
    let t0 = sim.now();
    let wall = std::time::Instant::now();
    sim.run_until(until);
    PhaseMetrics {
        sim_s: until.saturating_since(t0).as_secs_f64(),
        events: sim.events_processed() - ev0,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(f64::NAN);
            return kb / 1024.0;
        }
    }
    f64::NAN
}

/// Run the fig8-style hotspot-traffic experiment.
pub fn run_traffic(cfg: &ScaleConfig, shortcuts: bool) -> ScaleTrafficResult {
    let overlay = if shortcuts {
        OverlayConfig::default()
    } else {
        OverlayConfig::default().without_shortcuts()
    };
    let seeds = SeedSplitter::new(cfg.seed);
    let mut net = build(cfg, overlay);
    let n = net.actors.len();

    let warm = phase(&mut net.sim, SimTime::ZERO + cfg.warm);

    let mut audit_rng = seeds.rng("scale-audit");
    let snaps = net.snapshots();
    let report = audit_ring(net.sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
    let audit_ok = report.passed();
    log_audit_failure("post-warm", &report);
    drop(snaps);

    // Hotspot pairs: distinct sources and sinks.
    let mut pair_rng = seeds.rng("scale-pairs");
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(cfg.pairs);
    while pairs.len() < cfg.pairs.min(n / 2) {
        let a = pair_rng.gen_range(0..n);
        let b = pair_rng.gen_range(0..n);
        if a != b
            && !pairs
                .iter()
                .any(|&(x, y)| x == a || y == b || x == b || y == a)
        {
            pairs.push((a, b));
        }
    }
    let sinks: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();

    // Schedule the whole traffic phase up front as control events.
    let start = net.sim.now();
    let period = SimDuration::from_micros(1_000_000 / cfg.rate_hz.max(1));
    let shots = cfg.traffic.as_micros() / period.as_micros();
    let payload = Bytes::from(vec![0x5Au8; 512]);
    for &(src, dst) in &pairs {
        let actor = net.actors[src];
        let dst_addr = net.addrs[dst];
        for k in 0..shots {
            let data = payload.clone();
            let at = start + SimDuration::from_micros(period.as_micros() * k);
            net.sim.schedule(at, move |sim| {
                sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, ctx| {
                    h.send_app(ctx, dst_addr, 0x42, data);
                });
            });
        }
    }

    let forwarded0 = total_counter(&mut net, Counter::Forwarded);
    let (h0, d0) = net.delivery_stats(&sinks);
    let mid = start + SimDuration::from_micros(cfg.traffic.as_micros() / 2);
    let t1 = phase(&mut net.sim, mid);
    let (h1, d1) = net.delivery_stats(&sinks);
    let t2 = phase(&mut net.sim, start + cfg.traffic);
    let (h2, d2) = net.delivery_stats(&sinks);
    let traffic = PhaseMetrics {
        sim_s: t1.sim_s + t2.sim_s,
        events: t1.events + t2.events,
        wall_s: t1.wall_s + t2.wall_s,
    };
    let forwarded = total_counter(&mut net, Counter::Forwarded) - forwarded0;
    let shortcut_crossings = total_counter(&mut net, Counter::ShortcutCross);
    let mut shortcut_conns = 0usize;
    for &actor in &net.actors {
        shortcut_conns += net.sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| {
            h.node().conns().with_type(ConnType::Shortcut).count()
        });
    }

    let world = net.sim.world_ref();
    let name_bytes_per_host =
        world.host_name_storage_bytes() as f64 / world.host_count().max(1) as f64;

    ScaleTrafficResult {
        nodes: n,
        shortcuts,
        warm,
        traffic,
        hops_first_half: mean_hops(h0, d0, h1, d1),
        hops_second_half: mean_hops(h1, d1, h2, d2),
        forwarded,
        shortcut_conns,
        shortcut_crossings,
        audit_ok,
        peak_rss_mib: peak_rss_mib(),
        name_bytes_per_host,
    }
}

fn mean_hops(h0: u64, d0: u64, h1: u64, d1: u64) -> f64 {
    if d1 > d0 {
        (h1 - h0) as f64 / (d1 - d0) as f64
    } else {
        f64::NAN
    }
}

/// Print a failed audit's first violations to stderr — an `audit=false`
/// cell in the CSV is useless without the *why*.
fn log_audit_failure(stage: &str, report: &wow::audit::AuditReport) {
    if report.passed() {
        return;
    }
    eprintln!(
        "[scale] {stage} audit FAILED over {} live nodes ({}/{} pairs routable):",
        report.live, report.pairs_routable, report.pairs_checked
    );
    for v in report.violations.iter().take(5) {
        eprintln!("[scale]   {v}");
    }
}

fn total_counter(net: &mut ScaleNet, c: Counter) -> u64 {
    let mut total = 0u64;
    for (i, &actor) in net.actors.iter().enumerate() {
        if net.down[i] {
            continue;
        }
        total += net
            .sim
            .with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| h.counters().get(c));
    }
    total
}

/// Run the kill-k churn experiment.
pub fn run_churn(cfg: &ScaleConfig) -> ScaleChurnResult {
    let seeds = SeedSplitter::new(cfg.seed);
    let mut net = build(cfg, OverlayConfig::default());
    let n = net.actors.len();

    let warm = phase(&mut net.sim, SimTime::ZERO + cfg.warm);
    let mut audit_rng = seeds.rng("scale-churn-audit");
    let snaps = net.snapshots();
    let report = audit_ring(net.sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
    let initial_audit_ok = report.passed();
    log_audit_failure("pre-crash", &report);
    drop(snaps);

    // Crash k distinct victims simultaneously.
    let mut victim_rng = seeds.rng("scale-victims");
    let mut pool: Vec<usize> = (0..n).collect();
    let take = cfg.kill.min(n.saturating_sub(2));
    let mut killed = Vec::with_capacity(take);
    for _ in 0..take {
        let j = victim_rng.gen_range(0..pool.len());
        killed.push(pool.swap_remove(j));
    }
    let at = net.sim.now();
    for &i in &killed {
        net.down[i] = true;
        net.sim.world().crash_host(net.hosts[i]);
    }

    // Poll the auditor until the ring is whole over the survivors.
    let deadline = at + cfg.settle;
    let ev0 = net.sim.events_processed();
    let wall = std::time::Instant::now();
    let mut repaired_at = None;
    loop {
        let next = (net.sim.now() + cfg.poll).min(deadline);
        net.sim.run_until(next);
        let snaps = net.snapshots();
        let report = audit_ring(net.sim.now(), &snaps, cfg.route_samples, &mut audit_rng);
        if report.passed() {
            repaired_at = Some(net.sim.now());
            break;
        }
        if net.sim.now() >= deadline {
            break;
        }
    }
    let repair = PhaseMetrics {
        sim_s: net.sim.now().saturating_since(at).as_secs_f64(),
        events: net.sim.events_processed() - ev0,
        wall_s: wall.elapsed().as_secs_f64(),
    };

    ScaleChurnResult {
        nodes: n,
        kill: killed.len(),
        warm,
        repair,
        repair_s: repaired_at.map(|t| t.saturating_since(at).as_secs_f64()),
        initial_audit_ok,
        peak_rss_mib: peak_rss_mib(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small seeded overlay audits clean immediately and stays clean
    /// through a warm-up — the seeding path produces a real, live ring.
    #[test]
    fn seeded_ring_audits_clean_and_survives_warmup() {
        let cfg = ScaleConfig {
            nodes: 64,
            warm: SimDuration::from_secs(30),
            ..ScaleConfig::at(64)
        };
        let mut net = build(&cfg, OverlayConfig::default());
        let seeds = SeedSplitter::new(cfg.seed);
        let mut rng = seeds.rng("test-audit");
        let snaps = net.snapshots();
        let report = audit_ring(net.sim.now(), &snaps, 16, &mut rng);
        assert!(
            report.passed(),
            "seeded ring must audit clean: {:?}",
            report.violations
        );
        net.sim.run_until(SimTime::from_secs(30));
        let snaps = net.snapshots();
        let report = audit_ring(net.sim.now(), &snaps, 16, &mut rng);
        assert!(
            report.passed(),
            "ring must survive 30 s of protocol: {:?}",
            report.violations
        );
    }

    /// Kill-k at small n heals within the bound.
    #[test]
    fn small_scale_churn_heals() {
        let cfg = ScaleConfig {
            nodes: 48,
            kill: 4,
            warm: SimDuration::from_secs(20),
            settle: SimDuration::from_secs(180),
            poll: SimDuration::from_secs(5),
            ..ScaleConfig::at(48)
        };
        let out = run_churn(&cfg);
        assert!(out.initial_audit_ok);
        assert!(
            out.repair_s.is_some(),
            "ring must heal after killing {} of {} nodes",
            out.kill,
            out.nodes
        );
    }

    /// Shortcut formation under hotspot traffic at small n.
    #[test]
    fn traffic_forms_shortcuts_when_enabled() {
        let cfg = ScaleConfig {
            nodes: 64,
            pairs: 4,
            rate_hz: 4,
            warm: SimDuration::from_secs(20),
            traffic: SimDuration::from_secs(40),
            ..ScaleConfig::at(64)
        };
        let with = run_traffic(&cfg, true);
        assert!(with.audit_ok);
        assert!(
            with.shortcut_crossings > 0,
            "sustained hotspot traffic must cross the shortcut threshold"
        );
        let without = run_traffic(&cfg, false);
        assert_eq!(without.shortcut_crossings, 0);
        assert_eq!(without.shortcut_conns, 0);
    }
}
