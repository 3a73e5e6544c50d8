//! Simulated worlds the benchmark builds itself: a pre-wired ring on one
//! public domain, late joiners, probe traffic, and the counters read back
//! from them. Re-stated from the public APIs of `wow-netsim`, `wow-overlay`
//! and `wow::simrt`; nothing here depends on the paper-figure harness in
//! `crates/bench`, which later changes are free to edit.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::SmallRng;

use wow::audit::{audit_ring, AuditReport};
use wow::simrt::{ForwardingCost, NodeHandle, OverlayApp, OverlayHost};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::{ConnSnapshot, ConnType};
use wow_overlay::node::{BrunetNode, NodeStats};
use wow_overlay::telemetry::{Counter, TelemetryCounters};
use wow_overlay::uri::TransportUri;

use crate::spanned::{SpanKind, SpanTotals, Spanned, Tap};

/// UDP port every node of a benchmark-built world binds.
pub const PORT: u16 = 4000;
/// Overlay protocol number of probe messages.
pub const PROTO_PROBE: u8 = 0x42;
/// When traced, one timed span in this many is kept whole, with the
/// datagram that caused it: about 20 000 of each from a full-size window.
const KEEP_EVERY: u64 = 16;
/// Greedy-routing pairs each audit samples.
pub const AUDIT_SAMPLES: usize = 64;

/// The application on every benchmark-built node: notes when the node
/// became routable and how long each probe message took to arrive.
#[derive(Default)]
pub struct Probe {
    pub joined: Option<SimTime>,
    /// Send→deliver latency of each exactly-delivered probe, simulated µs.
    pub latency_us: Vec<u32>,
}

impl OverlayApp for Probe {
    fn on_deliver(
        &mut self,
        h: &mut NodeHandle<'_, '_>,
        _src: Address,
        proto: u8,
        data: Bytes,
        exact: bool,
    ) {
        if exact && proto == PROTO_PROBE && data.len() >= 8 {
            let sent = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
            self.latency_us
                .push(h.now().as_micros().saturating_sub(sent) as u32);
        }
    }

    fn on_connected(&mut self, h: &mut NodeHandle<'_, '_>, _peer: Address, ctype: ConnType) {
        if ctype == ConnType::StructuredNear && self.joined.is_none() {
            self.joined = Some(h.now());
        }
    }
}

/// The actor type of a benchmark-built node; `T` turns seam spans on.
pub type Host<const T: bool> = Spanned<OverlayHost<Probe>, T>;

/// Cumulative counters of a world at one instant; subtract two readings
/// for what a window did.
#[derive(Clone, Debug, Default)]
pub struct Tallies {
    pub events: u64,
    pub dgrams_sent: u64,
    pub dgrams_delivered: u64,
    pub dgrams_dropped: u64,
    pub cpu_queue_wait_us: u64,
    pub uplink_queue_wait_us: u64,
    pub telemetry: TelemetryCounters,
    pub hops_sum: u64,
    pub delivered_exact: u64,
    pub app_sent: u64,
    pub ctm_sent: u64,
}

impl Tallies {
    /// The simulator's own counters; nodes are added with [`Tallies::add_node`].
    pub fn of_sim(sim: &Sim) -> Tallies {
        let stats = &sim.world_ref().stats;
        Tallies {
            events: sim.events_processed(),
            dgrams_sent: stats.sent,
            dgrams_delivered: stats.delivered,
            dgrams_dropped: stats.total_dropped(),
            cpu_queue_wait_us: stats.cpu_queue_wait_us,
            uplink_queue_wait_us: stats.uplink_queue_wait_us,
            ..Tallies::default()
        }
    }

    pub fn add_node(&mut self, counters: &TelemetryCounters, stats: &NodeStats) {
        self.telemetry.merge(counters);
        self.hops_sum += stats.hops_sum;
        self.delivered_exact += stats.delivered;
        self.app_sent += stats.app_sent;
        self.ctm_sent += stats.ctm_sent;
    }

    /// Sum of two windows (the two worlds of `vnet-transfer`).
    pub fn plus(&self, other: &Tallies) -> Tallies {
        let mut telemetry = self.telemetry;
        telemetry.merge(&other.telemetry);
        Tallies {
            events: self.events + other.events,
            dgrams_sent: self.dgrams_sent + other.dgrams_sent,
            dgrams_delivered: self.dgrams_delivered + other.dgrams_delivered,
            dgrams_dropped: self.dgrams_dropped + other.dgrams_dropped,
            cpu_queue_wait_us: self.cpu_queue_wait_us + other.cpu_queue_wait_us,
            uplink_queue_wait_us: self.uplink_queue_wait_us + other.uplink_queue_wait_us,
            telemetry,
            hops_sum: self.hops_sum + other.hops_sum,
            delivered_exact: self.delivered_exact + other.delivered_exact,
            app_sent: self.app_sent + other.app_sent,
            ctm_sent: self.ctm_sent + other.ctm_sent,
        }
    }

    pub fn since(&self, earlier: &Tallies) -> Tallies {
        let mut telemetry = TelemetryCounters::new();
        for (c, v) in self.telemetry.iter() {
            telemetry.add(c, v - earlier.telemetry.get(c));
        }
        Tallies {
            events: self.events - earlier.events,
            dgrams_sent: self.dgrams_sent - earlier.dgrams_sent,
            dgrams_delivered: self.dgrams_delivered - earlier.dgrams_delivered,
            dgrams_dropped: self.dgrams_dropped - earlier.dgrams_dropped,
            cpu_queue_wait_us: self.cpu_queue_wait_us - earlier.cpu_queue_wait_us,
            uplink_queue_wait_us: self.uplink_queue_wait_us - earlier.uplink_queue_wait_us,
            telemetry,
            hops_sum: self.hops_sum - earlier.hops_sum,
            delivered_exact: self.delivered_exact - earlier.delivered_exact,
            app_sent: self.app_sent - earlier.app_sent,
            ctm_sent: self.ctm_sent - earlier.ctm_sent,
        }
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.telemetry.get(c)
    }

    /// Forwards made on behalf of other nodes (either transit path).
    pub fn transit_forwards(&self) -> u64 {
        self.get(Counter::TransitFastPath) + self.get(Counter::TransitSlowPath)
    }

    pub fn hops_mean(&self) -> f64 {
        self.hops_sum as f64 / self.delivered_exact.max(1) as f64
    }
}

/// A world of [`Host`] actors on one public domain.
pub struct SimWorld<const T: bool> {
    pub sim: Sim,
    pub actors: Vec<ActorId>,
    pub addrs: Vec<Address>,
    pub eps: Vec<PhysAddr>,
    pub tap: Option<Arc<Tap>>,
    pub seeds: SeedSplitter,
    overlay: OverlayConfig,
    wan: DomainId,
}

impl<const T: bool> SimWorld<T> {
    /// An `n`-node ring booted pre-wired: addresses sorted into ring order,
    /// every node seeded with its near neighbours on each side and
    /// `far_count / 2` outgoing log-uniform far links (mirrored on the
    /// target, so in-degree supplies the rest). From the first tick on,
    /// everything is the real protocol.
    pub fn ring(seed: u64, n: usize, overlay: OverlayConfig) -> Self {
        let seeds = SeedSplitter::new(seed);
        let mut addr_rng = seeds.rng("ring-addresses");
        let mut addrs: Vec<Address> = (0..n).map(|_| Address::random(&mut addr_rng)).collect();
        addrs.sort();
        addrs.dedup();
        let n = addrs.len();

        let mut sim = Sim::new(seed);
        // One worker: the benchmark measures the sequential core, and the
        // box has two cores to share with the live workload's generator.
        sim.set_workers(1);
        let wan = sim.add_domain(DomainSpec::public("wan"));
        let mut world = SimWorld {
            sim,
            actors: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            eps: Vec::with_capacity(n),
            tap: T.then(|| Tap::new(KEEP_EVERY)),
            seeds,
            overlay,
            wan,
        };
        for &addr in &addrs {
            world.add_node(addr, Vec::new(), SimTime::ZERO);
        }
        // Process the start events so every node is running and bound.
        world.sim.run_until(SimTime::ZERO);

        let near = world.overlay.near_per_side;
        let far_out = (world.overlay.far_count / 2).max(1);
        let mut far_rng = world.seeds.rng("ring-far");
        for i in 0..n {
            let mut conns: Vec<(usize, ConnType)> = Vec::new();
            for d in 1..=near {
                let (cw, ccw) = ((i + d) % n, (i + n - d) % n);
                conns.push((cw, ConnType::StructuredNear));
                if ccw != cw {
                    conns.push((ccw, ConnType::StructuredNear));
                }
            }
            let succ_dist = addrs[i].dist_cw(addrs[(i + 1) % n]);
            let min_exp = succ_dist.highest_bit().map_or(32, |b| (b + 1).min(157));
            let mut fars: Vec<usize> = Vec::with_capacity(far_out);
            for _ in 0..far_out {
                let target = wow_overlay::addr::sample_far_target(&mut far_rng, addrs[i], min_exp);
                let j = addrs.partition_point(|&a| a < target) % n;
                if j != i && !fars.contains(&j) {
                    fars.push(j);
                }
            }
            conns.extend(fars.iter().map(|&j| (j, ConnType::StructuredFar)));
            for &(j, ctype) in &conns {
                world.seed_link(i, j, ctype);
            }
            for &j in &fars {
                world.seed_link(j, i, ConnType::StructuredFar);
            }
        }
        world
    }

    fn seed_link(&mut self, at: usize, peer: usize, ctype: ConnType) {
        let (addr, ep) = (self.addrs[peer], self.eps[peer]);
        self.sim
            .with_actor::<Host<T>, _>(self.actors[at], move |h, ctx| {
                h.inner_mut()
                    .node_mut()
                    .seed_connection(ctx.now, addr, ctype, ep);
            });
    }

    /// Add a node that starts at `start` and joins through `bootstrap`
    /// (empty for pre-wired nodes). Returns its index.
    pub fn add_node(
        &mut self,
        addr: Address,
        bootstrap: Vec<TransportUri>,
        start: SimTime,
    ) -> usize {
        let i = self.actors.len();
        let host = self.sim.add_host(self.wan, HostSpec::new(format!("h{i}")));
        let node = BrunetNode::new(
            addr,
            self.overlay.clone(),
            self.seeds.seed_for_indexed("node", i as u64),
        );
        let actor = self.sim.add_actor_at(
            host,
            start,
            Host::<T>::new(
                OverlayHost::new(
                    node,
                    PORT,
                    bootstrap,
                    ForwardingCost::end_node(),
                    Probe::default(),
                ),
                i as u32,
                self.tap.clone(),
            ),
        );
        self.eps
            .push(PhysAddr::new(self.sim.world().host_ip(host), PORT));
        self.actors.push(actor);
        self.addrs.push(addr);
        i
    }

    pub fn len(&self) -> usize {
        self.actors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Run `f` on node `i`'s host.
    pub fn with_host<R>(&mut self, i: usize, f: impl FnOnce(&mut OverlayHost<Probe>) -> R) -> R {
        self.sim
            .with_actor::<Host<T>, _>(self.actors[i], |h, _| f(h.inner_mut()))
    }

    pub fn snapshots(&mut self) -> Vec<ConnSnapshot> {
        (0..self.len())
            .map(|i| self.with_host(i, |h| h.node().conn_snapshot()))
            .collect()
    }

    /// Audit the ring; returns the report and the wall seconds the
    /// snapshot and audit took.
    pub fn audit(&mut self, rng: &mut SmallRng) -> (AuditReport, f64) {
        let t0 = Instant::now();
        let snaps = self.snapshots();
        let report = audit_ring(self.sim.now(), &snaps, AUDIT_SAMPLES, rng);
        if !report.passed() {
            eprintln!(
                "audit FAILED over {} live nodes ({}/{} pairs routable):",
                report.live, report.pairs_routable, report.pairs_checked
            );
            for v in report.violations.iter().take(5) {
                eprintln!("  {v}");
            }
        }
        (report, t0.elapsed().as_secs_f64())
    }

    /// Schedule `shots` probe messages of `len` bytes from node `src`, one
    /// every `period` from `start`; message `k` goes to node `dst(k)`. Each
    /// carries its send time, which the sink's [`Probe`] turns into a
    /// latency.
    pub fn schedule_flow(
        &mut self,
        src: usize,
        dst: impl Fn(u64) -> usize,
        start: SimTime,
        period: SimDuration,
        shots: u64,
        len: usize,
    ) {
        let actor = self.actors[src];
        for k in 0..shots {
            let dst_addr = self.addrs[dst(k)];
            let at = start + SimDuration::from_micros(period.as_micros() * k);
            self.sim.schedule(at, move |sim| {
                sim.with_actor::<Host<T>, _>(actor, |h, ctx| {
                    let now = ctx.now;
                    let mut data = vec![0x5Au8; len.max(8)];
                    data[..8].copy_from_slice(&now.as_micros().to_le_bytes());
                    h.span(SpanKind::SendApp, now, None, |host| {
                        host.send_app(ctx, dst_addr, PROTO_PROBE, Bytes::from(data));
                    });
                });
            });
        }
    }

    /// Every counter the world keeps, summed over its nodes.
    pub fn tallies(&mut self) -> Tallies {
        let mut t = Tallies::of_sim(&self.sim);
        for i in 0..self.len() {
            let (counters, stats) = self.with_host(i, |h| (h.counters(), h.node().stats()));
            t.add_node(&counters, &stats);
        }
        t
    }

    /// Take every probe latency recorded so far, simulated µs, sorted.
    pub fn take_latencies(&mut self) -> Vec<u32> {
        let mut all = Vec::new();
        for i in 0..self.len() {
            all.append(&mut self.with_host(i, |h| std::mem::take(&mut h.app_mut().latency_us)));
        }
        all.sort_unstable();
        all
    }

    /// Seam-span totals summed over the nodes (zeros when `T` is false).
    pub fn span_totals(&mut self) -> SpanTotals {
        let mut total = SpanTotals::default();
        for &actor in &self.actors {
            let t = self.sim.with_actor::<Host<T>, _>(actor, |h, _| h.totals());
            total.absorb(&t);
        }
        total
    }
}

/// Run the simulation to `until`; returns the wall seconds it took.
pub fn run_timed(sim: &mut Sim, until: SimTime) -> f64 {
    let t0 = Instant::now();
    sim.run_until(until);
    t0.elapsed().as_secs_f64()
}

/// The value at quantile `q` (0–1) of a sorted slice, by nearest rank.
pub fn quantile<N: Copy + Into<f64>>(sorted: &[N], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)].into()
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        f64::NAN
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}
