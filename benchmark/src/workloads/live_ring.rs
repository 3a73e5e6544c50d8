//! `live-ring`: real UDP on loopback — a ring of reactor-multiplexed nodes
//! on one shard thread, driven by one generator thread (this one).
//!
//! The only workload that touches `wow::reactor` and `wow::udprt`: epoll,
//! `recvmmsg`, GSO/`sendmmsg`, the buffer pool, the doorbell and the
//! deadline heap. It drives the same `BrunetNode` transit path as
//! `ring-transit`, through syscalls and wall-clock timers.
//!
//! Two phases on one formed ring. Closed loop: each client pair keeps a
//! fixed number of messages in flight and sends the next only when one
//! arrives, so the count delivered per second is what the runtime
//! sustains. Open loop: messages go out on a fixed schedule regardless,
//! each timed from when it was *due*, so a stall shows up as latency on
//! everything queued behind it; how late the generator itself ran is
//! reported beside the latencies.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow::audit::audit_ring;
use wow::reactor::Reactor;
use wow::udprt::{LiveView, UdpEvent, UdpNode};
use wow_netsim::addr::{PhysAddr, PhysIp};
use wow_netsim::time::{SimDuration, SimTime};
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::telemetry::{Counter, TelemetryCounters};
use wow_overlay::wire::{Body, Frame, Packet};

use super::{Layer, Rep, Size, TraceData};
use crate::spanned::Sampled;
use crate::sys;
use crate::world::{quantile, Tallies, AUDIT_SAMPLES};

pub struct LiveParams {
    pub nodes: usize,
    /// Nodes spawned per formation wave.
    pub wave: usize,
    /// Closed-loop client pairs, and messages each keeps in flight.
    pub clients: usize,
    pub in_flight: usize,
    pub payload: usize,
    /// Closed-loop traffic discarded before measuring.
    pub warm: Duration,
    /// Messages the closed-loop window delivers (fixed work).
    pub closed_msgs: u64,
    /// Open-loop schedule.
    pub open_rate_hz: u64,
    pub open_msgs: u64,
}

pub fn params(size: Size) -> LiveParams {
    match size {
        Size::Full => LiveParams {
            nodes: 256,
            wave: 32,
            clients: 64,
            in_flight: 4,
            payload: 32,
            warm: Duration::from_millis(500),
            closed_msgs: 40_000,
            open_rate_hz: 5_000,
            open_msgs: 7_500,
        },
        Size::Check => LiveParams {
            nodes: 48,
            wave: 16,
            clients: 16,
            in_flight: 4,
            payload: 32,
            warm: Duration::from_millis(200),
            closed_msgs: 5_000,
            open_rate_hz: 2_000,
            open_msgs: 1_000,
        },
    }
}

/// Timers for a loopback network, where a round trip is ~100 µs: retry
/// and back-off intervals short enough that the ring converges in a second
/// or two without a long tail (the defaults' 2 s race back-off alone put
/// some formations past 4 s), stabilization and keepalives slow enough
/// that hundreds of drivers' background work leaves the shard idle.
/// Shortcuts are off: with them the fixed client pairs go direct within a
/// second and nothing is forwarded; without, every message crosses the
/// transit path `ring-transit` measures, here through real sockets.
pub fn overlay_config() -> OverlayConfig {
    OverlayConfig {
        link_rto: SimDuration::from_millis(400),
        race_backoff: SimDuration::from_millis(300),
        stabilize_interval: SimDuration::from_millis(600),
        far_check_interval: SimDuration::from_millis(1000),
        join_retry: SimDuration::from_millis(1200),
        ping_interval: SimDuration::from_secs(5),
        ping_rto: SimDuration::from_secs(1),
        ping_retries: 2,
        ..OverlayConfig::default().without_shortcuts()
    }
}

const PROTO_LIVE: u8 = 0x43;
/// The structural audit must pass this soon after formation, or the run
/// fails rather than report numbers from a broken ring.
const AUDIT_DEADLINE: Duration = Duration::from_secs(30);
/// Longest the generator idles between polls of the sink channels.
const POLL_GRANULARITY: Duration = Duration::from_micros(50);

/// Wait up to the poll granularity without sleeping: `sleep` rounds a
/// 50 µs request up past 100 µs, which would be measured as latency.
fn brief_pause() {
    let until = Instant::now() + POLL_GRANULARITY;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

struct Ring {
    nodes: Vec<UdpNode>,
    addrs: Vec<Address>,
    epoch: Instant,
}

impl Ring {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn views(&self) -> Vec<LiveView> {
        self.nodes
            .iter()
            .map(|n| {
                n.view()
                    .expect("reactor shard answers while the ring lives")
            })
            .collect()
    }

    fn counters(&self) -> TelemetryCounters {
        let mut total = TelemetryCounters::new();
        for v in self.views() {
            total.merge(&v.counters);
        }
        total
    }

    /// `tag` (pair or schedule slot) and `stamp_ns` ride in the payload.
    fn send(&self, src: usize, dst: usize, tag: u32, stamp_ns: u64, len: usize) {
        let mut data = vec![0u8; len.max(12)];
        data[..4].copy_from_slice(&tag.to_le_bytes());
        data[4..12].copy_from_slice(&stamp_ns.to_le_bytes());
        self.nodes[src].send_app(self.addrs[dst], PROTO_LIVE, Bytes::from(data));
    }

    /// Drain one sink's channel, calling `on_msg(tag, stamp_ns)` for each
    /// exact delivery of ours.
    fn poll_sink(&self, sink: usize, mut on_msg: impl FnMut(u32, u64)) {
        while let Ok(ev) = self.nodes[sink].events().try_recv() {
            if let UdpEvent::Deliver {
                proto: PROTO_LIVE,
                data,
                exact: true,
                ..
            } = ev
            {
                if data.len() >= 12 {
                    on_msg(
                        u32::from_le_bytes(data[..4].try_into().expect("4 bytes")),
                        u64::from_le_bytes(data[4..12].try_into().expect("8 bytes")),
                    );
                }
            }
        }
    }
}

/// CPU seconds the reactor's shard threads have used so far.
fn reactor_cpu_s() -> f64 {
    sys::thread_cpu_seconds()
        .iter()
        .filter(|(name, _)| name.starts_with("wow-reactor"))
        .map(|(_, s)| s)
        .sum()
}

pub fn rep(seed: u64, p: &LiveParams, traced: bool) -> Rep {
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let ocfg = overlay_config();
    // One shard: with the generator that is two busy threads, the box's
    // two cores.
    let reactor = Reactor::new(1).expect("start reactor");

    // ---- formation, in waves, then the structural audit ----
    let first = reactor
        .spawn_node(Address::random(&mut rng), ocfg.clone(), 0, Vec::new(), seed)
        .expect("spawn bootstrap node");
    let bootstrap = vec![first.uri()];
    let mut nodes = vec![first];
    while nodes.len() < p.nodes {
        for _ in 0..p.wave.min(p.nodes - nodes.len()) {
            let node_seed = seed.wrapping_add(nodes.len() as u64);
            nodes.push(
                reactor
                    .spawn_node(
                        Address::random(&mut rng),
                        ocfg.clone(),
                        0,
                        bootstrap.clone(),
                        node_seed,
                    )
                    .expect("spawn node"),
            );
        }
        // Every node routable before the next wave piles on.
        while !nodes.iter().all(|n| n.snapshot().routable) {
            assert!(
                t0.elapsed() < AUDIT_DEADLINE,
                "live-ring: formation stalled at {} nodes",
                nodes.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let form_s = t0.elapsed().as_secs_f64();
    let ring = Ring {
        addrs: nodes.iter().map(|n| n.address()).collect(),
        nodes,
        epoch: Instant::now(),
    };
    let audit_started = Instant::now();
    let mut audit_s;
    loop {
        let snaps: Vec<_> = ring.views().into_iter().map(|v| v.conns).collect();
        let mut arng = SmallRng::seed_from_u64(seed ^ 0xa0d1);
        let t = Instant::now();
        let report = audit_ring(SimTime::ZERO, &snaps, AUDIT_SAMPLES, &mut arng);
        audit_s = t.elapsed().as_secs_f64();
        if report.passed() {
            break;
        }
        // Routable comes before stabilized: trimming the last redundant
        // links lags. Past the deadline the ring is broken, not slow.
        assert!(
            audit_started.elapsed() < AUDIT_DEADLINE,
            "live-ring: structural audit still failing {} s after formation: {:?}",
            AUDIT_DEADLINE.as_secs(),
            report.violations.iter().take(3).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Client pairs: distinct sources and sinks, from the seed.
    let n = ring.nodes.len();
    let mut used = vec![false; n];
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(p.clients);
    while pairs.len() < p.clients.min(n / 2) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            pairs.push((a, b));
        }
    }
    let counters_before = ring.counters();
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- phase 1, closed loop ----
    // Each client walks the sinks, one per message: mean hops is then an
    // average over clients x sinks routes rather than the 64 the seed drew.
    let sinks: Vec<usize> = pairs.iter().map(|&(_, sink)| sink).collect();
    let mut walked = vec![0usize; pairs.len()];
    let mut in_flight = vec![0usize; pairs.len()];
    let mut rtt_ns: Vec<u32> = Vec::new();
    let mut send_ns = 0u64;
    let mut sends = 0u64;
    let mut sent_total = 0u64;
    let mut delivered_total = 0u64;
    // One pass: refill every pair's window, then collect deliveries.
    let mut pass = |in_flight: &mut [usize], rtt_ns: &mut Vec<u32>, record: bool| -> u64 {
        let mut progressed = 0u64;
        for (i, &(src, _)) in pairs.iter().enumerate() {
            while in_flight[i] < p.in_flight {
                let dst = sinks[(i + walked[i]) % sinks.len()];
                walked[i] += 1;
                let t = ring.now_ns();
                ring.send(src, dst, i as u32, t, p.payload);
                if traced && record {
                    send_ns += ring.now_ns() - t;
                    sends += 1;
                }
                in_flight[i] += 1;
                sent_total += 1;
            }
        }
        for &(_, sink) in &pairs {
            ring.poll_sink(sink, |pair, stamp| {
                in_flight[pair as usize] -= 1;
                progressed += 1;
                if record {
                    rtt_ns.push((ring.now_ns() - stamp).min(u32::MAX as u64) as u32);
                }
            });
        }
        if progressed == 0 {
            brief_pause();
        }
        progressed
    };
    // Backlog: the first pass fills every client's window; then the
    // deliveries are left unread for a moment. Each queued delivery pins
    // its 64 KiB receive buffer, so the process's peak RSS is set here, by
    // a full window of unread deliveries, and not by how far the polling
    // below happens to lag.
    delivered_total += pass(&mut in_flight, &mut rtt_ns, false);
    std::thread::sleep(Duration::from_millis(100));
    let warm_until = Instant::now() + p.warm;
    while Instant::now() < warm_until {
        delivered_total += pass(&mut in_flight, &mut rtt_ns, false);
    }
    let cpu0 = reactor_cpu_s();
    let closed_started = Instant::now();
    let mut closed_delivered = 0u64;
    while closed_delivered < p.closed_msgs {
        closed_delivered += pass(&mut in_flight, &mut rtt_ns, true);
        assert!(
            closed_started.elapsed() < Duration::from_secs(60),
            "live-ring: closed loop stalled at {closed_delivered} of {} messages",
            p.closed_msgs
        );
    }
    let wall_s = closed_started.elapsed().as_secs_f64();
    let cpu1 = reactor_cpu_s();
    delivered_total += closed_delivered;
    // Let the windows drain so the open loop starts on an idle ring.
    let drain_until = Instant::now() + Duration::from_secs(2);
    while in_flight.iter().any(|&k| k > 0) && Instant::now() < drain_until {
        for &(_, sink) in &pairs {
            ring.poll_sink(sink, |pair, _| {
                in_flight[pair as usize] -= 1;
                delivered_total += 1;
            });
        }
        brief_pause();
    }

    // ---- phase 2, open loop: message k is due at start + k / rate ----
    let period_ns = 1_000_000_000 / p.open_rate_hz;
    let open_start = ring.now_ns() + 1_000_000;
    let mut late_ns: Vec<u32> = Vec::with_capacity(p.open_msgs as usize);
    let mut delivery_ns: Vec<u32> = Vec::with_capacity(p.open_msgs as usize);
    let mut next = 0u64;
    let open_started = Instant::now();
    let give_up = Duration::from_secs_f64(p.open_msgs as f64 / p.open_rate_hz as f64 + 2.0);
    while (delivery_ns.len() as u64) < p.open_msgs && open_started.elapsed() < give_up {
        let now = ring.now_ns();
        while next < p.open_msgs && open_start + next * period_ns <= now {
            let due = open_start + next * period_ns;
            let client = next as usize % pairs.len();
            let dst = sinks[(client + next as usize / pairs.len()) % sinks.len()];
            ring.send(pairs[client].0, dst, next as u32, due, p.payload);
            late_ns.push((ring.now_ns() - due).min(u32::MAX as u64) as u32);
            next += 1;
        }
        let mut got = 0;
        for &(_, sink) in &pairs {
            ring.poll_sink(sink, |_, due| {
                delivery_ns.push((ring.now_ns() - due).min(u32::MAX as u64) as u32);
                got += 1;
            });
        }
        if got == 0 {
            brief_pause();
        }
    }
    let measured_s = wall_s + open_started.elapsed().as_secs_f64();
    sent_total += next;
    delivered_total += delivery_ns.len() as u64;

    // ---- outcome ----
    let after = ring.counters();
    let mut window = Tallies::default();
    for (c, v) in after.iter() {
        window.telemetry.add(c, v - counters_before.get(c));
    }
    let exact = window.get(Counter::DeliveredExact).max(1);
    let hops_mean =
        (window.get(Counter::AppSent) + window.transit_forwards()) as f64 / exact as f64;
    rtt_ns.sort_unstable();
    late_ns.sort_unstable();
    delivery_ns.sort_unstable();
    let us = |ns: f64| ns / 1e3;

    let mut layer = Layer::default();
    layer.set("proc.threads", sys::thread_count() as f64);
    layer.set("wow.reactor.form_s", form_s);
    layer.set("wow.audit.ns_per_node", audit_s * 1e9 / n as f64);
    layer.set(
        "wow.reactor.cpu_us_per_msg",
        (cpu1 - cpu0) * 1e6 / closed_delivered as f64,
    );
    layer.set(
        "wow.reactor.delivery_p99_us",
        us(quantile(&delivery_ns, 0.99)),
    );
    layer.set("wow.reactor.gen_late_p99_us", us(quantile(&late_ns, 0.99)));
    layer.set("wow.reactor.closed_rtt_p50_us", us(quantile(&rtt_ns, 0.5)));
    if sends > 0 {
        layer.set("wow.reactor.send_app_ns", send_ns as f64 / sends as f64);
    }
    layer.set(
        "overlay.node.forwarded",
        window.get(Counter::Forwarded) as f64,
    );
    let transit = window.transit_forwards();
    if transit > 0 {
        layer.set(
            "overlay.node.fast_path_share",
            window.get(Counter::TransitFastPath) as f64 / transit as f64,
        );
    }
    layer.set("overlay.node.ctm_sent", window.telemetry.ctm_total() as f64);
    layer.set(
        "overlay.driver.frames_per_flush",
        window.get(Counter::BatchFrames) as f64 / window.get(Counter::BatchFlushes).max(1) as f64,
    );

    let mut notes = vec![
        format!(
            "loopback UDP, {n} nodes on 1 reactor shard + 1 generator thread; formed in {form_s:.2} s"
        ),
        format!(
            "phase 1 closed loop: {} client pairs x {} in flight x {} B, {} ms warm-up discarded, {} messages measured",
            pairs.len(),
            p.in_flight,
            p.payload,
            p.warm.as_millis(),
            closed_delivered,
        ),
        format!(
            "phase 2 open loop: {} msg/s fixed schedule, {} sent, {} latency samples timed from due time, generator lateness p99 {:.0} us",
            p.open_rate_hz,
            next,
            delivery_ns.len(),
            us(quantile(&late_ns, 0.99)),
        ),
    ];
    // The reactor's sockets cannot be tapped from outside, so the kernels'
    // corpus is the generator's own messages as they look on the wire, at
    // the hop counts a five-hop route passes through.
    let corpus = |i: usize| {
        let (src, dst) = pairs[i % pairs.len()];
        let frame = Frame::Routed(Packet {
            src: ring.addrs[src],
            dst: ring.addrs[dst],
            hops: (i % 5) as u8,
            ttl: ocfg.ttl,
            edge_forwarded: false,
            body: Body::App {
                proto: PROTO_LIVE,
                data: Bytes::from(vec![0u8; p.payload.max(12)]),
            },
        });
        Sampled {
            src: PhysAddr::new(PhysIp::new(127, 0, 0, 1), 4000),
            payload: frame.encode(),
        }
    };
    // Where a lost message went, should one ever be lost.
    notes.push(format!(
        "drops: ttl {} relay {} decode {} send_failed {}; delivered to a nearest node instead {}; peers declared dead {}",
        window.get(Counter::DroppedTtl),
        window.get(Counter::DroppedRelay),
        window.get(Counter::DroppedDecode),
        window.get(Counter::SendFailed),
        window.get(Counter::DeliveredNearest),
        window.get(Counter::PeerDead),
    ));
    let trace = traced.then(|| TraceData {
        corpus: (0..4096).map(corpus).collect(),
        snapshots: ring.views().into_iter().map(|v| v.conns).collect(),
        hosts: n,
        window: window.clone(),
        ..TraceData::default()
    });
    // Deregister every node; the last handle out joins the shard thread.
    drop(ring);
    drop(reactor);

    Rep {
        setup_s,
        wall_s,
        measured_s,
        attempted: sent_total,
        failed: sent_total - delivered_total,
        // A ring that fails its audit never gets this far.
        audit_ok: true,
        msgs: closed_delivered,
        hops_mean,
        delivery_p50_us: us(quantile(&delivery_ns, 0.5)),
        delivery_samples: delivery_ns.len(),
        digest: String::new(),
        notes,
        layer,
        trace,
    }
}
