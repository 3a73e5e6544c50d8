//! Live-runtime density bench: a real-socket ring on loopback.
//!
//! The simulator harnesses measure the protocol; this one measures the
//! *runtime*. It grows a ring of [`wow::udprt::UdpNode`]s multiplexed
//! onto a [`wow::reactor::Reactor`] — every node a real UDP socket on
//! 127.0.0.1 — then drives application traffic through the converged
//! overlay and reports:
//!
//! * **time-to-routable** — wall-clock from first spawn until every node
//!   has a structured-near connection (joins proceed in waves so the
//!   bootstrap node is not a thundering-herd victim);
//! * **auditor verdict** — the structural ring auditor from
//!   [`wow::audit`] run over every live node's connection table;
//! * **delivered messages/sec/core** — sustained exact-delivery
//!   throughput across random pairs, normalized by reactor threads.
//!
//! At `--n 1000` this is a thousand sockets and drivers on a couple of
//! event-loop threads — a density a thread per node cannot reach (a
//! thousand OS threads polling every 20 ms), which is the point.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wow::audit::audit_ring;
use wow::reactor::Reactor;
use wow::udprt::{UdpEvent, UdpNode};
use wow_netsim::time::{SimDuration, SimTime};
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;

/// Parameters of one live-ring run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Ring size (sockets, drivers).
    pub nodes: usize,
    /// Reactor shard threads.
    pub threads: usize,
    /// Nodes joined per wave during formation.
    pub wave: usize,
    /// Seconds of sustained traffic to measure.
    pub traffic_secs: f64,
    /// Greedy routability pairs sampled by the auditor.
    pub audit_samples: usize,
    /// Base rng seed.
    pub seed: u64,
}

impl LiveConfig {
    /// Defaults for a ring of `nodes`.
    pub fn at(nodes: usize) -> Self {
        LiveConfig {
            nodes,
            threads: 2,
            wave: 32,
            traffic_secs: 10.0,
            audit_samples: 64,
            seed: 42,
        }
    }
}

/// Measured outcome of one live-ring run.
#[derive(Clone, Debug)]
pub struct LiveResult {
    /// Ring size.
    pub nodes: usize,
    /// Reactor shard threads.
    pub threads: usize,
    /// Wall-clock seconds from first spawn to every node routable.
    pub routable_wall_s: f64,
    /// Did the structural auditor pass over the converged ring?
    pub audit_passed: bool,
    /// Auditor violations (empty when passed).
    pub audit_violations: usize,
    /// Wall-clock seconds spent collecting views + auditing.
    pub audit_wall_s: f64,
    /// Exact deliveries observed during the traffic phase.
    pub delivered: u64,
    /// Messages injected during the traffic phase.
    pub sent: u64,
    /// Traffic phase wall-clock seconds.
    pub traffic_wall_s: f64,
    /// Peak resident set in MiB at the end of the run.
    pub peak_rss_mib: f64,
}

impl LiveResult {
    /// Exact deliveries per wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.delivered as f64 / self.traffic_wall_s.max(1e-9)
    }

    /// Exact deliveries per second per reactor thread.
    pub fn msgs_per_sec_per_core(&self) -> f64 {
        self.msgs_per_sec() / self.threads.max(1) as f64
    }
}

/// Live-runtime overlay config: quick enough to converge a big ring in
/// wall-clock minutes, slow enough that a thousand drivers' background
/// timers do not saturate one core.
pub fn live_overlay_config() -> OverlayConfig {
    OverlayConfig {
        link_rto: SimDuration::from_millis(400),
        stabilize_interval: SimDuration::from_millis(600),
        far_check_interval: SimDuration::from_millis(1000),
        join_retry: SimDuration::from_millis(1200),
        ping_interval: SimDuration::from_secs(5),
        ping_rto: SimDuration::from_secs(1),
        ping_retries: 2,
        ..OverlayConfig::default()
    }
}

fn all_routable(nodes: &[UdpNode]) -> bool {
    nodes.iter().all(|n| n.snapshot().routable)
}

/// Grow the ring, audit it, drive traffic, and measure.
pub fn run_ring(cfg: &LiveConfig) -> LiveResult {
    let reactor = Reactor::new(cfg.threads).expect("start reactor");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ocfg = live_overlay_config();

    // ---- formation, in waves ------------------------------------------
    let t0 = Instant::now();
    let first = reactor
        .spawn_node(Address::random(&mut rng), ocfg.clone(), 0, Vec::new(), 1)
        .expect("spawn bootstrap node");
    let bootstrap = vec![first.uri()];
    let mut nodes = vec![first];
    while nodes.len() < cfg.nodes {
        let next_wave = cfg.wave.min(cfg.nodes - nodes.len());
        for _ in 0..next_wave {
            let seed = nodes.len() as u64 + 1;
            nodes.push(
                reactor
                    .spawn_node(
                        Address::random(&mut rng),
                        ocfg.clone(),
                        0,
                        bootstrap.clone(),
                        seed,
                    )
                    .expect("spawn node"),
            );
        }
        // Let the wave settle before piling on the next one: every joined
        // node routable, not just the newest.
        while !all_routable(&nodes) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let routable_wall_s = t0.elapsed().as_secs_f64();

    // ---- audit --------------------------------------------------------
    let t1 = Instant::now();
    let mut audit_passed = false;
    let mut audit_violations = usize::MAX;
    // The ring is routable before it is perfectly *stabilized* (trimming
    // the last redundant links lags); give the auditor a settle window.
    let audit_deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < audit_deadline {
        let snaps: Vec<_> = nodes
            .iter()
            .filter_map(|n| n.view())
            .map(|v| v.conns)
            .collect();
        if snaps.len() == nodes.len() {
            let mut arng = SmallRng::seed_from_u64(cfg.seed ^ 0xa0d1);
            let report = audit_ring(SimTime::ZERO, &snaps, cfg.audit_samples, &mut arng);
            audit_violations = report.violations.len();
            if report.passed() {
                audit_passed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    let audit_wall_s = t1.elapsed().as_secs_f64();

    // ---- traffic ------------------------------------------------------
    // Random exact-destination pairs with a bounded in-flight window, so
    // the measurement tracks the runtime's sustainable delivery rate
    // rather than how fast an unbounded command queue can grow.
    let addrs: Vec<Address> = nodes.iter().map(|n| n.address()).collect();
    let payload = Bytes::from_static(b"live-bench");
    let window = (4 * cfg.nodes as u64).max(256);
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let t2 = Instant::now();
    let traffic_end = t2 + Duration::from_secs_f64(cfg.traffic_secs);
    while Instant::now() < traffic_end {
        let mut progressed = false;
        while sent - delivered < window {
            let s = rng.gen_range(0..nodes.len());
            let mut d = rng.gen_range(0..nodes.len());
            if d == s {
                d = (d + 1) % nodes.len();
            }
            nodes[s].send_app(addrs[d], 17, payload.clone());
            sent += 1;
            progressed = true;
        }
        for n in &nodes {
            while let Ok(ev) = n.events().try_recv() {
                if let UdpEvent::Deliver { exact: true, .. } = ev {
                    delivered += 1;
                    progressed = true;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Drain the tail so in-flight messages count.
    let drain_end = Instant::now() + Duration::from_secs(2);
    while Instant::now() < drain_end && delivered < sent {
        for n in &nodes {
            while let Ok(ev) = n.events().try_recv() {
                if let UdpEvent::Deliver { exact: true, .. } = ev {
                    delivered += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let traffic_wall_s = t2.elapsed().as_secs_f64();

    LiveResult {
        nodes: cfg.nodes,
        threads: cfg.threads,
        routable_wall_s,
        audit_passed,
        audit_violations: if audit_passed { 0 } else { audit_violations },
        audit_wall_s,
        delivered,
        sent,
        traffic_wall_s,
        peak_rss_mib: crate::scale::peak_rss_mib(),
    }
}
