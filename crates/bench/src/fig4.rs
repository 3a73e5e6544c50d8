//! Fig. 4 / Fig. 5 and the join-latency CDF: a node joins the 151-node
//! overlay and pings an existing node once per second.
//!
//! Paper setup (§V-B): node A instantiated a priori; node B started, sends
//! 400 ICMP echoes at 1 s intervals, terminated; repeated for 10 ring
//! positions × 10 runs per scenario. Scenarios differ in where A and B
//! live: UFL–UFL (both behind the non-hairpin UFL NAT), UFL–NWU, NWU–NWU
//! (behind the hairpinning VMware NAT). Three regimes emerge:
//!
//! 1. B is not yet routable — everything drops;
//! 2. B is routable — multi-hop RTTs through loaded PlanetLab routers;
//! 3. a shortcut forms — direct RTTs.
//!
//! The same trials yield the §IV-C joining claims: time-to-routable and
//! time-to-direct-connection distributions (90% ≤ 10 s, >99% ≤ 200 s).

use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use wow::testbed::{self, Site, TestbedConfig};
use wow::workstation::{control, IdleWorkload, Workstation};
use wow_middleware::ping::{PingProbe, PingResults};
use wow_netsim::prelude::*;
use wow_netsim::rng::SeedSplitter;
use wow_overlay::telemetry::TelemetryCounters;
use wow_vnet::ip::VirtIp;

/// Placement of (A, B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Both behind the UFL (non-hairpin) NAT.
    UflUfl,
    /// A at UFL, B at NWU.
    UflNwu,
    /// Both behind the NWU (hairpinning) NAT.
    NwuNwu,
}

impl Scenario {
    /// All three, in the paper's order.
    pub fn all() -> [Scenario; 3] {
        [Scenario::UflUfl, Scenario::UflNwu, Scenario::NwuNwu]
    }

    /// Label used in output.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::UflUfl => "UFL-UFL",
            Scenario::UflNwu => "UFL-NWU",
            Scenario::NwuNwu => "NWU-NWU",
        }
    }

    fn a_number(self) -> u8 {
        match self {
            Scenario::UflUfl | Scenario::UflNwu => 2, // node002 at UFL
            Scenario::NwuNwu => 17,                   // node017 at NWU
        }
    }

    fn b_site(self) -> Site {
        match self {
            Scenario::UflUfl => Site::Ufl,
            Scenario::UflNwu | Scenario::NwuNwu => Site::Nwu,
        }
    }
}

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Fig4Config {
    /// Trials per scenario (paper: 100).
    pub trials: usize,
    /// Pings per trial (paper: 400).
    pub pings: u16,
    /// PlanetLab router count (paper: 118).
    pub routers: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            trials: 30,
            pings: 400,
            routers: 118,
            seed: 0xF164,
        }
    }
}

impl Fig4Config {
    /// The paper's full scale: 100 trials per scenario.
    pub fn full() -> Self {
        Fig4Config {
            trials: 100,
            ..Fig4Config::default()
        }
    }

    /// A scaled-down configuration for `--quick` runs.
    pub fn quick() -> Self {
        Fig4Config {
            trials: 8,
            pings: 120,
            routers: 40,
            seed: 0xF164,
        }
    }
}

/// World-level queue-occupancy telemetry over one trial: how many packets
/// (and CPU service slices) queued behind a busy uplink, downlink or CPU,
/// and the total time they waited. Regime 2's RTT inflation is router CPU
/// queueing, not WAN latency — these counters attribute it directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueWaits {
    /// Packets that waited behind a busy sender uplink.
    pub uplink_queued: u64,
    /// Total sender-uplink queue wait, µs.
    pub uplink_wait_us: u64,
    /// Packets that waited behind a busy receiver downlink.
    pub downlink_queued: u64,
    /// Total receiver-downlink queue wait, µs.
    pub downlink_wait_us: u64,
    /// CPU acquisitions that waited behind earlier exclusive work.
    pub cpu_queued: u64,
    /// Total CPU queue wait, µs.
    pub cpu_wait_us: u64,
}

impl QueueWaits {
    /// Capture from a world's traffic counters.
    pub fn from_stats(s: &wow_netsim::sim::NetStats) -> Self {
        QueueWaits {
            uplink_queued: s.uplink_queued,
            uplink_wait_us: s.uplink_queue_wait_us,
            downlink_queued: s.downlink_queued,
            downlink_wait_us: s.downlink_queue_wait_us,
            cpu_queued: s.cpu_queued,
            cpu_wait_us: s.cpu_queue_wait_us,
        }
    }

    /// Mean wait in milliseconds, `NaN` when nothing queued.
    pub fn mean_ms(queued: u64, wait_us: u64) -> f64 {
        if queued > 0 {
            wait_us as f64 / queued as f64 / 1e3
        } else {
            f64::NAN
        }
    }
}

/// One trial's outcome.
#[derive(Clone, Debug)]
pub struct Trial {
    /// RTT per ICMP sequence number (`None` = dropped).
    pub rtts: Vec<Option<f64>>,
    /// Seconds from B's start to routability.
    pub time_to_routable: Option<f64>,
    /// Seconds from B's start to a direct connection with A.
    pub time_to_direct: Option<f64>,
    /// Node B's protocol telemetry over the whole trial: drops by reason,
    /// CTM attempts by kind, linking trials/backoffs — the *why* behind
    /// the three regimes.
    pub counters: TelemetryCounters,
    /// World-level queue occupancy over the trial (all hosts: routers, the
    /// 33 WOW nodes and B) — the congestion side of the story.
    pub queues: QueueWaits,
}

/// Run one trial of one scenario.
pub fn run_trial(scenario: Scenario, cfg: &Fig4Config, trial: u64) -> Trial {
    let seeds = SeedSplitter::new(cfg.seed);
    let tb_cfg = TestbedConfig {
        seed: seeds.seed_for_indexed(scenario.label(), trial),
        routers: cfg.routers,
        router_hosts: 20.min(cfg.routers.max(1)),
        ..TestbedConfig::default()
    };
    let nodes_start = tb_cfg.nodes_start;
    let node_gap = tb_cfg.node_start_gap;
    // The 33 idle WOW nodes always join (they are part of the paper's
    // overlay); quick mode shrinks the router pool and trial count instead.
    let mut tb = testbed::build(tb_cfg, |_, _| IdleWorkload);
    let a = tb.node(scenario.a_number()).clone();
    let join_at = nodes_start + node_gap.mul_f64(34.0) + SimDuration::from_secs(60); // let the WOW nodes settle first

    // Node B: a fresh VM in the scenario's site, with a ring position that
    // varies by trial (the paper's "10 different virtual IP addresses").
    let b_ip = VirtIp::new(172, 16, 1, 100 + (trial % 10) as u8);
    let b_host = tb.sim.add_host(
        tb.domain(scenario.b_site()),
        wow_netsim::topology::HostSpec::new("node-b").link_bps(2.5e6),
    );
    let results: Arc<Mutex<PingResults>> = Arc::new(Mutex::new(PingResults::default()));
    let probe = PingProbe::new(a.ip, cfg.pings, results.clone());
    let ws = control::workstation(
        b_ip,
        testbed::NAMESPACE,
        wow_overlay::config::OverlayConfig::default(),
        wow_vnet::tcp::TcpConfig::default(),
        testbed::IPOP_PORT,
        tb.bootstrap.clone(),
        seeds.seed_for_indexed("node-b", trial),
        probe,
    );
    let b_actor = tb.sim.add_actor_at(b_host, join_at, ws);

    // Poll B's overlay state to timestamp routability / direct connection.
    let routable_at: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
    let direct_at: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
    let horizon = join_at + SimDuration::from_secs(u64::from(cfg.pings) + 40);
    let mut poll = join_at;
    while poll < horizon {
        poll += SimDuration::from_millis(250);
        let routable_at = routable_at.clone();
        let direct_at = direct_at.clone();
        let a_addr = a.addr;
        tb.sim.schedule(poll, move |sim| {
            let (routable, direct) =
                sim.with_actor::<Workstation<PingProbe>, _>(b_actor, |ws, ctx| {
                    let _ = ctx;
                    (ws.node().is_routable(), ws.node().has_direct(a_addr))
                });
            let now_rel = |t: SimTime| t.saturating_since(join_at).as_secs_f64();
            let now = sim.now();
            if routable {
                routable_at.lock().unwrap().get_or_insert(now_rel(now));
            }
            if direct {
                direct_at.lock().unwrap().get_or_insert(now_rel(now));
            }
        });
    }
    tb.sim.run_until(horizon);

    let r = results.lock().unwrap();
    let mut rtts = vec![None; usize::from(cfg.pings)];
    for (seq, rtt) in &r.replies {
        if let Some(slot) = rtts.get_mut(usize::from(*seq)) {
            *slot = Some(rtt.as_millis_f64());
        }
    }
    let time_to_routable = *routable_at.lock().unwrap();
    let time_to_direct = *direct_at.lock().unwrap();
    let counters = tb
        .sim
        .with_actor::<Workstation<PingProbe>, _>(b_actor, |ws, _| ws.counters());
    let queues = QueueWaits::from_stats(&tb.sim.world_ref().stats);
    Trial {
        rtts,
        time_to_routable,
        time_to_direct,
        counters,
        queues,
    }
}

/// Aggregated per-sequence profile (one Fig. 4 curve pair).
#[derive(Clone, Debug)]
pub struct Profile {
    /// Scenario.
    pub scenario: Scenario,
    /// Mean RTT (ms) over answered pings, per sequence number.
    pub avg_rtt_ms: Vec<Option<f64>>,
    /// Fraction of trials whose ping at this sequence number was lost.
    pub drop_frac: Vec<f64>,
    /// The raw trials (for the CDF).
    pub trials: Vec<Trial>,
}

/// Run all trials of one scenario in parallel.
pub fn run_scenario(scenario: Scenario, cfg: &Fig4Config) -> Profile {
    let trials: Vec<Trial> = (0..cfg.trials as u64)
        .into_par_iter()
        .map(|t| run_trial(scenario, cfg, t))
        .collect();
    let n = usize::from(cfg.pings);
    let mut avg_rtt_ms = Vec::with_capacity(n);
    let mut drop_frac = Vec::with_capacity(n);
    for seq in 0..n {
        let mut sum = 0.0;
        let mut replies = 0usize;
        let mut drops = 0usize;
        for t in &trials {
            match t.rtts[seq] {
                Some(rtt) => {
                    sum += rtt;
                    replies += 1;
                }
                None => drops += 1,
            }
        }
        avg_rtt_ms.push(if replies > 0 {
            Some(sum / replies as f64)
        } else {
            None
        });
        drop_frac.push(drops as f64 / trials.len() as f64);
    }
    Profile {
        scenario,
        avg_rtt_ms,
        drop_frac,
        trials,
    }
}

/// Mean over a window of per-seq values, ignoring missing entries.
pub fn window_mean(values: &[Option<f64>], range: std::ops::Range<usize>) -> Option<f64> {
    let xs: Vec<f64> = values[range.start.min(values.len())..range.end.min(values.len())]
        .iter()
        .flatten()
        .copied()
        .collect();
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Mean drop fraction over a window.
pub fn window_drop(drop: &[f64], range: std::ops::Range<usize>) -> f64 {
    let xs = &drop[range.start.min(drop.len())..range.end.min(drop.len())];
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
