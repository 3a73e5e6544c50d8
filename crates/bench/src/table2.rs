//! Table II: ttcp bandwidth between WOW nodes, with and without shortcuts.
//!
//! Paper: 12 ttcp transfers of 695 MB / 50 MB / 8 MB files for two node
//! placements. With shortcuts: 1614 KB/s (UFL–UFL) and 1250 KB/s (UFL–NWU);
//! without: 84–85 KB/s — the multi-hop path crosses heavily loaded
//! PlanetLab routers whose user-level forwarding is the bottleneck.
//!
//! We report *steady-state* bandwidth (the last 75% of each transfer), so
//! the one-time shortcut-setup transient — which the paper's repeated
//! transfers amortize — does not skew small files.

use std::sync::{Arc, Mutex};

use wow::simrt::{NoApp, OverlayHost};
use wow::testbed::{self, TestbedConfig};
use wow::workstation::Workstation;
use wow_middleware::duo::Both;
use wow_middleware::ping::{PingProbe, PingResults};
use wow_middleware::ttcp::{TransferProgress, TtcpReceiver, TtcpSender};
use wow_netsim::prelude::*;
use wow_netsim::rng::SeedSplitter;
use wow_netsim::trace::{mean, stddev};
use wow_overlay::addr::Address;
use wow_overlay::conn::NextHop;

use crate::roles::Role;
use crate::transit::TransitStats;

/// A Table II cell: one placement, one shortcut setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Sender node number (Table I).
    pub sender: u8,
    /// Receiver node number.
    pub receiver: u8,
    /// Row label.
    pub label: &'static str,
}

/// The paper's two placements. The specific node numbers are chosen so the
/// pair's overlay addresses sit on distant ring arcs: virtual-IP hashing
/// happens to place some UFL and NWU nodes ring-adjacent (e.g. node003 and
/// node017), which makes them permanent near-neighbours — a configuration
/// that cannot exhibit the paper's multi-hop baseline.
pub fn placements() -> [Placement; 2] {
    [
        Placement {
            sender: 9,
            receiver: 13,
            label: "UFL-UFL",
        },
        Placement {
            sender: 9,
            receiver: 24,
            label: "UFL-NWU",
        },
    ]
}

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Table2Config {
    /// Transfer sizes in bytes.
    pub sizes: Vec<u64>,
    /// Transfers per size (paper: 12 across the three sizes).
    pub repeats: usize,
    /// Router count.
    pub routers: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            // 695 MB at multi-hop speed would take hours of simulated time
            // per cell; bandwidth is size-independent in steady state, so
            // the default trims the largest size. `--full` restores it.
            sizes: vec![8_000_000, 24_000_000],
            repeats: 2,
            routers: 118,
            seed: 0x7AB2,
        }
    }
}

impl Table2Config {
    /// Paper-faithful sizes (695/50/8 MB), 12 transfers per cell.
    pub fn full() -> Self {
        Table2Config {
            sizes: vec![8_000_000, 50_000_000, 695_000_000],
            repeats: 4,
            ..Table2Config::default()
        }
    }

    /// `--quick` scale.
    pub fn quick() -> Self {
        Table2Config {
            sizes: vec![4_000_000],
            repeats: 1,
            routers: 40,
            seed: 0x7AB2,
        }
    }
}

/// Steady-state bandwidth (KB/s) over the last 75% of the transfer.
fn steady_bandwidth(p: &TransferProgress) -> Option<f64> {
    let end = p.completed?;
    let total = p.total;
    if total == 0 {
        return None;
    }
    let cut = total / 4;
    let (t_cut, b_cut) = p
        .samples
        .iter()
        .find(|(_, b)| *b >= cut)
        .copied()
        .unwrap_or((p.started?, 0));
    let secs = end.saturating_since(t_cut).as_secs_f64();
    if secs <= 0.0 {
        return None;
    }
    Some((total - b_cut) as f64 / 1000.0 / secs)
}

/// Outcome of one transfer attempt.
pub enum Attempt {
    /// Steady-state KB/s, plus the run's transit-forwarding totals.
    Done(f64, TransitStats),
    /// The pair happened to share a direct overlay link before traffic
    /// flowed, which would contaminate a shortcuts-disabled cell; the
    /// caller resamples with a different seed.
    ChanceDirect,
    /// The transfer did not complete within the horizon.
    Incomplete,
}

/// Run one transfer.
pub fn run_transfer(
    placement: Placement,
    shortcuts: bool,
    size: u64,
    routers: usize,
    seed: u64,
) -> Attempt {
    let overlay = if shortcuts {
        wow_overlay::config::OverlayConfig::default()
    } else {
        wow_overlay::config::OverlayConfig::default().without_shortcuts()
    };
    let tb_cfg = TestbedConfig {
        seed,
        overlay,
        routers,
        router_hosts: 20.min(routers.max(1)),
        ..TestbedConfig::default()
    };
    let progress: Arc<Mutex<TransferProgress>> = Arc::new(Mutex::new(TransferProgress::default()));
    let recv_progress = progress.clone();
    let port = 5001;
    // The sender warms the pair with 1/s pings from boot (as the paper's
    // long-lived deployment would have), then transfers once the overlay —
    // and, with shortcuts enabled, the direct link — has settled. The
    // UFL-UFL shortcut needs ~175 s (the non-hairpin NAT burns the public
    // URI), so the measured transfer starts well after that.
    let start_delay = SimDuration::from_secs(260);
    let receiver_ip = wow_vnet::ip::VirtIp::testbed(placement.receiver);
    let mut tb = testbed::build(tb_cfg, |_, spec| {
        if spec.number == placement.sender {
            Role::TtcpSendWarm(Box::new(Both::new(
                PingProbe::new(
                    receiver_ip,
                    600,
                    Arc::new(Mutex::new(PingResults::default())),
                ),
                TtcpSender::new(
                    receiver_ip,
                    port,
                    size,
                    start_delay,
                    Arc::new(Mutex::new(TransferProgress::default())),
                ),
            )))
        } else if spec.number == placement.receiver {
            Role::TtcpRecv(TtcpReceiver::new(port, recv_progress.clone()))
        } else {
            Role::Idle(wow::workstation::IdleWorkload)
        }
    });
    // For a shortcuts-disabled cell the overlay route between the pair
    // must cross at least one PlanetLab router, as the paper's 3-hop
    // baseline path did: 151 ring members occasionally place two WOW nodes
    // adjacent (a direct or all-VM path), which is not the scenario the
    // paper's "without shortcuts" column measures.
    let chance_direct = Arc::new(Mutex::new(false));
    if !shortcuts {
        let sender_actor = tb.node(placement.sender).actor;
        let receiver_addr = tb.node(placement.receiver).addr;
        // addr → (actor, is_router) for the whole overlay, to walk routes.
        let mut directory: Vec<(Address, ActorId, bool)> = Vec::new();
        for n in &tb.nodes {
            directory.push((n.addr, n.actor, false));
        }
        let router_actors = tb.routers.clone();
        // Router addresses are read at check time (they are random). One
        // check, at the moment the transfer begins: that snapshot is the
        // path whose bandwidth dominates the measurement.
        for k in 0..1u64 {
            let flag = chance_direct.clone();
            let directory = directory.clone();
            let router_actors = router_actors.clone();
            tb.sim
                .schedule(SimTime::from_secs(380 + k * 120), move |sim| {
                    if *flag.lock().unwrap() {
                        return;
                    }
                    let mut dir: Vec<(Address, ActorId, bool)> = directory.clone();
                    for &r in &router_actors {
                        let addr =
                            sim.with_actor::<OverlayHost<NoApp>, _>(r, |h, _| h.node().address());
                        dir.push((addr, r, true));
                    }
                    let next_of = |sim: &mut Sim, at: (ActorId, bool), dst: Address| {
                        let step = |conns: &wow_overlay::conn::ConnTable,
                                    me: Address|
                         -> Option<Address> {
                            match conns.next_hop(me, dst, &[]) {
                                NextHop::Relay(c) => Some(c.peer),
                                NextHop::Local => None,
                            }
                        };
                        if at.1 {
                            sim.with_actor::<OverlayHost<NoApp>, _>(at.0, |h, _| {
                                step(h.node().conns(), h.node().address())
                            })
                        } else {
                            sim.with_actor::<Workstation<Role>, _>(at.0, |h, _| {
                                step(h.node().conns(), h.node().address())
                            })
                        }
                    };
                    // Walk the greedy route sender → receiver.
                    let mut at = (sender_actor, false);
                    let mut router_hops = 0usize;
                    let mut reached = false;
                    for _ in 0..16 {
                        match next_of(sim, at, receiver_addr) {
                            Some(next_addr) if next_addr == receiver_addr => {
                                reached = true;
                                break;
                            }
                            Some(next_addr) => {
                                let Some(&(_, actor, is_router)) =
                                    dir.iter().find(|(a, _, _)| *a == next_addr)
                                else {
                                    break;
                                };
                                if is_router {
                                    router_hops += 1;
                                }
                                at = (actor, is_router);
                            }
                            None => break,
                        }
                    }
                    if reached && router_hops == 0 {
                        *flag.lock().unwrap() = true;
                    }
                });
        }
    }
    // Horizon: settle + worst-case transfer time at ~40 KB/s + slack.
    let worst = size as f64 / 40_000.0;
    let horizon = SimTime::from_secs(520 + worst as u64 + 120);
    tb.sim.run_until(horizon);
    if *chance_direct.lock().unwrap() {
        return Attempt::ChanceDirect;
    }
    let transit = TransitStats::harvest::<Role>(&mut tb);
    let p = progress.lock().unwrap();
    match steady_bandwidth(&p) {
        Some(kbs) => Attempt::Done(kbs, transit),
        None => Attempt::Incomplete,
    }
}

/// One cell's aggregated numbers.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row label.
    pub label: &'static str,
    /// Shortcut setting.
    pub shortcuts: bool,
    /// Mean steady-state bandwidth, KB/s.
    pub bandwidth_kbs: f64,
    /// Standard deviation across transfers.
    pub stddev_kbs: f64,
    /// Transfers that completed.
    pub completed: usize,
    /// Transfers attempted.
    pub attempted: usize,
    /// Transit forwarding totals summed over the completed transfers — the
    /// multi-hop traffic shortcuts exist to remove, so the enabled cells
    /// should show far less of it than the disabled ones.
    pub transit: TransitStats,
}

/// Run the full table.
pub fn run(cfg: &Table2Config) -> Vec<Cell> {
    let seeds = SeedSplitter::new(cfg.seed);
    let mut cells = Vec::new();
    for placement in placements() {
        for shortcuts in [true, false] {
            let mut xs = Vec::new();
            let mut attempted = 0;
            let mut transit = TransitStats::default();
            for (si, &size) in cfg.sizes.iter().enumerate() {
                for rep in 0..cfg.repeats {
                    attempted += 1;
                    // Resample chance-direct pairs up to 4 times.
                    for resample in 0..4u64 {
                        let seed = seeds.seed_for_indexed(
                            placement.label,
                            (shortcuts as u64) << 40
                                | resample << 32
                                | (si as u64) << 16
                                | rep as u64,
                        );
                        match run_transfer(placement, shortcuts, size, cfg.routers, seed) {
                            Attempt::Done(kbs, t) => {
                                xs.push(kbs);
                                transit.merge(t);
                                break;
                            }
                            Attempt::ChanceDirect => continue,
                            Attempt::Incomplete => break,
                        }
                    }
                }
            }
            cells.push(Cell {
                label: placement.label,
                shortcuts,
                bandwidth_kbs: mean(&xs).unwrap_or(f64::NAN),
                stddev_kbs: stddev(&xs).unwrap_or(0.0),
                completed: xs.len(),
                attempted,
                transit,
            });
        }
    }
    cells
}
