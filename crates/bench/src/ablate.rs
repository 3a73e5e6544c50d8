//! Ablations of the design choices the paper leaves as knobs:
//!
//! * **Far-connection count `k`** — the paper cites an O((1/k)·log²n)
//!   expected hop count; sweep `k` and measure delivered-path hops.
//! * **Shortcut score threshold** — "currently a constant" in the paper,
//!   with maintenance overhead as the counterweight; sweep it and measure
//!   time-to-shortcut under steady traffic.
//! * **URI trial order** — IPOP tries the NAT-assigned public URI first,
//!   which burns ~155 s behind a non-hairpin NAT (the UFL–UFL case);
//!   flipping to private-first removes that cost inside one domain.

use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use wow::simrt::{ForwardingCost, NoApp, OverlayHost};
use wow::workstation::{control, Workstation};
use wow_middleware::ping::{PingProbe, PingResults};
use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnType;
use wow_overlay::node::BrunetNode;
use wow_overlay::uri::{TransportUri, UriOrder};

const PORT: u16 = 14_000;

// ------------------------------------------------------------- far k ----

/// Result of one far-`k` measurement.
#[derive(Clone, Debug)]
pub struct FarKPoint {
    /// The configured k.
    pub k: usize,
    /// Mean hops over delivered application packets.
    pub mean_hops: f64,
    /// Delivery rate of the all-pairs probe.
    pub delivery: f64,
}

/// Build an `n`-node public overlay with `far_count = k`, converge, send
/// all-pairs probes, and report the mean delivered hop count.
pub fn far_k_point(n: usize, k: usize, seed: u64) -> FarKPoint {
    let cfg = OverlayConfig {
        far_count: k,
        ..OverlayConfig::default()
    };
    let mut sim = Sim::new(seed);
    let wan = sim.add_domain(DomainSpec::public("wan"));
    let seeds = SeedSplitter::new(seed);
    let mut rng = seeds.rng("addr");
    let mut bootstrap: Vec<TransportUri> = Vec::new();
    let mut actors = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let host = sim.add_host(wan, HostSpec::new(format!("h{i}")).link_bps(4e6));
        let addr = Address::random(&mut rng);
        let node = BrunetNode::new(addr, cfg.clone(), seeds.seed_for_indexed("n", i as u64));
        let actor = sim.add_actor_at(
            host,
            SimTime::from_millis(i as u64 * 100),
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
        actors.push(actor);
        addrs.push(addr);
    }
    sim.run_until(SimTime::from_secs(240));
    // All-pairs probes, spaced so the shortcut overlord never triggers.
    let mut t = SimTime::from_secs(240);
    for (i, &actor) in actors.iter().enumerate() {
        for (j, &dst) in addrs.iter().enumerate() {
            if i == j {
                continue;
            }
            t += SimDuration::from_millis(3);
            sim.schedule(t, move |sim| {
                sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, ctx| {
                    h.send_app(ctx, dst, 9, bytes::Bytes::from_static(b"probe"));
                });
            });
        }
    }
    sim.run_until(t + SimDuration::from_secs(30));
    let mut delivered = 0u64;
    let mut hops = 0u64;
    for &actor in &actors {
        let s = sim.with_actor::<OverlayHost<NoApp>, _>(actor, |h, _| h.node().stats());
        delivered += s.delivered;
        hops += s.hops_sum;
    }
    let pairs = (n * (n - 1)) as f64;
    FarKPoint {
        k,
        mean_hops: hops as f64 / delivered.max(1) as f64,
        delivery: delivered as f64 / pairs,
    }
}

/// Sweep k over an n-node overlay.
pub fn far_k_sweep(n: usize, ks: &[usize], seed: u64) -> Vec<FarKPoint> {
    ks.par_iter().map(|&k| far_k_point(n, k, seed)).collect()
}

// ----------------------------------------------- shortcut threshold ----

/// Result of one threshold measurement.
#[derive(Clone, Debug)]
pub struct ThresholdPoint {
    /// The configured score threshold.
    pub threshold: f64,
    /// Median seconds from traffic start to a shortcut (the shortcut role
    /// on B's connection to A: a near or far link the ring happens to make
    /// between the two is not what the threshold governs).
    pub median_time_to_direct: f64,
    /// Trials that never formed one within the horizon.
    pub missed: usize,
}

/// Two workstations behind different (cone, hairpinning) NATs exchange
/// 1 ping/s; vary the score threshold; measure time-to-shortcut.
pub fn threshold_point(threshold: f64, trials: u64, seed: u64) -> ThresholdPoint {
    let cfg = OverlayConfig {
        shortcut_threshold: threshold,
        ..OverlayConfig::default()
    };
    let (median_time_to_direct, missed) = time_to_link(
        &cfg,
        trials,
        |trial| seed ^ trial,
        |sim| {
            let a = sim.add_domain(DomainSpec::natted("a", NatConfig::hairpinning()));
            let b = sim.add_domain(DomainSpec::natted("b", NatConfig::hairpinning()));
            (a, b)
        },
        |node, peer| {
            node.conns()
                .get(peer)
                .is_some_and(|c| c.types.contains(ConnType::Shortcut))
        },
    );
    ThresholdPoint {
        threshold,
        median_time_to_direct,
        missed,
    }
}

// ------------------------------------------------------- URI ordering ----

/// Result of one URI-order measurement.
#[derive(Clone, Debug)]
pub struct UriOrderPoint {
    /// The ordering policy.
    pub order: UriOrder,
    /// Median seconds to a direct connection (both peers behind one
    /// non-hairpin NAT — the UFL–UFL configuration).
    pub median_time_to_direct: f64,
    /// Trials that never connected.
    pub missed: usize,
}

/// The UFL–UFL pathology: both nodes behind one non-hairpin NAT. With
/// public-first URI ordering the linking protocol burns the full retry
/// budget (~155 s) on the public mapping before the private address works.
pub fn uri_order_point(order: UriOrder, trials: u64, seed: u64) -> UriOrderPoint {
    let cfg = OverlayConfig {
        uri_order: order,
        ..OverlayConfig::default()
    };
    let (median_time_to_direct, missed) = time_to_link(
        &cfg,
        trials,
        |trial| seed ^ (trial << 8),
        |sim| {
            // One shared, non-hairpin NAT for both workstations.
            let campus = sim.add_domain(DomainSpec::natted("campus", NatConfig::typical()));
            (campus, campus)
        },
        |node, peer| node.has_direct(peer),
    );
    UriOrderPoint {
        order,
        median_time_to_direct,
        missed,
    }
}

// -------------------------------------------------- the shared trial ----

/// Run `trials` seeded trials of one two-workstation world and return the
/// median seconds until B links to A (`linked` polled every 500 ms over a
/// 400 s horizon) and how many trials never did.
///
/// Each trial seeds its simulator with `trial_seed(trial)`, starts 12
/// public routers, then places A and B in the domains `nat_domains`
/// creates; B pings A at 1/s from t = 4 s.
fn time_to_link(
    cfg: &OverlayConfig,
    trials: u64,
    trial_seed: impl Fn(u64) -> u64 + Sync,
    nat_domains: impl Fn(&mut Sim) -> (DomainId, DomainId) + Sync,
    linked: fn(&BrunetNode, Address) -> bool,
) -> (f64, usize) {
    let times: Vec<Option<f64>> = (0..trials)
        .into_par_iter()
        .map(|trial| {
            let seed = trial_seed(trial);
            let seeds = SeedSplitter::new(seed);
            let mut sim = Sim::new(seed);
            let wan = sim.add_domain(DomainSpec::public("wan"));
            let (a_dom, b_dom) = nat_domains(&mut sim);
            let mut rng = seeds.rng("addr");
            let mut bootstrap: Vec<TransportUri> = Vec::new();
            for i in 0..12u64 {
                let host = sim.add_host(wan, HostSpec::new(format!("r{i}")));
                let node = BrunetNode::new(
                    Address::random(&mut rng),
                    cfg.clone(),
                    seeds.seed_for_indexed("r", i),
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
            let results = Arc::new(Mutex::new(PingResults::default()));
            let a_ip = wow_vnet::ip::VirtIp::testbed(2);
            let b_ip = wow_vnet::ip::VirtIp::testbed(3);
            let host_a = sim.add_host(a_dom, HostSpec::new("a"));
            let host_b = sim.add_host(b_dom, HostSpec::new("b"));
            sim.add_actor_at(
                host_a,
                SimTime::from_secs(2),
                control::workstation(
                    a_ip,
                    "ablate",
                    cfg.clone(),
                    wow_vnet::tcp::TcpConfig::default(),
                    PORT,
                    bootstrap.clone(),
                    seeds.seed_for("a"),
                    wow::workstation::IdleWorkload,
                ),
            );
            let probe = PingProbe::new(a_ip, 400, results);
            let b_actor = sim.add_actor_at(
                host_b,
                SimTime::from_secs(4),
                control::workstation(
                    b_ip,
                    "ablate",
                    cfg.clone(),
                    wow_vnet::tcp::TcpConfig::default(),
                    PORT,
                    bootstrap,
                    seeds.seed_for("b"),
                    probe,
                ),
            );
            let a_addr = wow_vnet::ipop::address_for("ablate", a_ip);
            let t_start = SimTime::from_secs(4);
            let found: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
            let mut poll = t_start;
            let horizon = t_start + SimDuration::from_secs(400);
            while poll < horizon {
                poll += SimDuration::from_millis(500);
                let found = found.clone();
                sim.schedule(poll, move |sim| {
                    if found
                        .lock()
                        .expect("no poll panicked holding the lock")
                        .is_some()
                    {
                        return;
                    }
                    let done = sim.with_actor::<Workstation<PingProbe>, _>(b_actor, |ws, _| {
                        linked(ws.node(), a_addr)
                    });
                    if done {
                        *found.lock().expect("no poll panicked holding the lock") =
                            Some(sim.now().saturating_since(t_start).as_secs_f64());
                    }
                });
            }
            sim.run_until(horizon);
            let out = *found.lock().expect("no poll panicked holding the lock");
            out
        })
        .collect();
    let mut hit: Vec<f64> = times.iter().flatten().copied().collect();
    hit.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    (
        hit.get(hit.len() / 2).copied().unwrap_or(f64::NAN),
        times.iter().filter(|t| t.is_none()).count(),
    )
}
