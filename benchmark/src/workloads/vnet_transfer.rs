//! `vnet-transfer`: the paper's Table II on its NAT'd testbed — ttcp from
//! a UFL node to an NWU node over vnet TCP tunnelled through IPOP, once
//! with shortcuts and once without.
//!
//! The only workload where NAT translation, router CPU queueing, the vnet
//! TCP/IP stack, the IPOP tunnel and the workstation glue do the work; the
//! ring and join workloads bypass all of them. `testbed::build` makes the
//! actors, so there are no seam spans here: the layer numbers come from
//! counters and kernels.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use wow::simrt::{NoApp, OverlayHost};
use wow::testbed::{self, Testbed, TestbedConfig};
use wow::workstation::{IdleWorkload, Workload, Workstation, WsHandle};
use wow_middleware::duo::Both;
use wow_middleware::ping::{PingProbe, PingResults};
use wow_middleware::ttcp::{TransferProgress, TtcpReceiver, TtcpSender};
use wow_netsim::addr::PhysIp;
use wow_netsim::prelude::*;
use wow_overlay::config::OverlayConfig;
use wow_overlay::conn::ConnSnapshot;
use wow_overlay::wire::{Body, Frame, Packet};
use wow_vnet::ip::VirtIp;
use wow_vnet::stack::StackEvent;

use super::{counter_layers, Layer, Rep, Size, TraceData};
use crate::spanned::Sampled;
use crate::world::{quantile, run_timed, Tallies};

/// Table II's UFL→NWU placement: node009 sends to node024. Their overlay
/// addresses sit on distant ring arcs, so without shortcuts the route
/// crosses loaded PlanetLab routers, as the paper's did.
const SENDER: u8 = 9;
const RECEIVER: u8 = 24;
const TTCP_PORT: u16 = 5001;
/// Warm-up pings run this long after the sender boots before the transfer
/// starts: the overlay, and with shortcuts the direct link, have settled.
const START_DELAY: SimDuration = SimDuration::from_secs(260);

pub struct XferParams {
    pub routers: usize,
    /// Simulated seconds ttcp streams with shortcuts on.
    pub stream_on: SimDuration,
    /// The same with shortcuts off (the slow, multi-hop world).
    pub stream_off: SimDuration,
}

pub fn params(size: Size) -> XferParams {
    match size {
        Size::Full => XferParams {
            routers: 118,
            stream_on: SimDuration::from_secs(60),
            stream_off: SimDuration::from_secs(60),
        },
        Size::Check => XferParams {
            routers: 40,
            stream_on: SimDuration::from_secs(10),
            stream_off: SimDuration::from_secs(10),
        },
    }
}

/// The middleware on each testbed node (`testbed::build` takes one type).
enum Role {
    Send(Box<Both<PingProbe, TtcpSender>>),
    Recv(TtcpReceiver),
    Idle(IdleWorkload),
}

impl Workload for Role {
    fn on_boot(&mut self, w: &mut WsHandle<'_, '_, '_>) {
        match self {
            Role::Send(x) => x.on_boot(w),
            Role::Recv(x) => x.on_boot(w),
            Role::Idle(x) => x.on_boot(w),
        }
    }
    fn on_event(&mut self, w: &mut WsHandle<'_, '_, '_>, ev: StackEvent) {
        match self {
            Role::Send(x) => x.on_event(w, ev),
            Role::Recv(x) => x.on_event(w, ev),
            Role::Idle(x) => x.on_event(w, ev),
        }
    }
    fn on_wake(&mut self, w: &mut WsHandle<'_, '_, '_>, tag: u64) {
        match self {
            Role::Send(x) => x.on_wake(w, tag),
            Role::Recv(x) => x.on_wake(w, tag),
            Role::Idle(x) => x.on_wake(w, tag),
        }
    }
}

/// One testbed world taken through set-up and its streaming window.
struct Leg {
    setup_s: f64,
    wall_s: f64,
    window: Tallies,
    /// Bytes the receiver counted inside the window.
    bytes: u64,
    aborted: bool,
    goodput_kbs: f64,
    /// Ping round trips sent inside the window, simulated µs, sorted.
    rtt_us: Vec<u32>,
    routable_p90_s: f64,
    nat_mappings: usize,
    tunnelled: u64,
    hosts: usize,
    snapshots: Vec<ConnSnapshot>,
    /// (internal endpoint, remote endpoint) of every NAT'd node's links.
    flows: Vec<(PhysAddr, PhysAddr)>,
}

fn testbed_tallies(tb: &mut Testbed) -> Tallies {
    let mut t = Tallies::of_sim(&tb.sim);
    for &r in &tb.routers {
        let (c, s) = tb
            .sim
            .with_actor::<OverlayHost<NoApp>, _>(r, |h, _| (h.counters(), h.node().stats()));
        t.add_node(&c, &s);
    }
    for node in &tb.nodes {
        let (c, s) = tb
            .sim
            .with_actor::<Workstation<Role>, _>(node.actor, |h, _| {
                (h.counters(), h.node().stats())
            });
        t.add_node(&c, &s);
    }
    t
}

fn receiver_ip() -> VirtIp {
    VirtIp::testbed(RECEIVER)
}

/// IP packets the workstations have taken out of the tunnel so far.
fn tunnelled_in(tb: &mut Testbed) -> u64 {
    let mut total = 0;
    for node in &tb.nodes {
        total += tb
            .sim
            .with_actor::<Workstation<Role>, _>(node.actor, |h, _| {
                h.app().ipop_stats().tunnelled_in
            });
    }
    total
}

fn leg(seed: u64, p: &XferParams, shortcuts: bool, stream: SimDuration) -> Leg {
    let t0 = Instant::now();
    let overlay = if shortcuts {
        OverlayConfig::default()
    } else {
        OverlayConfig::default().without_shortcuts()
    };
    let cfg = TestbedConfig {
        seed,
        overlay,
        routers: p.routers,
        router_hosts: 20.min(p.routers),
        workers: 1,
        ..TestbedConfig::default()
    };
    let sender_index = (SENDER - 2) as f64;
    let boot = cfg.nodes_start + cfg.node_start_gap.mul_f64(sender_index);
    let nodes_start = cfg.nodes_start;
    let node_gap = cfg.node_start_gap;
    let xfer_at = boot + START_DELAY;

    let progress = Arc::new(Mutex::new(TransferProgress::default()));
    let pings = Arc::new(Mutex::new(PingResults::default()));
    let receiver_ip = receiver_ip();
    let (recv_progress, ping_results) = (progress.clone(), pings.clone());
    let mut tb = testbed::build(cfg, |_, spec| {
        if spec.number == SENDER {
            Role::Send(Box::new(Both::new(
                PingProbe::new(receiver_ip, u16::MAX, ping_results.clone()),
                TtcpSender::new(
                    receiver_ip,
                    TTCP_PORT,
                    u64::MAX / 2, // streams until the window closes
                    START_DELAY,
                    Arc::new(Mutex::new(TransferProgress::default())),
                ),
            )))
        } else if spec.number == RECEIVER {
            Role::Recv(TtcpReceiver::new(TTCP_PORT, recv_progress.clone()))
        } else {
            Role::Idle(IdleWorkload)
        }
    });

    // ---- set-up: boot the testbed, noting when each node turns routable ----
    let mut routable_at: Vec<Option<SimTime>> = vec![None; tb.nodes.len()];
    let setup_end = SimTime::from_micros(xfer_at.as_micros() - 1_000);
    let mut t = nodes_start;
    tb.sim.run_until(t);
    while t < setup_end {
        t = (t + SimDuration::from_secs(1)).min(setup_end);
        tb.sim.run_until(t);
        for (i, node) in tb.nodes.iter().enumerate() {
            if routable_at[i].is_none()
                && tb
                    .sim
                    .with_actor::<Workstation<Role>, _>(node.actor, |h, _| h.node().is_routable())
            {
                routable_at[i] = Some(t);
            }
        }
    }
    let mut routable_s: Vec<f64> = routable_at
        .iter()
        .enumerate()
        .map(|(i, at)| {
            let started = nodes_start + node_gap.mul_f64(i as f64);
            at.map_or(f64::INFINITY, |t| t.saturating_since(started).as_secs_f64())
        })
        .collect();
    routable_s.sort_by(|a, b| a.total_cmp(b));
    let before = testbed_tallies(&mut tb);
    let tunnelled_before = tunnelled_in(&mut tb);
    let bytes_before = progress.lock().expect("progress lock").total;
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- the window: ttcp streams for a fixed simulated time ----
    let window_end = xfer_at + stream;
    let wall_s = run_timed(&mut tb.sim, window_end);
    let window = testbed_tallies(&mut tb).since(&before);

    let (bytes, aborted) = {
        let p = progress.lock().expect("progress lock");
        (p.total - bytes_before, p.aborted)
    };
    let rtt_us = {
        let r = pings.lock().expect("ping lock");
        let mut v: Vec<u32> = r
            .sent
            .iter()
            .filter(|(_, at)| *at >= xfer_at && *at < window_end)
            .filter_map(|(seq, _)| r.rtt_of(*seq))
            .map(|rtt| rtt.as_micros() as u32)
            .collect();
        v.sort_unstable();
        v
    };

    let mut nat_mappings = 0usize;
    for &(_, d) in &tb.domains {
        if let Some(nat) = &tb.sim.world_ref().domain(d).nat {
            nat_mappings += nat.mapping_count();
        }
    }
    let tunnelled = tunnelled_in(&mut tb) - tunnelled_before;
    let mut snapshots = Vec::new();
    let mut flows = Vec::new();
    for node in &tb.nodes {
        let internal = PhysAddr::new(tb.sim.world_ref().host_ip(node.host), testbed::IPOP_PORT);
        let snap = tb
            .sim
            .with_actor::<Workstation<Role>, _>(node.actor, |h, _| h.node().conn_snapshot());
        flows.extend(snap.table.iter().map(|c| (internal, c.remote)));
        snapshots.push(snap);
    }
    for &r in &tb.routers {
        snapshots.push(
            tb.sim
                .with_actor::<OverlayHost<NoApp>, _>(r, |h, _| h.node().conn_snapshot()),
        );
    }

    Leg {
        setup_s,
        wall_s,
        window,
        bytes,
        aborted,
        goodput_kbs: bytes as f64 / 1000.0 / stream.as_secs_f64(),
        rtt_us,
        routable_p90_s: quantile(&routable_s, 0.9),
        nat_mappings,
        tunnelled,
        hosts: tb.sim.world_ref().host_count(),
        snapshots,
        flows,
    }
}

pub fn rep(seed: u64, p: &XferParams, traced: bool) -> Rep {
    let on = leg(seed, p, true, p.stream_on);
    let off = leg(seed, p, false, p.stream_off);

    let both = on.window.plus(&off.window);
    let wall_s = on.wall_s + off.wall_s;
    let attempted = 2;
    let failed = [&on, &off]
        .iter()
        .filter(|l| l.aborted || l.bytes == 0)
        .count() as u64;

    let mut layer = Layer::default();
    counter_layers(&mut layer, &both, wall_s);
    layer.set(
        "netsim.nat.mappings",
        (on.nat_mappings + off.nat_mappings) as f64,
    );
    layer.set("vnet.ipop.tunnelled", (on.tunnelled + off.tunnelled) as f64);
    layer.set("vnet.tcp.goodput_sim_kbs", on.goodput_kbs);
    layer.set("vnet.tcp.goodput_multihop_sim_kbs", off.goodput_kbs);
    layer.set("wow.testbed.routable_p90_sim_s", on.routable_p90_s);
    layer.set("wow.testbed.hops_multihop_mean", off.window.hops_mean());
    let rtt_p50 = quantile(&on.rtt_us, 0.5);
    layer.set("wow.testbed.ping_rtt_p50_sim_us", rtt_p50);

    let digest = format!(
        "ev={}+{} sent={} dlv={} drop={} bytes={}+{} tunnelled={}+{} hops={:016x} rtt50={} nat={}+{} routable90={:016x}",
        on.window.events,
        off.window.events,
        both.dgrams_sent,
        both.dgrams_delivered,
        both.dgrams_dropped,
        on.bytes,
        off.bytes,
        on.tunnelled,
        off.tunnelled,
        both.hops_mean().to_bits(),
        rtt_p50,
        on.nat_mappings,
        off.nat_mappings,
        on.routable_p90_s.to_bits(),
    );
    let notes = vec![format!(
        "simulated: ttcp node{SENDER:03}->node{RECEIVER:03} over vnet TCP/IPOP, {} routers; streams {} sim-s with shortcuts ({:.1} KB/s) and {} sim-s without ({:.1} KB/s); {} ping samples",
        p.routers,
        p.stream_on.as_secs_f64(),
        on.goodput_kbs,
        p.stream_off.as_secs_f64(),
        off.goodput_kbs,
        on.rtt_us.len(),
    )];
    // `testbed::build` makes the actors, so they cannot be tapped; the
    // kernels' corpus is the measured flow as it looks on the wire: tunnelled
    // full-size segments from the sender to the receiver, mid-route.
    let corpus = |i: usize| Sampled {
        src: PhysAddr::new(PhysIp::new(128, 10, 0, 1), testbed::IPOP_PORT),
        payload: Frame::Routed(Packet {
            src: wow_vnet::ipop::address_for(testbed::NAMESPACE, VirtIp::testbed(SENDER)),
            dst: wow_vnet::ipop::address_for(testbed::NAMESPACE, receiver_ip()),
            hops: (i % 3) as u8,
            ttl: 64,
            edge_forwarded: false,
            body: Body::App {
                proto: wow_vnet::ipop::PROTO_IPOP,
                data: Bytes::from(vec![0u8; 1200]),
            },
        })
        .encode(),
    };
    let trace = traced.then(|| TraceData {
        corpus: (0..4096).map(corpus).collect(),
        snapshots: on.snapshots,
        nat_flows: on.flows,
        hosts: on.hosts,
        window: both.clone(),
        ..TraceData::default()
    });
    Rep {
        setup_s: on.setup_s + off.setup_s,
        wall_s,
        measured_s: wall_s,
        attempted,
        failed,
        // The testbed is judged by its transfers; it has no ring audit.
        audit_ok: true,
        msgs: on.tunnelled + off.tunnelled,
        // With shortcuts: the world the headline numbers come from. The
        // multi-hop world's route, and so its hop count, is the seed's luck.
        hops_mean: on.window.hops_mean(),
        // One way, for comparison with the other workloads' send→deliver.
        delivery_p50_us: rtt_p50 / 2.0,
        delivery_samples: on.rtt_us.len(),
        digest,
        notes,
        layer,
        trace,
    }
}
