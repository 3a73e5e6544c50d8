//! `ring-maintain` and `ring-transit`: a pre-wired ring under probe traffic.
//!
//! One function, two parameter sets. `ring-maintain` is a large ring with
//! a sparse hotspot load and shortcuts on, so almost every event is
//! keepalive, stabilization or timer traffic: the simulator's base cost
//! over its largest working set. `ring-transit` is a small ring with
//! shortcuts off under dense many-to-many traffic, so almost every event is
//! a transit forward: the decode-free fast path, `next_hop`, and the
//! driver's batch and flush over a small footprint.

use std::time::Instant;

use rand::Rng;

use wow_netsim::prelude::*;
use wow_overlay::config::OverlayConfig;

use super::{counter_layers, Layer, Rep, Size, TraceData};
use crate::sys;
use crate::world::{quantile, run_timed, SimWorld};

pub struct RingParams {
    pub nodes: usize,
    pub shortcuts: bool,
    /// Protocol warm-up after seeding; covers a stabilization round.
    pub warm: SimDuration,
    pub pairs: usize,
    pub rate_hz: u64,
    pub payload: usize,
    /// The measured window, simulated.
    pub window: SimDuration,
    /// Report hops over the second half only (after shortcuts formed).
    pub hops_second_half: bool,
    /// Each source walks the sinks, one per message, instead of keeping to
    /// its own: mean hops is then an average over pairs² routes, not
    /// pairs, and stops depending on which few routes the seed drew.
    pub rotate_sinks: bool,
}

/// Undelivered messages get this long to arrive before they count as lost.
const DRAIN: SimDuration = SimDuration::from_secs(5);

pub fn maintain(size: Size) -> RingParams {
    RingParams {
        nodes: match size {
            Size::Full => 6000,
            Size::Check => 256,
        },
        shortcuts: true,
        warm: SimDuration::from_secs(10),
        pairs: 32,
        rate_hz: 4,
        payload: 512,
        window: SimDuration::from_secs(match size {
            Size::Full => 17,
            Size::Check => 16,
        }),
        hops_second_half: true,
        // A shortcut forms per hot pair; the pairs must stay pairs.
        rotate_sinks: false,
    }
}

pub fn transit(size: Size) -> RingParams {
    RingParams {
        nodes: match size {
            Size::Full => 2000,
            Size::Check => 256,
        },
        shortcuts: false,
        warm: SimDuration::from_secs(10),
        pairs: match size {
            Size::Full => 256,
            Size::Check => 32,
        },
        rate_hz: 100,
        payload: 1024,
        window: SimDuration::from_secs(match size {
            Size::Full => 4,
            Size::Check => 2,
        }),
        hops_second_half: false,
        rotate_sinks: true,
    }
}

pub fn rep<const T: bool>(seed: u64, p: &RingParams) -> Rep {
    let t0 = Instant::now();
    let overlay = if p.shortcuts {
        OverlayConfig::default()
    } else {
        OverlayConfig::default().without_shortcuts()
    };
    if T {
        sys::arm_alloc_counter(true);
    }
    let (_, live0) = sys::alloc_counters();
    let mut world = SimWorld::<T>::ring(seed, p.nodes, overlay);
    let n = world.len();
    world.sim.run_until(SimTime::ZERO + p.warm);
    let (_, live1) = sys::alloc_counters();
    sys::arm_alloc_counter(false);

    let mut audit_rng = world.seeds.rng("audit");
    let (report, audit_s) = world.audit(&mut audit_rng);

    // Hotspot pairs: distinct sources and sinks, drawn from the seed.
    let mut pair_rng = world.seeds.rng("pairs");
    let mut used = vec![false; n];
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(p.pairs);
    while pairs.len() < p.pairs.min(n / 2) {
        let (a, b) = (pair_rng.gen_range(0..n), pair_rng.gen_range(0..n));
        if a != b && !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            pairs.push((a, b));
        }
    }
    let start = world.sim.now();
    let period = SimDuration::from_micros(1_000_000 / p.rate_hz);
    let shots = p.window.as_micros() / period.as_micros();
    let sinks: Vec<usize> = pairs.iter().map(|&(_, dst)| dst).collect();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let sinks = sinks.clone();
        let rotate = p.rotate_sinks;
        let to = move |k: u64| {
            if rotate {
                sinks[(i + k as usize) % sinks.len()]
            } else {
                dst
            }
        };
        world.schedule_flow(src, to, start, period, shots, p.payload);
    }
    let before = world.tallies();
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- the measured window, in two halves so hops can be read at the
    // midpoint without the read being timed ----
    let mid = start + SimDuration::from_micros(p.window.as_micros() / 2);
    let end = start + p.window;
    if let Some(tap) = &world.tap {
        tap.arm(true);
        sys::arm_alloc_counter(true);
    }
    let window_start_ns = world.tap.as_ref().map_or(0, |t| t.now_ns());
    let (allocs0, _) = sys::alloc_counters();
    let wall_first = run_timed(&mut world.sim, mid);
    let at_mid = if p.hops_second_half {
        Some(world.tallies())
    } else {
        None
    };
    let wall_second = run_timed(&mut world.sim, end);
    let (allocs1, _) = sys::alloc_counters();
    let window_end_ns = world.tap.as_ref().map_or(0, |t| t.now_ns());
    if let Some(tap) = &world.tap {
        tap.arm(false);
        sys::arm_alloc_counter(false);
    }
    let wall_s = wall_first + wall_second;
    let after = world.tallies();
    let window = after.since(&before);

    // ---- drain, then count what never arrived ----
    world.sim.run_until(end + DRAIN);
    let drained = world.tallies();
    let whole = drained.since(&before);
    let hops = match &at_mid {
        Some(mid) => drained.since(mid),
        None => whole.clone(),
    };
    let latencies = world.take_latencies();
    let attempted = whole.app_sent;
    let mut failed = attempted.saturating_sub(whole.delivered_exact);
    if !report.passed() {
        failed = attempted;
    }

    let mut layer = Layer::default();
    counter_layers(&mut layer, &window, wall_s);
    layer.set("wow.audit.ns_per_node", audit_s * 1e9 / n as f64);
    if T {
        layer.set(
            "overlay.node.bytes_per_node",
            live1.wrapping_sub(live0) as i64 as f64 / n as f64,
        );
        layer.set(
            "alloc.allocs_per_event",
            (allocs1 - allocs0) as f64 / window.events.max(1) as f64,
        );
    }

    let delivery_p50_us = quantile(&latencies, 0.5);
    let digest = format!(
        "n={n} ev={} sent={} dlv={} drop={} app={} exact={} hops={:016x} lat50={} fwd={} audit={}",
        window.events,
        window.dgrams_sent,
        window.dgrams_delivered,
        window.dgrams_dropped,
        whole.app_sent,
        whole.delivered_exact,
        hops.hops_mean().to_bits(),
        delivery_p50_us,
        window.transit_forwards(),
        report.passed(),
    );
    let trace = world.tap.clone().map(|tap| {
        let (spans, corpus) = tap.drain();
        TraceData {
            window_ns: (window_start_ns, window_end_ns),
            totals: world.span_totals(),
            spans,
            corpus,
            snapshots: world.snapshots(),
            hosts: n,
            window: window.clone(),
            nat_flows: Vec::new(),
        }
    });
    Rep {
        setup_s,
        wall_s,
        measured_s: wall_s,
        attempted,
        failed,
        audit_ok: report.passed(),
        msgs: whole.delivered_exact,
        hops_mean: hops.hops_mean(),
        delivery_p50_us,
        delivery_samples: latencies.len(),
        digest,
        notes: vec![format!(
            "open loop, simulated: {} pairs x {} msg/s x {} B for {} sim-s on {n} nodes, shortcuts {}",
            pairs.len(),
            p.rate_hz,
            p.payload,
            p.window.as_secs_f64(),
            if p.shortcuts { "on" } else { "off" },
        )],
        layer,
        trace,
    }
}
