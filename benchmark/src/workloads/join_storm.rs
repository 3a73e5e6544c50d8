//! `join-storm`: a flash crowd joins a small warmed core through the
//! decentralized multi-introducer bootstrap, then the merged ring must
//! audit whole and route probe messages between the newcomers.
//!
//! The write-heavy use of the layers `ring-transit` only reads: bootstrap,
//! linking and overlords, CTM routing, `ConnTable` upsert/remove/trim,
//! full encode/decode of link frames, and host and actor allocation while
//! the simulation runs.

use std::time::Instant;

use rand::Rng;

use wow_netsim::prelude::*;
use wow_overlay::addr::Address;
use wow_overlay::config::OverlayConfig;
use wow_overlay::uri::TransportUri;

use super::{counter_layers, Layer, Rep, Size, TraceData};
use crate::sys;
use crate::world::{quantile, run_timed, SimWorld};

pub struct StormParams {
    pub core: usize,
    pub introducers: usize,
    pub joiners: usize,
    /// Introducers in each joiner's cache.
    pub per_joiner: usize,
    pub warm: SimDuration,
    /// Every join should complete inside this window.
    pub window: SimDuration,
    /// Joiner starts are spread over this leading share of the window.
    pub stagger: f64,
    /// Bound on the post-window wait for a clean audit.
    pub settle: SimDuration,
    /// Probe messages sent across the merged ring once it audits clean.
    pub probes: usize,
}

pub fn params(size: Size) -> StormParams {
    StormParams {
        core: 64,
        introducers: 8,
        joiners: match size {
            Size::Full => 4000,
            Size::Check => 256,
        },
        per_joiner: 3,
        // A core that has been up for two minutes; also what makes set-up
        // long enough to time.
        warm: SimDuration::from_secs(120),
        window: SimDuration::from_secs(match size {
            Size::Full => 45,
            Size::Check => 20,
        }),
        stagger: 0.8,
        settle: SimDuration::from_secs(240),
        probes: 1024,
    }
}

pub fn rep<const T: bool>(seed: u64, p: &StormParams) -> Rep {
    let t0 = Instant::now();
    let overlay = OverlayConfig::default();
    let mut world = SimWorld::<T>::ring(seed, p.core, overlay);
    world.sim.run_until(SimTime::ZERO + p.warm);
    let mut audit_rng = world.seeds.rng("audit");
    let (core_report, _) = world.audit(&mut audit_rng);

    // ---- launch the storm: hosts and actors are added now, start later ----
    let intro: Vec<PhysAddr> = world.eps.iter().take(p.introducers).copied().collect();
    let storm_start = world.sim.now();
    let stagger_us = (p.window.as_micros() as f64 * p.stagger) as u64;
    let mut storm_rng = world.seeds.rng("joiners");
    let mut addr_rng = world.seeds.rng("joiner-addresses");
    let mut starts = Vec::with_capacity(p.joiners);
    let first_joiner = world.len();
    let (_, live0) = sys::alloc_counters();
    if T {
        sys::arm_alloc_counter(true);
    }
    for _ in 0..p.joiners {
        // Partial Fisher–Yates: a uniform random subset, in random order.
        let mut mine = intro.clone();
        let want = p.per_joiner.clamp(1, mine.len());
        for k in 0..want {
            let pick = storm_rng.gen_range(k..mine.len());
            mine.swap(k, pick);
        }
        mine.truncate(want);
        let at = storm_start + SimDuration::from_micros(storm_rng.gen_range(0..=stagger_us));
        world.add_node(
            Address::random(&mut addr_rng),
            mine.into_iter().map(TransportUri::udp).collect(),
            at,
        );
        starts.push(at);
    }
    let before = world.tallies();
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- measured: storm, settle on a doubling back-off, probes ----
    if let Some(tap) = &world.tap {
        tap.arm(true);
    }
    let window_start_ns = world.tap.as_ref().map_or(0, |t| t.now_ns());
    let (allocs0, _) = sys::alloc_counters();
    let window_end = storm_start + p.window;
    let mut wall_s = run_timed(&mut world.sim, window_end);

    let joined_at = |world: &mut SimWorld<T>, i: usize| world.with_host(i, |h| h.app().joined);
    let mut in_window = 0u64;
    for j in 0..p.joiners {
        if joined_at(&mut world, first_joiner + j).is_some_and(|t| t <= window_end) {
            in_window += 1;
        }
    }

    let deadline = window_end + p.settle;
    let mut interval = SimDuration::from_secs(5);
    let mut audit_s = 0.0;
    let mut audit_polls = 0u32;
    let merged_ok = loop {
        let (report, took) = world.audit(&mut audit_rng);
        audit_s += took;
        audit_polls += 1;
        if report.passed() {
            break true;
        }
        if world.sim.now() >= deadline {
            break false;
        }
        let next = (world.sim.now() + interval).min(deadline);
        interval = SimDuration::from_micros((interval.as_micros() * 2).min(40_000_000));
        wall_s += run_timed(&mut world.sim, next);
    };
    // The settle polls are part of what a user waits for.
    wall_s += audit_s;

    // Probe the merged ring: newcomers message newcomers.
    let n = world.len();
    let mut probe_rng = world.seeds.rng("probes");
    let probe_start = world.sim.now();
    for k in 0..p.probes {
        let a = first_joiner + probe_rng.gen_range(0..p.joiners);
        let mut b = first_joiner + probe_rng.gen_range(0..p.joiners);
        if b == a {
            b = first_joiner + (b - first_joiner + 1) % p.joiners;
        }
        let at = probe_start + SimDuration::from_micros(1_000 * k as u64);
        world.schedule_flow(a, |_| b, at, SimDuration::from_secs(1), 1, 64);
    }
    let probe_end = probe_start + SimDuration::from_secs(5);
    wall_s += run_timed(&mut world.sim, probe_end);
    let (allocs1, live1) = sys::alloc_counters();
    let window_end_ns = world.tap.as_ref().map_or(0, |t| t.now_ns());
    if let Some(tap) = &world.tap {
        tap.arm(false);
    }
    sys::arm_alloc_counter(false);

    let after = world.tallies();
    let window = after.since(&before);
    let latencies = world.take_latencies();

    let mut join_s: Vec<f64> = Vec::with_capacity(p.joiners);
    for (j, &start) in starts.iter().enumerate() {
        if let Some(t) = joined_at(&mut world, first_joiner + j) {
            join_s.push(t.saturating_since(start).as_secs_f64());
        }
    }
    join_s.sort_by(|a, b| a.total_cmp(b));

    let attempted = p.joiners as u64 + window.app_sent;
    let mut failed = (p.joiners as u64 - in_window) + (window.app_sent - window.delivered_exact);
    if !core_report.passed() || !merged_ok {
        failed = attempted;
    }

    let mut layer = Layer::default();
    counter_layers(&mut layer, &window, wall_s);
    layer.set(
        "wow.audit.ns_per_node",
        audit_s * 1e9 / (audit_polls as f64 * n as f64),
    );
    layer.set("wow.join.p50_sim_s", quantile(&join_s, 0.5));
    layer.set("wow.join.p99_sim_s", quantile(&join_s, 0.99));
    layer.set(
        "wow.join.in_window_share",
        in_window as f64 / p.joiners as f64,
    );
    if T {
        layer.set(
            "overlay.node.bytes_per_node",
            live1.wrapping_sub(live0) as i64 as f64 / p.joiners as f64,
        );
        layer.set(
            "alloc.allocs_per_event",
            (allocs1 - allocs0) as f64 / window.events.max(1) as f64,
        );
    }

    let delivery_p50_us = quantile(&latencies, 0.5);
    let digest = format!(
        "n={n} ev={} sent={} dlv={} drop={} joined={} in_window={in_window} p50={:016x} p99={:016x} app={} exact={} hops={:016x} lat50={} polls={audit_polls} audit={}",
        window.events,
        window.dgrams_sent,
        window.dgrams_delivered,
        window.dgrams_dropped,
        join_s.len(),
        quantile(&join_s, 0.5).to_bits(),
        quantile(&join_s, 0.99).to_bits(),
        window.app_sent,
        window.delivered_exact,
        window.hops_mean().to_bits(),
        delivery_p50_us,
        core_report.passed() && merged_ok,
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
        audit_ok: core_report.passed() && merged_ok,
        msgs: window.delivered_exact,
        hops_mean: window.hops_mean(),
        delivery_p50_us,
        delivery_samples: latencies.len(),
        digest,
        notes: vec![format!(
            "simulated: {} joiners ({} cached introducers of {}) onto a {}-node core inside {} sim-s, {audit_polls} audit poll(s), then {} probe messages; {} join samples",
            p.joiners,
            p.per_joiner,
            p.introducers,
            p.core,
            p.window.as_secs_f64(),
            p.probes,
            join_s.len(),
        )],
        layer,
        trace,
    }
}
