//! The five workloads. Each exposes one function that builds its world
//! from a seed, runs the fixed measured window once, checks the outcome
//! and returns a [`Rep`]; the runner in `main.rs` repeats it.

use wow_overlay::conn::ConnSnapshot;
use wow_overlay::telemetry::Counter;

use crate::spanned::{Sampled, SpanRec, SpanTotals};
use crate::world::Tallies;

pub mod join_storm;
pub mod live_ring;
pub mod ring;
pub mod vnet_transfer;

/// Full size is what `BENCHMARK.json` measures; check size is the same
/// code at n = 256 and seconds, for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

/// Per-layer values measured so far, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layer(pub Vec<(&'static str, f64)>);

impl Layer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value, or 0 for a layer this workload never touched.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What a traced repetition hands to the layer kernels and the trace file.
#[derive(Default)]
pub struct TraceData {
    /// Start and end of the measured window on the tap's clock, ns.
    pub window_ns: (u64, u64),
    pub totals: SpanTotals,
    pub spans: Vec<SpanRec>,
    pub corpus: Vec<Sampled>,
    pub snapshots: Vec<ConnSnapshot>,
    /// (internal, remote) endpoint pairs of NAT'd nodes' links; empty on
    /// worlds without NAT.
    pub nat_flows: Vec<(wow_netsim::addr::PhysAddr, wow_netsim::addr::PhysAddr)>,
    /// Hosts in the world (sizes the timer-wheel kernel).
    pub hosts: usize,
    /// What the window did, for weighting kernel costs into a share.
    pub window: Tallies,
}

/// One repetition of one workload: a world built from the seed, one
/// measured window, and the checks on what came out.
#[derive(Default)]
pub struct Rep {
    /// Process or repetition start → start of the measured window.
    pub setup_s: f64,
    /// Host wall time of the measured window.
    pub wall_s: f64,
    /// Time spent measuring, where that is more than `wall_s` (the live
    /// workload's open-loop phase); 0 means `wall_s`.
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Every structural audit of the repetition passed.
    pub audit_ok: bool,
    /// Application messages delivered exactly.
    pub msgs: u64,
    pub hops_mean: f64,
    pub delivery_p50_us: f64,
    /// Latency samples behind `delivery_p50_us`.
    pub delivery_samples: usize,
    /// Every simulator-derived outcome, floats as bit patterns; empty for
    /// the live workload, whose outcomes are wall-clock.
    pub digest: String,
    /// Lines for people: loop kind, rates, sample counts.
    pub notes: Vec<String>,
    pub layer: Layer,
    pub trace: Option<TraceData>,
}

/// Layer metrics every simulated workload reads straight off its counters.
pub fn counter_layers(layer: &mut Layer, w: &Tallies, wall_s: f64) {
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    layer.set("netsim.sim.events", w.events as f64);
    layer.set("netsim.sim.datagrams_sent", w.dgrams_sent as f64);
    layer.set("netsim.sim.datagrams_delivered", w.dgrams_delivered as f64);
    layer.set("netsim.sim.dropped", w.dgrams_dropped as f64);
    layer.set("netsim.sim.events_per_s", w.events as f64 / wall_s);
    layer.set(
        "netsim.sim.ns_per_event",
        wall_s * 1e9 / w.events.max(1) as f64,
    );
    layer.set("netsim.sim.cpu_queue_wait_us", w.cpu_queue_wait_us as f64);
    layer.set(
        "netsim.sim.uplink_queue_wait_us",
        w.uplink_queue_wait_us as f64,
    );
    layer.set("overlay.node.forwarded", w.get(Counter::Forwarded) as f64);
    layer.set(
        "overlay.node.fast_path_share",
        share(w.get(Counter::TransitFastPath), w.transit_forwards()),
    );
    layer.set(
        "overlay.node.transit_share",
        share(w.get(Counter::TransitFastPath), w.dgrams_delivered),
    );
    layer.set("overlay.node.ctm_sent", w.telemetry.ctm_total() as f64);
    let link_outcomes = w.get(Counter::LinkEstablished)
        + w.get(Counter::LinkFailed)
        + w.get(Counter::LinkRaceBackoff);
    layer.set(
        "overlay.node.link_success_share",
        share(w.get(Counter::LinkEstablished), link_outcomes),
    );
    layer.set(
        "overlay.node.introducer_fallbacks",
        w.get(Counter::IntroducerFallback) as f64,
    );
    layer.set(
        "overlay.driver.frames_per_flush",
        share(w.get(Counter::BatchFrames), w.get(Counter::BatchFlushes)),
    );
}
