//! Repeating a workload and turning repetitions into reported metrics.
//!
//! An untraced run repeats (set-up, measured window) on one seed until the
//! windows add up to the requested seconds, and reports medians: set-up
//! and window times are sampled several times per run, and every
//! repetition of a simulated workload must reproduce the first one's
//! digest. A traced run puts one instrumented repetition between two plain
//! ones — their ratio is the tracing overhead, their digests must match —
//! then times the layer kernels over what the instrumented one recorded.

use std::path::{Path, PathBuf};

use wow_overlay::config::OverlayConfig;

use crate::json::Json;
use crate::kernels;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spanned::SpanKind;
use crate::sys;
use crate::workloads::{join_storm, live_ring, ring, vnet_transfer, Layer, Rep, Size, TraceData};
use crate::world::median;

/// Most repetitions one run makes, whatever the requested seconds.
const MAX_REPS: usize = 12;
/// Spans written to a trace file; the totals cover every span.
const TRACE_FILE_SPANS: usize = 20_000;

#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub digest: String,
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The contract's result object, on one line.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// One repetition of the named workload.
pub fn one_rep(workload: &str, seed: u64, size: Size, traced: bool) -> Result<Rep, String> {
    Ok(match (workload, traced) {
        ("ring-maintain", false) => ring::rep::<false>(seed, &ring::maintain(size)),
        ("ring-maintain", true) => ring::rep::<true>(seed, &ring::maintain(size)),
        ("ring-transit", false) => ring::rep::<false>(seed, &ring::transit(size)),
        ("ring-transit", true) => ring::rep::<true>(seed, &ring::transit(size)),
        ("join-storm", false) => join_storm::rep::<false>(seed, &join_storm::params(size)),
        ("join-storm", true) => join_storm::rep::<true>(seed, &join_storm::params(size)),
        ("live-ring", _) => live_ring::rep(seed, &live_ring::params(size), traced),
        ("vnet-transfer", _) => vnet_transfer::rep(seed, &vnet_transfer::params(size), traced),
        (other, _) => return Err(format!("unknown workload '{other}'")),
    })
}

/// The overlay configuration the workload's nodes run, for the kernels.
fn overlay_of(workload: &str) -> OverlayConfig {
    match workload {
        "ring-transit" => OverlayConfig::default().without_shortcuts(),
        "live-ring" => live_ring::overlay_config(),
        _ => OverlayConfig::default(),
    }
}

pub fn run_untraced(spec: &RunSpec) -> Result<RunOutput, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while measured < spec.seconds && reps.len() < MAX_REPS {
        let rep = one_rep(&spec.workload, spec.seed, spec.size, false)?;
        measured += rep.measured_s.max(rep.wall_s);
        reps.push(rep);
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let same_digest = reps.iter().all(|r| r.digest == reps[0].digest);
    if !same_digest {
        eprintln!("digest differs between same-seed repetitions:");
        for r in &reps {
            eprintln!("  {}", r.digest);
        }
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let value = |name: &str| match name {
        "setup_s" => med(&|r| r.setup_s),
        "wall_s" => med(&|r| r.wall_s),
        "peak_rss_mib" => sys::peak_rss_mib(),
        "msgs_per_s" => med(&|r| r.msgs as f64 / r.wall_s),
        "delivery_p50_us" => med(&|r| r.delivery_p50_us),
        "hops_mean" => med(&|r| r.hops_mean),
        "delivered_share" => 1.0 - failed as f64 / attempted.max(1) as f64,
        other => unreachable!("end-to-end metric '{other}' has no source"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    let mut notes = reps[0].notes.clone();
    notes.push(format!(
        "{} repetitions, {:.2} s measured; delivery_p50_us over {} samples per repetition; {} threads at exit (nproc {})",
        reps.len(),
        measured,
        reps[0].delivery_samples,
        sys::thread_count(),
        sys::nproc(),
    ));
    let per_rep = |f: &dyn Fn(&Rep) -> f64| {
        let v: Vec<String> = reps.iter().map(|r| format!("{:.3}", f(r))).collect();
        v.join(" ")
    };
    notes.push(format!(
        "per repetition: setup_s [{}] wall_s [{}] hops_mean [{}] delivery_p50_us [{}]",
        per_rep(&|r| r.setup_s),
        per_rep(&|r| r.wall_s),
        per_rep(&|r| r.hops_mean),
        per_rep(&|r| r.delivery_p50_us)
    ));
    Ok(RunOutput {
        // A failed operation is reported, in `failed` and `delivered_share`;
        // what makes a run's outputs wrong is a world that differs between
        // same-seed repetitions or that fails its audit.
        correct: same_digest && reps.iter().all(|r| r.audit_ok),
        attempted,
        failed,
        metrics,
        digest: reps[0].digest.clone(),
        notes,
    })
}

pub fn run_traced(spec: &RunSpec, out_dir: &Path) -> Result<RunOutput, String> {
    // Plain, traced, plain: the traced window is compared with the mean of
    // its neighbours, so drift across the process cancels.
    let plain = one_rep(&spec.workload, spec.seed, spec.size, false)?;
    let traced = one_rep(&spec.workload, spec.seed, spec.size, true)?;
    let plain_after = one_rep(&spec.workload, spec.seed, spec.size, false)?;
    let plain_wall_s = (plain.wall_s + plain_after.wall_s) / 2.0;
    let mut layer = traced.layer.clone();
    let trace = traced
        .trace
        .as_ref()
        .expect("traced repetition carries a trace");
    let overlay = overlay_of(&spec.workload);

    kernels::overlay_kernels(&mut layer, trace, &overlay, spec.seed);
    let accounted = match spec.workload.as_str() {
        "live-ring" => {
            kernels::udprt_kernels(&mut layer).map_err(|e| format!("udprt kernels: {e}"))?;
            // Per message: each hop is one receive, one driver cycle, one
            // flush; against the reactor CPU one message actually cost.
            let per_hop = layer.get("overlay.driver.cycle_ns")
                + layer.get("wow.udprt.flush_ns_per_frame_32")
                + layer.get("wow.udprt.recv_batch_ns_per_frame");
            traced.hops_mean * per_hop / (layer.get("wow.reactor.cpu_us_per_msg") * 1e3)
        }
        "vnet-transfer" => {
            kernels::nat_kernel(&mut layer, &trace.nat_flows);
            kernels::vnet_kernels(&mut layer);
            let w = &trace.window;
            let ns = w.events as f64 * layer.get("netsim.wheel.ns_per_op")
                + w.transit_forwards() as f64 * layer.get("overlay.driver.cycle_ns")
                + traced.msgs as f64
                    * (layer.get("vnet.ipop.ns_per_packet") + layer.get("vnet.tcp.ns_per_segment"));
            ns / (traced.wall_s * 1e9)
        }
        _ => {
            kernels::seam_layers(&mut layer, trace);
            kernels::accounted_share(&layer, trace)
        }
    };
    layer.set("trace.accounted_share", accounted);
    layer.set("trace.overhead_share", traced.wall_s / plain_wall_s - 1.0);
    layer.set("proc.wall_s_traced", traced.wall_s);
    // The live workload notes its own count while its reactor runs.
    layer.set(
        "proc.threads",
        layer.get("proc.threads").max(sys::thread_count() as f64),
    );

    for (name, _) in &layer.0 {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "layer metric '{name}' is not in the PER_LAYER table"
        );
    }
    let path = out_dir.join(format!("trace-{}.json", spec.workload));
    std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(&path, trace_file(spec, &traced, trace, &layer).pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let same_digest = plain.digest == traced.digest && plain_after.digest == traced.digest;
    if !same_digest {
        eprintln!(
            "tracing perturbed the simulation:\n  plain  {}\n  traced {}",
            plain.digest, traced.digest
        );
    }
    let attempted = plain.attempted + traced.attempted + plain_after.attempted;
    let failed = plain.failed + traced.failed + plain_after.failed;
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layer.get(m.name), m.unit))
        .collect();
    Ok(RunOutput {
        correct: same_digest && plain.audit_ok && traced.audit_ok && plain_after.audit_ok,
        attempted,
        failed,
        metrics,
        digest: traced.digest.clone(),
        notes: traced.notes.clone(),
    })
}

/// Where trace files go: `out/` beside this crate's manifest. The binary
/// is built inside the checkout it measures, so this is inside it too.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The trace file: the window's root span, per-name totals over every
/// span, a sample of whole spans, and the layer table computed from them.
fn trace_file(spec: &RunSpec, rep: &Rep, trace: &TraceData, layer: &Layer) -> Json {
    let (w0, w1) = trace.window_ns;
    let totals = SpanKind::ALL
        .iter()
        .filter(|k| trace.totals.count[**k as usize] > 0)
        .map(|k| {
            Json::obj([
                ("name", Json::str(k.name())),
                ("parent", Json::str("window")),
                ("count", Json::Num(trace.totals.count[*k as usize] as f64)),
                ("timed", Json::Num(trace.totals.timed[*k as usize] as f64)),
                (
                    "timed_ns",
                    Json::Num(trace.totals.timed_ns[*k as usize] as f64),
                ),
                ("total_ns_estimate", Json::Num(trace.totals.ns(*k))),
            ])
        })
        .collect();
    let spans = trace
        .spans
        .iter()
        .take(TRACE_FILE_SPANS)
        .map(|s| {
            Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.kind.name())),
                ("actor", Json::Num(s.actor as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("sim_us", Json::Num(s.sim_us as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(spec.workload.clone())),
        ("seed", Json::Num(spec.seed as f64)),
        ("digest", Json::str(rep.digest.clone())),
        (
            "window",
            Json::obj([
                ("id", Json::Num(0.0)),
                ("name", Json::str("window")),
                ("start_ns", Json::Num(w0 as f64)),
                ("end_ns", Json::Num(w1 as f64)),
                (
                    "self_ns",
                    Json::Num((w1 - w0) as f64 - trace.totals.total_ns()),
                ),
            ]),
        ),
        ("span_totals", Json::Arr(totals)),
        ("spans_sampled", Json::Arr(spans)),
        (
            "layers",
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(layer.get(m.name))),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
