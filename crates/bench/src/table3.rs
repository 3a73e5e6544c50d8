//! Table III: fastDNAml-PVM execution times and speedups.
//!
//! Paper: sequential runs take 22272 s (node002) and 45191 s (node034);
//! parallel runs on 15 nodes finish in 2439 s (9.1×) and on 30 nodes in
//! 2033 s without shortcuts (11.0×) and 1642 s with (13.6×) — shortcuts
//! buy 24%. Speedups are relative to node002, "the hardware setup most
//! common in the network".
//!
//! Sequential times are the model's calibration inputs (total nominal work
//! × VM overhead ÷ node speed); the parallel runs execute the full PVM
//! master/worker protocol over the virtual network, barriers, stragglers,
//! NATs and all.

use std::sync::{Arc, Mutex};

use wow::testbed::{self, TestbedConfig};
use wow_middleware::apps::fastdnaml;
use wow_middleware::pvm::{PvmMaster, PvmResults, PvmWorker, RoundSpec};
use wow_netsim::prelude::*;

use crate::roles::Role;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Table3Config {
    /// Scale factor on per-task nominal work (1.0 = paper scale). Speedups
    /// are nearly scale-invariant; smaller values shorten wall-clock runs.
    pub scale: f64,
    /// Router count.
    pub routers: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Table3Config {
    fn default() -> Self {
        Table3Config {
            scale: 1.0,
            routers: 118,
            seed: 0x7AB3,
        }
    }
}

impl Table3Config {
    /// `--quick` scale.
    pub fn quick() -> Self {
        Table3Config {
            scale: 0.05,
            routers: 40,
            ..Table3Config::default()
        }
    }
}

fn scaled_rounds(scale: f64) -> Vec<RoundSpec> {
    fastdnaml::rounds(fastdnaml::TAXA)
        .into_iter()
        .map(|r| RoundSpec {
            nominal_per_task: r.nominal_per_task.mul_f64(scale),
            ..r
        })
        .collect()
}

/// Analytic sequential wall on a node of the given speed (the model's
/// definition; matches the paper's measured inputs by construction).
pub fn sequential_secs(speed: f64, scale: f64) -> f64 {
    fastdnaml::SEQUENTIAL_BASELINE.as_secs_f64() * scale / speed
}

/// Run a parallel configuration; returns wall seconds.
pub fn run_parallel(workers: &[u8], shortcuts: bool, cfg: &Table3Config) -> Option<f64> {
    let overlay = if shortcuts {
        wow_overlay::config::OverlayConfig::default()
    } else {
        wow_overlay::config::OverlayConfig::default().without_shortcuts()
    };
    let tb_cfg = TestbedConfig {
        seed: cfg.seed ^ ((shortcuts as u64) << 8) ^ workers.len() as u64,
        overlay,
        routers: cfg.routers,
        router_hosts: 20.min(cfg.routers.max(1)),
        ..TestbedConfig::default()
    };
    let results: Arc<Mutex<PvmResults>> = Arc::new(Mutex::new(PvmResults::default()));
    let master_results = results.clone();
    let master_node = 2u8;
    let master_ip = wow_vnet::ip::VirtIp::testbed(master_node);
    let rounds = scaled_rounds(cfg.scale);
    let expected = workers.len();
    let worker_set: Vec<u8> = workers.to_vec();
    let mut tb = testbed::build(tb_cfg, |_, spec| {
        if spec.number == master_node {
            Role::PvmMaster(Box::new(PvmMaster::new(
                rounds.clone(),
                expected,
                master_results.clone(),
            )))
        } else if worker_set.contains(&spec.number) {
            Role::PvmWorker(PvmWorker::new(
                spec.number,
                master_ip,
                SimDuration::from_secs(150),
            ))
        } else {
            Role::Idle(wow::workstation::IdleWorkload)
        }
    });
    // Horizon: generous — ideal wall × 6 plus warmup.
    let ideal = sequential_secs(1.0, cfg.scale) / workers.len().max(1) as f64;
    let horizon = SimTime::from_secs(500 + (ideal * 6.0) as u64 + 3600);
    tb.sim.run_until(horizon);
    let r = results.lock().unwrap();
    r.wall().map(|w| w.as_secs_f64())
}

/// The worker sets of the paper's three parallel columns. The paper does
/// not name the nodes; these sets span the testbed's heterogeneity — the
/// 30-node set includes the slow node032 and node034, whose per-round
/// straggler tails are what keep the measured speedup well below the
/// worker count.
pub fn worker_sets() -> (Vec<u8>, Vec<u8>) {
    // 15 nodes: a UFL/NWU mix incl. the slow home node.
    let w15: Vec<u8> = (20..=34).collect();
    // 30 nodes: everything except node003 and node004.
    let w30: Vec<u8> = (5..=34).collect();
    (w15, w30)
}

/// One Table III column.
#[derive(Clone, Debug)]
pub struct Column {
    /// Column label.
    pub label: &'static str,
    /// Execution time, seconds (scaled back to paper scale).
    pub exec_secs: f64,
    /// Speedup vs the node002 sequential run.
    pub speedup: Option<f64>,
}

/// Run the whole table.
pub fn run(cfg: &Table3Config) -> Vec<Column> {
    let seq2 = sequential_secs(1.0, cfg.scale);
    let seq34 = sequential_secs(22_272.0 / 45_191.0, cfg.scale);
    let (w15, w30) = worker_sets();
    let p15 = run_parallel(&w15, true, cfg);
    let p30_off = run_parallel(&w30, false, cfg);
    let p30_on = run_parallel(&w30, true, cfg);
    let unscale = 1.0 / cfg.scale;
    let col = |label: &'static str, secs: Option<f64>, base: f64| Column {
        label,
        exec_secs: secs.map(|s| s * unscale).unwrap_or(f64::NAN),
        speedup: secs.map(|s| base / s),
    };
    vec![
        Column {
            label: "sequential node002",
            exec_secs: seq2 * unscale,
            speedup: None,
        },
        Column {
            label: "sequential node034",
            exec_secs: seq34 * unscale,
            speedup: None,
        },
        col("15 nodes (shortcuts on)", p15, seq2),
        col("30 nodes (shortcuts off)", p30_off, seq2),
        col("30 nodes (shortcuts on)", p30_on, seq2),
    ]
}
