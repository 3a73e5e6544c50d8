//! Fig. 8: the PBS/MEME job-time histogram and throughput, shortcuts
//! enabled vs disabled.
//!
//! Paper: 4000 MEME jobs submitted at 1 job/s on the head node, dispatched
//! to 32 workers, each reading input from and writing output to the head's
//! NFS export over the virtual network. With shortcuts the wall-clock
//! average is 24.1 s (σ 6.5) and throughput 53 jobs/min; without, the NFS
//! traffic crosses loaded overlay routers and the average climbs to 32.2 s
//! (σ 9.7) with throughput collapsing to 22 jobs/min. The slow nodes
//! (node032, node034) run long jobs and few of them; the fast ones
//! (node030/031/033) the opposite.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wow::testbed::{self, TestbedConfig};
use wow_middleware::apps::meme;
use wow_middleware::duo::Both;
use wow_middleware::nfs::NfsServer;
use wow_middleware::pbs::{PbsHead, PbsResults, PbsWorker};
use wow_netsim::prelude::*;
use wow_netsim::trace::{mean, stddev, Histogram};

use crate::roles::Role;
use crate::transit::TransitStats;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Fig8Config {
    /// Jobs to run (paper: 4000).
    pub jobs: u32,
    /// Router count.
    pub routers: usize,
    /// Root seed.
    pub seed: u64,
    /// Simulator event-execution workers (`0` = the simulator's choice).
    pub workers: usize,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            jobs: 1000,
            routers: 118,
            seed: 0xF168,
            workers: 0,
        }
    }
}

impl Fig8Config {
    /// Paper scale.
    pub fn full() -> Self {
        Fig8Config {
            jobs: 4000,
            ..Fig8Config::default()
        }
    }

    /// `--quick` scale.
    pub fn quick() -> Self {
        Fig8Config {
            jobs: 120,
            routers: 40,
            ..Fig8Config::default()
        }
    }
}

/// One run's outcome.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// Per-job wall-clock seconds, with the worker node that ran each.
    pub walls: Vec<(u32, u8, f64)>,
    /// Mean wall (s).
    pub mean_s: f64,
    /// Standard deviation (s).
    pub std_s: f64,
    /// Jobs per minute over the whole run.
    pub throughput_jpm: f64,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs per node.
    pub per_node: HashMap<u8, u32>,
    /// Histogram over the paper's 8–88 s axis.
    pub histogram: Histogram,
    /// Transit forwarding totals over the whole run: with shortcuts the
    /// NFS traffic bypasses routers, without it this is the router load
    /// that collapses throughput.
    pub transit: TransitStats,
}

/// Run one configuration.
pub fn run(shortcuts: bool, cfg: &Fig8Config) -> Fig8Result {
    let overlay = if shortcuts {
        wow_overlay::config::OverlayConfig::default()
    } else {
        wow_overlay::config::OverlayConfig::default().without_shortcuts()
    };
    let tb_cfg = TestbedConfig {
        seed: cfg.seed ^ shortcuts as u64,
        overlay,
        routers: cfg.routers,
        router_hosts: 20.min(cfg.routers.max(1)),
        workers: cfg.workers,
        ..TestbedConfig::default()
    };
    let results: Arc<Mutex<PbsResults>> = Arc::new(Mutex::new(PbsResults::default()));
    let head_results = results.clone();
    let head_node = 2u8;
    let head_ip = wow_vnet::ip::VirtIp::testbed(head_node);
    let jobs = cfg.jobs;
    // Workers boot staggered from t=120 s; they connect 150 s after boot;
    // the head starts submitting at +280 s so the worker pool is ready.
    let mut tb = testbed::build(tb_cfg, |_, spec| {
        if spec.number == head_node {
            Role::PbsHead(Box::new(Both::new(
                PbsHead::new(
                    jobs,
                    SimDuration::from_secs(1),
                    meme::meme_job(),
                    head_results.clone(),
                )
                .start_after(SimDuration::from_secs(280)),
                NfsServer::new([("input.fasta".to_string(), 100_000_000u64)]),
            )))
        } else {
            Role::PbsWorker(Box::new(PbsWorker::new(
                spec.number,
                head_ip,
                SimDuration::from_secs(150),
            )))
        }
    });
    let first_submit = SimTime::from_secs(120 + 280);
    // Submissions take `jobs` seconds; then drain adaptively — run in
    // slices until every job has reported back or the hard cap trips. The
    // old fixed formula (submit + 3×jobs + 300 s) assumed ≥ 20 jobs/min
    // of drain capacity, which the shortcuts-disabled run at paper scale
    // does not reach: it left ~7% of jobs in flight at the horizon and
    // never set `all_done`, so throughput read as NaN.
    let submit_end = first_submit + SimDuration::from_secs(u64::from(jobs));
    tb.sim.run_until(submit_end);
    let hard_cap = submit_end + SimDuration::from_secs((u64::from(jobs) * 12).max(1800));
    while results.lock().unwrap().all_done.is_none() && tb.sim.now() < hard_cap {
        let next = (tb.sim.now() + SimDuration::from_secs(120)).min(hard_cap);
        tb.sim.run_until(next);
    }
    let transit = TransitStats::harvest::<Role>(&mut tb);

    let r = results.lock().unwrap();
    let mut walls = Vec::with_capacity(r.records.len());
    let mut per_node: HashMap<u8, u32> = HashMap::new();
    let mut histogram = Histogram::new(8.0, 88.0, 10);
    for rec in &r.records {
        let wall = rec.wall().as_secs_f64();
        walls.push((rec.job, rec.node, wall));
        *per_node.entry(rec.node).or_insert(0) += 1;
        histogram.record(wall);
    }
    let xs: Vec<f64> = walls.iter().map(|(_, _, w)| *w).collect();
    Fig8Result {
        mean_s: mean(&xs).unwrap_or(f64::NAN),
        std_s: stddev(&xs).unwrap_or(f64::NAN),
        throughput_jpm: r.throughput_jobs_per_min(first_submit).unwrap_or(f64::NAN),
        completed: walls.len(),
        walls,
        per_node,
        histogram,
        transit,
    }
}
