//! Fig. 7: the PBS/MEME job-time profile across a worker VM migration.
//!
//! Paper: a stream of PBS jobs runs on two worker VMs; background load is
//! introduced on one worker's host (its jobs slow down), and the VM is
//! migrated from UFL to an unloaded host at NWU. The job "in transit"
//! during the migration is stretched by the WAN copy but completes; PBS
//! then keeps scheduling onto the migrated VM, whose jobs are fast again —
//! with no application or middleware reconfiguration.

use std::sync::{Arc, Mutex};

use wow::migrate::{migrate_workstation, MigrationSpec};
use wow::testbed::{self, Site, TestbedConfig};
use wow_middleware::apps::meme;
use wow_middleware::duo::Both;
use wow_middleware::nfs::NfsServer;
use wow_middleware::pbs::{PbsHead, PbsResults, PbsWorker};
use wow_netsim::prelude::*;

use crate::roles::Role;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// Jobs to stream (enough to cover pre-load, loaded, and migrated
    /// phases on the observed worker).
    pub jobs: u32,
    /// Router count.
    pub routers: usize,
    /// VM image size for the migration.
    pub image_bytes: f64,
    /// WAN copy bandwidth.
    pub copy_bps: f64,
    /// Background load factor applied before migration.
    pub load_factor: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            jobs: 260,
            routers: 118,
            image_bytes: 384e6,
            copy_bps: 1.25e6,
            load_factor: 3.0,
            seed: 0xF167,
        }
    }
}

impl Fig7Config {
    /// `--quick` scale.
    pub fn quick() -> Self {
        Fig7Config {
            jobs: 60,
            routers: 40,
            image_bytes: 60e6,
            ..Fig7Config::default()
        }
    }
}

/// Outcome.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// (job id, node, wall seconds, completed-at seconds) in completion order.
    pub jobs: Vec<(u32, u8, f64, f64)>,
    /// The observed worker's node number.
    pub observed: u8,
    /// Phase boundaries, absolute sim seconds: (load applied, suspend, resume).
    pub phases: (f64, f64, f64),
    /// Mean wall on the observed worker per phase: (before load, loaded,
    /// in-transit job, after migration).
    pub observed_means: (f64, f64, f64, f64),
}

/// Run the experiment. Two dedicated workers keep the stream going (as in
/// the paper); `observed` (node003) is the one loaded and migrated.
pub fn run(cfg: &Fig7Config) -> Fig7Result {
    let tb_cfg = TestbedConfig {
        seed: cfg.seed,
        routers: cfg.routers,
        router_hosts: 20.min(cfg.routers.max(1)),
        ..TestbedConfig::default()
    };
    let results: Arc<Mutex<PbsResults>> = Arc::new(Mutex::new(PbsResults::default()));
    let head_results = results.clone();
    let head_node = 2u8;
    let observed = 3u8;
    let second_worker = 4u8;
    let head_ip = wow_vnet::ip::VirtIp::testbed(head_node);
    let jobs = cfg.jobs;
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
        } else if spec.number == observed || spec.number == second_worker {
            Role::PbsWorker(Box::new(PbsWorker::new(
                spec.number,
                head_ip,
                SimDuration::from_secs(150),
            )))
        } else {
            Role::Idle(wow::workstation::IdleWorkload)
        }
    });
    let first_submit = SimTime::from_secs(400);
    // With two workers and ~26 s jobs the stream drains at ~13 s/job;
    // split it into thirds: unloaded, loaded, migrated.
    let phase = u64::from(jobs) * 13 / 3;
    let load_at = first_submit + SimDuration::from_secs(phase);
    let migrate_at = load_at + SimDuration::from_secs(phase);
    let observed_host = tb.node(observed).host;
    let load_factor = cfg.load_factor;
    tb.sim.schedule(load_at, move |sim| {
        sim.world().set_host_load(observed_host, load_factor);
    });
    // Migration target: an unloaded host at NWU.
    let nwu = tb.domain(Site::Nwu);
    let dest = tb.sim.add_host(
        nwu,
        wow_netsim::topology::HostSpec::new("fig7-target").link_bps(2.5e6),
    );
    let spec = MigrationSpec {
        actor: tb.node(observed).actor,
        to_host: dest,
        image_bytes: cfg.image_bytes,
        wan_bytes_per_sec: cfg.copy_bps,
    };
    let resume_at = migrate_workstation::<Role>(&mut tb.sim, spec, migrate_at);
    let horizon = resume_at + SimDuration::from_secs(u64::from(jobs) * 2 + 900);
    tb.sim.run_until(horizon);

    let r = results.lock().unwrap();
    let mut recs: Vec<(u32, u8, f64, f64)> = r
        .records
        .iter()
        .map(|x| {
            (
                x.job,
                x.node,
                x.wall().as_secs_f64(),
                x.completed.as_secs_f64(),
            )
        })
        .collect();
    recs.sort_by_key(|(job, ..)| *job);
    let phases = (
        load_at.as_secs_f64(),
        migrate_at.as_secs_f64(),
        resume_at.as_secs_f64(),
    );
    let on_observed = |lo: f64, hi: f64, transit: bool| -> f64 {
        let xs: Vec<f64> = recs
            .iter()
            .filter(|(_, node, _, done)| {
                *node == observed
                    && if transit {
                        // The in-transit job completed after resume but was
                        // dispatched before suspension.
                        *done >= hi
                    } else {
                        *done >= lo && *done < hi
                    }
            })
            .map(|(_, _, w, _)| *w)
            .collect();
        if transit {
            // The single stretched job: the max wall right after resume.
            xs.iter().take(1).copied().next().unwrap_or(f64::NAN)
        } else if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let before = on_observed(0.0, phases.0, false);
    let loaded = on_observed(phases.0 + 30.0, phases.1, false);
    let transit = on_observed(phases.1, phases.2, true);
    let after = {
        let xs: Vec<f64> = recs
            .iter()
            .filter(|(_, node, _, done)| *node == observed && *done > phases.2 + 60.0)
            .map(|(_, _, w, _)| *w)
            .collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Fig7Result {
        jobs: recs,
        observed,
        phases,
        observed_means: (before, loaded, transit, after),
    }
}
