//! Fig. 6: an SCP download that survives WAN migration of the server VM.
//!
//! Paper: a client VM at NWU downloads a 720 MB file from a server in the
//! UFL private network. At ~200 s the server's IPOP process is killed, the
//! VM suspended, its memory image and disk COW logs copied to NWU, and the
//! VM resumed; IPOP restarts and rejoins. The transfer stalls for roughly
//! eight minutes and then resumes — no application restart — at a *higher*
//! rate (1.36 MB/s before, 1.83 MB/s after: the endpoints are now in one
//! domain).

use std::sync::{Arc, Mutex};

use wow::migrate::{migrate_workstation, MigrationSpec};
use wow::testbed::{self, Site, TestbedConfig};
use wow_middleware::scp::{FileClient, FileServer};
use wow_middleware::ttcp::TransferProgress;
use wow_netsim::prelude::*;

use crate::roles::Role;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// File size (paper: 720 MB).
    pub file_bytes: u64,
    /// VM image size copied during migration.
    pub image_bytes: f64,
    /// WAN copy bandwidth.
    pub copy_bps: f64,
    /// Seconds after the transfer starts at which migration begins.
    pub migrate_after: u64,
    /// Router count.
    pub routers: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            file_bytes: 720_000_000,
            // 512 MB at 1.25 MB/s ≈ 410 s — the paper's ~8-minute outage
            // (memory image + COW logs, not the whole virtual disk).
            image_bytes: 512e6,
            copy_bps: 1.25e6,
            migrate_after: 200,
            routers: 118,
            seed: 0xF166,
        }
    }
}

impl Fig6Config {
    /// `--quick` scale: small file, short outage.
    pub fn quick() -> Self {
        Fig6Config {
            file_bytes: 40_000_000,
            image_bytes: 50e6,
            migrate_after: 20,
            routers: 40,
            ..Fig6Config::default()
        }
    }
}

/// The outcome: the Fig. 6 curve plus summary rates.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// (seconds since transfer start, bytes at client).
    pub curve: Vec<(f64, u64)>,
    /// Transfer completed.
    pub completed: bool,
    /// MB/s before the migration started.
    pub rate_before: f64,
    /// MB/s after the transfer resumed.
    pub rate_after: f64,
    /// Stall length observed at the client (s).
    pub stall_secs: f64,
    /// When migration began / VM resumed, relative to transfer start (s).
    pub migration_window: (f64, f64),
}

/// Run the experiment.
pub fn run(cfg: &Fig6Config) -> Fig6Result {
    let tb_cfg = TestbedConfig {
        seed: cfg.seed,
        routers: cfg.routers,
        router_hosts: 20.min(cfg.routers.max(1)),
        ..TestbedConfig::default()
    };
    let server_node = 3u8; // UFL private network
    let client_node = 17u8; // NWU
    let port = 22;
    let progress: Arc<Mutex<TransferProgress>> = Arc::new(Mutex::new(TransferProgress::default()));
    let client_progress = progress.clone();
    let connect_delay = SimDuration::from_secs(220);
    let file_bytes = cfg.file_bytes;
    let mut tb = testbed::build(tb_cfg, |_, spec| {
        if spec.number == server_node {
            Role::FileServer(FileServer::new(port, file_bytes))
        } else if spec.number == client_node {
            Role::FileClient(FileClient::new(
                wow_vnet::ip::VirtIp::testbed(server_node),
                port,
                connect_delay,
                client_progress.clone(),
            ))
        } else {
            Role::Idle(wow::workstation::IdleWorkload)
        }
    });
    // The client boots at nodes_start + idx·gap; transfer starts at
    // boot + connect_delay. Compute that instant for the timeline.
    let client_idx = tb
        .nodes
        .iter()
        .position(|n| n.spec.number == client_node)
        .expect("client in table") as f64;
    let t0 =
        SimTime::from_secs(120) + SimDuration::from_secs(2).mul_f64(client_idx) + connect_delay;

    // A migration target host at NWU.
    let nwu = tb.domain(Site::Nwu);
    let dest = tb.sim.add_host(
        nwu,
        wow_netsim::topology::HostSpec::new("migration-target").link_bps(2.5e6),
    );
    let spec = MigrationSpec {
        actor: tb.node(server_node).actor,
        to_host: dest,
        image_bytes: cfg.image_bytes,
        wan_bytes_per_sec: cfg.copy_bps,
    };
    let migrate_at = t0 + SimDuration::from_secs(cfg.migrate_after);
    let resume_at = migrate_workstation::<Role>(&mut tb.sim, spec, migrate_at);

    // Horizon: transfer at ≥1 MB/s plus outage plus slack.
    let horizon = resume_at
        + SimDuration::from_secs((cfg.file_bytes as f64 / 1.0e6) as u64)
        + SimDuration::from_secs(300);
    tb.sim.run_until(horizon);

    let p = progress.lock().unwrap();
    let rel = |t: SimTime| t.saturating_since(t0).as_secs_f64();
    let curve: Vec<(f64, u64)> = p.samples.iter().map(|(t, b)| (rel(*t), *b)).collect();
    let migration_window = (rel(migrate_at), rel(resume_at));
    // Rate before: bytes at migrate_at ÷ time.
    let bytes_at = |secs: f64| {
        curve
            .iter()
            .take_while(|(t, _)| *t <= secs)
            .last()
            .map(|(_, b)| *b)
            .unwrap_or(0)
    };
    let before_bytes = bytes_at(migration_window.0);
    let rate_before = before_bytes as f64 / 1e6 / migration_window.0.max(1.0);
    // Rate after: from resume to completion.
    let completed = p.completed.is_some();
    let end = p
        .completed
        .map(rel)
        .unwrap_or_else(|| curve.last().map(|(t, _)| *t).unwrap_or(migration_window.1));
    // Measure the post-resume rate from shortly after the rejoin (skip the
    // first few seconds of TCP slow-start recovery).
    let resume_settled = migration_window.1 + 5.0;
    let resumed_bytes = bytes_at(resume_settled);
    let rate_after =
        (p.total.saturating_sub(resumed_bytes)) as f64 / 1e6 / (end - resume_settled).max(1.0);
    // Stall: the longest gap between samples with unchanged byte counts
    // around the migration window.
    let mut stall = 0.0f64;
    let mut last_progress_t = 0.0f64;
    let mut last_bytes = 0u64;
    for &(t, b) in &curve {
        if b > last_bytes {
            let gap = t - last_progress_t;
            stall = stall.max(gap);
            last_bytes = b;
            last_progress_t = t;
        }
    }
    Fig6Result {
        curve,
        completed,
        rate_before,
        rate_after,
        stall_secs: stall,
        migration_window,
    }
}
