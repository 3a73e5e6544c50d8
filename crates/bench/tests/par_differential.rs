//! Parallel differentials over the bench worlds, each digested to a
//! canonical string and pinned byte-identical across simulator worker
//! counts:
//!
//! * Fig. 8 — the full PBS/MEME experiment (PBS head, NFS traffic, overlay
//!   routers under PlanetLab load). The digest covers every per-job wall
//!   clock (exact f64 bit patterns), per-node job counts, the histogram,
//!   the summary statistics and the transit forwarding totals.
//! * `scale` — the pre-wired ring (seeded near and far links) under
//!   hotspot traffic with shortcuts, digested by
//!   [`ScaleTrafficResult::digest`](wow_bench::scale::ScaleTrafficResult::digest).

use wow_bench::fig8::{run, Fig8Config, Fig8Result};
use wow_bench::scale::{run_traffic, ScaleConfig};
use wow_netsim::prelude::SimDuration;

fn digest(r: &Fig8Result) -> String {
    let mut out = String::new();
    for &(job, node, wall) in &r.walls {
        out.push_str(&format!(
            "job {job} node {node} wall {:016x}\n",
            wall.to_bits()
        ));
    }
    let mut per_node: Vec<_> = r.per_node.iter().map(|(&n, &c)| (n, c)).collect();
    per_node.sort();
    out.push_str(&format!("per_node {per_node:?}\n"));
    out.push_str(&format!("hist {:?}\n", r.histogram));
    out.push_str(&format!(
        "mean {:016x} std {:016x} jpm {:016x} completed {}\n",
        r.mean_s.to_bits(),
        r.std_s.to_bits(),
        r.throughput_jpm.to_bits(),
        r.completed,
    ));
    out.push_str(&format!("transit {:?}\n", r.transit));
    out
}

#[test]
fn fig8_digest_is_identical_across_worker_counts() {
    let base = Fig8Config::quick();
    let reference = digest(&run(
        true,
        &Fig8Config {
            workers: 1,
            ..base.clone()
        },
    ));
    assert!(
        reference.contains("job "),
        "quick fig8 run completed no jobs — differential would be vacuous"
    );
    for workers in [2usize, 4, 8] {
        let got = digest(&run(
            true,
            &Fig8Config {
                workers,
                ..base.clone()
            },
        ));
        assert_eq!(
            got, reference,
            "workers={workers}: fig8 digest diverged from sequential"
        );
    }
}

#[test]
fn scale_traffic_digest_is_identical_across_worker_counts() {
    let base = ScaleConfig {
        warm: SimDuration::from_secs(10),
        pairs: 4,
        traffic: SimDuration::from_secs(10),
        ..ScaleConfig::at(2_000)
    };
    let traffic = |workers| {
        run_traffic(
            &ScaleConfig {
                workers,
                ..base.clone()
            },
            true,
        )
    };
    let reference = traffic(1);
    assert!(
        reference.audit_ok && reference.shortcut_crossings > 0,
        "scale run formed no shortcut or failed its audit — differential would be vacuous"
    );
    for workers in [2usize, 4] {
        assert_eq!(
            traffic(workers).digest(),
            reference.digest(),
            "workers={workers}: scale traffic digest diverged from sequential"
        );
    }
}
