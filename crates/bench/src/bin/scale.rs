//! Scale harness binary: fig8-style shortcut traffic and kill-k churn at
//! 10k–100k nodes on the pre-wired overlay of [`wow_bench::scale`].
//!
//! For each size the shortcut-on traffic run is swept over simulator worker
//! counts: every count's artifact digest must equal the first one's (the
//! parallel engine's byte-identity contract), the speedup column is
//! relative to it, and any divergence exits nonzero. Shortcut-off traffic
//! and kill-k churn then run once each at the simulator's own worker count
//! (`workers` 0 in the CSV).
//!
//! Modes:
//!
//! * default — n = 10 000, workers {1, 2}
//! * `--full` — n ∈ {10 000, 100 000}
//! * `--smoke` — n = 2 000, workers {1, 2, 4, 8}: the CI leg; small enough
//!   for every push, still crossing the pool-dispatch threshold
//! * `--n <size>` / `--workers <a,b,...>` — explicit sweep
//!
//! `WOW_SCALE_SEED` overrides the root seed (CI runs a matrix). Writes
//! `scale_traffic.csv` and `scale_churn.csv` into the results directory.

use wow_bench::report::{banner, r1, r2, write_csv, Table};
use wow_bench::scale::{self, ScaleConfig, ScaleTrafficResult};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |name: &str| {
        let i = args.iter().position(|a| a == name)?;
        Some(args.get(i + 1).map_or("", String::as_str))
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if args.iter().any(|a| a == "--full") {
        vec![10_000, 100_000]
    } else if smoke {
        vec![2_000]
    } else {
        vec![value("--n").map_or(10_000, |s| s.parse().expect("--n takes an integer"))]
    };
    let workers: Vec<usize> = match value("--workers") {
        Some(list) => list
            .split(',')
            .map(|w| w.trim().parse().expect("worker counts are integers"))
            .collect(),
        None if smoke => vec![1, 2, 4, 8],
        None => vec![1, 2],
    };
    let seed: u64 = std::env::var("WOW_SCALE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5CA1E);

    banner(
        "scale: overlay at 10k-100k hosts",
        "beyond paper scale: timer-wheel core + SoA world state; same transcript at every worker count",
    );

    let mut traffic_rows = Vec::new();
    let mut churn_rows = Vec::new();
    let mut table = Table::new(&[
        "n",
        "experiment",
        "workers",
        "events",
        "wall_s",
        "events/s",
        "speedup",
        "hops 1st",
        "hops 2nd",
        "outcome",
    ]);

    let mut identical_all = true;
    for &n in &sizes {
        let cfg = ScaleConfig {
            seed,
            ..ScaleConfig::at(n)
        };
        let mut reference: Option<(String, f64)> = None;
        for &w in &workers {
            let r = scale::run_traffic(
                &ScaleConfig {
                    workers: w,
                    ..cfg.clone()
                },
                true,
            );
            let digest = r.digest();
            let wall = r.warm.wall_s + r.traffic.wall_s;
            let (ref_digest, ref_wall) = reference.get_or_insert_with(|| (digest.clone(), wall));
            let identical = digest == *ref_digest;
            if !identical {
                eprintln!(
                    "[scale] DIVERGENCE at n={n} workers={w}:\n  ref: {ref_digest}\n  got: {digest}"
                );
                identical_all = false;
            }
            let speedup = *ref_wall / wall.max(1e-9);
            record_traffic(
                &r,
                w,
                seed,
                Some((speedup, identical)),
                &mut table,
                &mut traffic_rows,
            );
        }
        let r = scale::run_traffic(&cfg, false);
        record_traffic(&r, cfg.workers, seed, None, &mut table, &mut traffic_rows);

        let c = scale::run_churn(&cfg);
        let events = c.warm.events + c.repair.events;
        let wall = c.warm.wall_s + c.repair.wall_s;
        let eps = events as f64 / wall.max(1e-9);
        table.row(&[
            &c.nodes,
            &"kill-k churn",
            &cfg.workers,
            &events,
            &r2(wall),
            &r1(eps),
            &"",
            &f64::NAN,
            &f64::NAN,
            &format!(
                "kill={} repair={:?}s audit={}",
                c.kill,
                c.repair_s.map(r1),
                c.initial_audit_ok
            ),
        ]);
        churn_rows.push(format!(
            "{},{},{},{},{},{:.3},{:.1},{},{},{:.1}",
            c.nodes,
            c.kill,
            c.warm.events,
            c.repair.events,
            events,
            wall,
            eps,
            c.repair_s.map(|s| format!("{s:.1}")).unwrap_or_default(),
            c.initial_audit_ok,
            c.peak_rss_mib,
        ));
    }
    table.print();

    write_csv(
        "scale_traffic.csv",
        "n,shortcuts,workers,seed,warm_events,traffic_events,sim_s,total_events,wall_s,events_per_sec,speedup,identical,hops_first_half,hops_second_half,forwarded,shortcut_conns,shortcut_crossings,audit_ok,peak_rss_mib,name_bytes_per_host",
        traffic_rows,
    );
    write_csv(
        "scale_churn.csv",
        "n,kill,warm_events,repair_events,total_events,wall_s,events_per_sec,repair_s,initial_audit_ok,peak_rss_mib",
        churn_rows,
    );

    if !identical_all {
        eprintln!("[scale] FAILED: parallel artifacts diverged from the first worker count's");
        std::process::exit(1);
    }
    println!("  every worker count byte-identical to the first");
}

/// One traffic run into the console table and the CSV. `sweep` is the
/// speedup and digest verdict against the sweep's first worker count; the
/// shortcut-off run is not part of a sweep and leaves both cells empty.
fn record_traffic(
    r: &ScaleTrafficResult,
    workers: usize,
    seed: u64,
    sweep: Option<(f64, bool)>,
    table: &mut Table,
    rows: &mut Vec<String>,
) {
    let label = if r.shortcuts {
        "traffic+shortcuts"
    } else {
        "traffic-shortcuts"
    };
    let events = r.warm.events + r.traffic.events;
    let wall = r.warm.wall_s + r.traffic.wall_s;
    let eps = events as f64 / wall.max(1e-9);
    let (speedup, identical) = match sweep {
        Some((s, same)) => (format!("{s:.3}"), same.to_string()),
        None => (String::new(), String::new()),
    };
    table.row(&[
        &r.nodes,
        &label,
        &workers,
        &events,
        &r2(wall),
        &r1(eps),
        &speedup,
        &r2(r.hops_first_half),
        &r2(r.hops_second_half),
        &format!(
            "audit={} shortcuts={} fwd={}",
            r.audit_ok, r.shortcut_conns, r.forwarded
        ),
    ]);
    rows.push(format!(
        "{},{},{workers},{seed},{},{},{:.3},{},{:.3},{:.1},{speedup},{identical},{:.3},{:.3},{},{},{},{},{:.1},{:.2}",
        r.nodes,
        r.shortcuts,
        r.warm.events,
        r.traffic.events,
        r.warm.sim_s + r.traffic.sim_s,
        events,
        wall,
        eps,
        r.hops_first_half,
        r.hops_second_half,
        r.forwarded,
        r.shortcut_conns,
        r.shortcut_crossings,
        r.audit_ok,
        r.peak_rss_mib,
        r.name_bytes_per_host,
    ));
    println!(
        "  host-name storage: {:.2} B/host (bound {} B/host, peak RSS {:.1} MiB)",
        r.name_bytes_per_host,
        scale::NAME_BYTES_PER_HOST_BOUND,
        r.peak_rss_mib
    );
    assert!(
        r.name_bytes_per_host <= scale::NAME_BYTES_PER_HOST_BOUND,
        "host-name storage regressed: {:.2} B/host exceeds the {} B/host interning bound",
        r.name_bytes_per_host,
        scale::NAME_BYTES_PER_HOST_BOUND
    );
}
