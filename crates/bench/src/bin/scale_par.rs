//! Parallel scale harness: the fig8-style shortcut-traffic experiment
//! swept over simulator worker counts, asserting the byte-identity
//! contract while measuring the speedup.
//!
//! Modes:
//!
//! * default — n = 10 000, workers {1, 2} (the committed
//!   `results/scale_par.csv`)
//! * `--full` — n ∈ {10 000, 100 000}, workers {1, 2}
//! * `--smoke` — n = 2 000, workers {1, 2, 4, 8}: the CI leg; small enough
//!   for every push, still crossing the pool-dispatch threshold
//! * `--n <size>` / `--workers <a,b,...>` — explicit sweep
//!
//! The seed can be swept via `WOW_SCALE_SEED` (CI runs a matrix). For each
//! size, every worker count's artifact digest is compared against the
//! first one's (workers = 1 unless `--workers` reorders the sweep), and the
//! speedup column is relative to it; any divergence aborts with a nonzero
//! exit.
//! Writes `results/scale_par.csv`.

use wow_bench::report::{banner, r1, r2, write_csv, Table};
use wow_bench::scale::{self, ScaleConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (sizes, workers): (Vec<usize>, Vec<usize>) = if args.iter().any(|a| a == "--full") {
        (vec![10_000, 100_000], vec![1, 2])
    } else if args.iter().any(|a| a == "--smoke") {
        (vec![2_000], vec![1, 2, 4, 8])
    } else {
        let sizes = match args.iter().position(|a| a == "--n") {
            Some(i) => vec![args
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--n takes an integer")],
            None => vec![10_000],
        };
        let workers = match args.iter().position(|a| a == "--workers") {
            Some(i) => args
                .get(i + 1)
                .expect("--workers takes a comma-separated list")
                .split(',')
                .map(|w| w.trim().parse().expect("worker counts are integers"))
                .collect(),
            None => vec![1, 2],
        };
        (sizes, workers)
    };
    let seed: u64 = std::env::var("WOW_SCALE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5CA1E);

    banner(
        "scale-par: deterministic parallel event execution",
        "same transcript at every worker count; speedup is free",
    );

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "n",
        "workers",
        "events",
        "wall_s",
        "events/s",
        "speedup",
        "identical",
    ]);

    let mut ok = true;
    for &n in &sizes {
        let cfg = ScaleConfig {
            seed,
            workers: 0, // set per run below
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
            let events = r.warm.events + r.traffic.events;
            let wall = r.warm.wall_s + r.traffic.wall_s;
            let eps = events as f64 / wall.max(1e-9);
            let (identical, speedup) = match &reference {
                None => {
                    reference = Some((digest.clone(), wall));
                    (true, 1.0)
                }
                Some((ref_digest, ref_wall)) => (digest == *ref_digest, ref_wall / wall.max(1e-9)),
            };
            ok &= identical;
            table.row(&[
                &r.nodes,
                &w,
                &events,
                &r2(wall),
                &r1(eps),
                &r2(speedup),
                &identical,
            ]);
            rows.push(format!(
                "{},{},{},{},{:.3},{:.1},{:.3},{},{}",
                r.nodes, w, seed, events, wall, eps, speedup, identical, digest,
            ));
            if !identical {
                eprintln!(
                    "[scale-par] DIVERGENCE at n={n} workers={w}:\n  ref: {}\n  got: {digest}",
                    reference.as_ref().unwrap().0
                );
            }
        }
    }
    table.print();

    write_csv(
        "scale_par.csv",
        "n,workers,seed,total_events,wall_s,events_per_sec,speedup_vs_w1,identical,digest",
        rows,
    );

    if !ok {
        eprintln!("[scale-par] FAILED: parallel artifacts diverged from the sequential reference");
        std::process::exit(1);
    }
    println!("  all worker counts byte-identical to the sequential reference");
}
