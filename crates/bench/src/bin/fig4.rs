//! Regenerate Fig. 4 (join-profile RTT and drop curves) and Fig. 5 (the
//! three regimes, UFL-NWU zoom). `--quick` runs a scaled-down version.

use wow_bench::fig4::{run_scenario, window_drop, window_mean, Fig4Config, Scenario};
use wow_bench::report::{banner, r1, write_csv, Table};
use wow_overlay::telemetry::{Counter, TelemetryCounters};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if quick {
        Fig4Config::quick()
    } else if full {
        Fig4Config::full()
    } else {
        Fig4Config::default()
    };
    banner(
        "Fig. 4 — ICMP RTT and drop profiles during WOW node join",
        "90% of joins routable <10s; shortcuts: NWU-NWU ~20 pings, UFL-NWU ~30, UFL-UFL ~200; RTT 146ms multi-hop -> 38ms direct",
    );
    println!(
        "config: {} trials x {} pings, {} routers\n",
        cfg.trials, cfg.pings, cfg.routers
    );

    let mut summary = Table::new(&[
        "scenario",
        "drop% seq0-3",
        "drop% seq4-32",
        "drop% tail",
        "rtt(ms) early",
        "rtt(ms) tail",
        "median t_routable(s)",
        "median t_direct(s)",
    ]);
    for scenario in Scenario::all() {
        let p = run_scenario(scenario, &cfg);
        let n = p.drop_frac.len();
        let early_drop = 100.0 * window_drop(&p.drop_frac, 0..4.min(n));
        let mid_drop = 100.0 * window_drop(&p.drop_frac, 4..33.min(n));
        let tail_drop = 100.0 * window_drop(&p.drop_frac, (n * 3 / 4)..n);
        let early_rtt = window_mean(&p.avg_rtt_ms, 4..33.min(n)).unwrap_or(f64::NAN);
        let tail_rtt = window_mean(&p.avg_rtt_ms, (n * 3 / 4)..n).unwrap_or(f64::NAN);
        let mut routable: Vec<f64> = p.trials.iter().filter_map(|t| t.time_to_routable).collect();
        let mut direct: Vec<f64> = p.trials.iter().filter_map(|t| t.time_to_direct).collect();
        routable.sort_by(|a, b| a.partial_cmp(b).unwrap());
        direct.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v[v.len() / 2]
            }
        };
        summary.row(&[
            &scenario.label(),
            &r1(early_drop),
            &r1(mid_drop),
            &r1(tail_drop),
            &r1(early_rtt),
            &r1(tail_rtt),
            &r1(med(&routable)),
            &r1(med(&direct)),
        ]);
        write_csv(
            &format!(
                "fig4_{}.csv",
                scenario.label().to_lowercase().replace('-', "_")
            ),
            "seq,avg_rtt_ms,drop_frac",
            (0..n).map(|i| {
                format!(
                    "{},{},{}",
                    i,
                    p.avg_rtt_ms[i]
                        .map(|x| format!("{x:.2}"))
                        .unwrap_or_default(),
                    p.drop_frac[i]
                )
            }),
        );
        // Per-trial protocol telemetry: why pings were lost (drops by
        // reason), how hard the join worked (CTM attempts by kind), and
        // how linking went (trials, races, failures) — one row per trial.
        let telemetry_header = {
            let mut h = String::from("trial,time_to_routable_s,time_to_direct_s");
            for c in Counter::ALL {
                h.push(',');
                h.push_str(c.name());
            }
            h
        };
        write_csv(
            &format!(
                "fig4_telemetry_{}.csv",
                scenario.label().to_lowercase().replace('-', "_")
            ),
            &telemetry_header,
            p.trials.iter().enumerate().map(|(i, t)| {
                let mut row = format!(
                    "{},{},{}",
                    i,
                    t.time_to_routable
                        .map(|x| format!("{x:.2}"))
                        .unwrap_or_default(),
                    t.time_to_direct
                        .map(|x| format!("{x:.2}"))
                        .unwrap_or_default(),
                );
                for (_, v) in t.counters.iter() {
                    row.push_str(&format!(",{v}"));
                }
                row
            }),
        );
        // World-level queue occupancy per trial: the uplink/downlink
        // serialization and CPU queues that produce regime 2's inflated
        // RTTs. One row per trial, totals in µs (means derivable).
        write_csv(
            &format!(
                "fig4_queue_{}.csv",
                scenario.label().to_lowercase().replace('-', "_")
            ),
            "trial,uplink_queued,uplink_wait_us,downlink_queued,downlink_wait_us,cpu_queued,cpu_wait_us",
            p.trials.iter().enumerate().map(|(i, t)| {
                let q = &t.queues;
                format!(
                    "{},{},{},{},{},{},{}",
                    i,
                    q.uplink_queued,
                    q.uplink_wait_us,
                    q.downlink_queued,
                    q.downlink_wait_us,
                    q.cpu_queued,
                    q.cpu_wait_us,
                )
            }),
        );
        let mean_over_trials = |f: &dyn Fn(&wow_bench::fig4::QueueWaits) -> f64| {
            let xs: Vec<f64> = p
                .trials
                .iter()
                .map(|t| f(&t.queues))
                .filter(|x| x.is_finite())
                .collect();
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        use wow_bench::fig4::QueueWaits;
        println!(
            "  [queues] {}: mean wait per queued unit — uplink {:.2} ms, downlink {:.2} ms, cpu {:.2} ms",
            scenario.label(),
            mean_over_trials(&|q| QueueWaits::mean_ms(q.uplink_queued, q.uplink_wait_us)),
            mean_over_trials(&|q| QueueWaits::mean_ms(q.downlink_queued, q.downlink_wait_us)),
            mean_over_trials(&|q| QueueWaits::mean_ms(q.cpu_queued, q.cpu_wait_us)),
        );
        let mut total = TelemetryCounters::new();
        for t in &p.trials {
            total.merge(&t.counters);
        }
        let per_trial = |c: Counter| total.get(c) as f64 / p.trials.len().max(1) as f64;
        println!(
            "  [telemetry] {}: per trial — drops ttl/relay/decode {:.1}/{:.1}/{:.1}, \
             ctm join/probe/shortcut/far/near {:.1}/{:.1}/{:.1}/{:.1}/{:.1}, \
             link sent/backoff/failed {:.1}/{:.1}/{:.1}",
            scenario.label(),
            per_trial(Counter::DroppedTtl),
            per_trial(Counter::DroppedRelay),
            per_trial(Counter::DroppedDecode),
            per_trial(Counter::CtmJoin),
            per_trial(Counter::CtmRingProbe),
            per_trial(Counter::CtmShortcut),
            per_trial(Counter::CtmFar),
            per_trial(Counter::CtmNear),
            per_trial(Counter::LinkRequestSent),
            per_trial(Counter::LinkRaceBackoff),
            per_trial(Counter::LinkFailed),
        );
        if scenario == Scenario::UflNwu {
            // Fig. 5: the first 50 sequence numbers, drop percentage.
            write_csv(
                "fig5_ufl_nwu_first50.csv",
                "seq,drop_pct",
                (0..50.min(n)).map(|i| format!("{},{}", i, 100.0 * p.drop_frac[i])),
            );
        }
    }
    summary.print();
    println!("\npaper shape: three regimes -- total loss before routability (first ~3 pings),");
    println!("multi-hop RTTs (~146ms) with <20% loss until the shortcut, then direct RTTs (~38-43ms, <1% loss).");
    println!("UFL-UFL takes ~200 pings to the shortcut because the UFL NAT does not hairpin (public URI burns ~155s).");
}
