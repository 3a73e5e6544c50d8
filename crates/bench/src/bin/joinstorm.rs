//! Flash-crowd join storm at 10⁴–10⁵ nodes: every joiner performs the real
//! multi-introducer join inside a simulated minute; the merged ring must
//! audit clean afterwards. Compares the storm's join-latency CDF against
//! the 300-trial baseline (`join_cdf_routable.csv`) and writes it as a
//! quantile summary (`joinstorm_cdf_<joiners>.csv`, nearest-rank, 103 rows)
//! rather than one row per joiner.

use wow_bench::joinstorm::{run, JoinStormConfig};
use wow_bench::report::{banner, r1, r2, results_dir, write_csv, Table};

/// Percentile of a baseline CDF file (`seconds,fraction` rows): the first
/// `seconds` whose cumulative `fraction` reaches `q`%.
fn baseline_percentile(name: &str, q: f64) -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join(name)).ok()?;
    for line in text.lines().skip(1) {
        let (s, f) = line.split_once(',')?;
        if f.trim().parse::<f64>().ok()? * 100.0 >= q {
            return s.trim().parse().ok();
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full = std::env::args().any(|a| a == "--full");
    let joiners = if quick {
        1_000
    } else if full {
        100_000
    } else {
        10_000
    };
    let cfg = JoinStormConfig::at(joiners);
    banner(
        "Flash-crowd join storm -- decentralized multi-introducer bootstrap",
        "joins complete inside a simulated minute; ring audits whole after",
    );
    let out = run(&cfg);

    let mut t = Table::new(&[
        "joiners",
        "joined",
        "in window",
        "p50 (s)",
        "p90 (s)",
        "p99 (s)",
        "audit",
        "repair (s)",
        "ev/s",
        "rss MiB",
    ]);
    t.row(&[
        &out.joiners,
        &out.joined,
        &out.in_window,
        &r2(out.percentile(50.0)),
        &r2(out.percentile(90.0)),
        &r2(out.percentile(99.0)),
        &out.audit_ok,
        &r1(out.repair_s.unwrap_or(f64::NAN)),
        &format!("{:.0}", out.storm.events_per_sec()),
        &r1(out.peak_rss_mib),
    ]);
    t.print();
    println!(
        "\n(core {} / {} introducer fallbacks / {} audit polls, backoff-paced)",
        out.core, out.introducer_fallbacks, out.audit_polls
    );
    for (q, label) in [(50.0, "p50"), (90.0, "p90"), (99.0, "p99")] {
        if let Some(base) = baseline_percentile("join_cdf_routable.csv", q) {
            println!(
                "  {label}: storm {:.2} s vs 300-trial baseline {:.2} s",
                out.percentile(q),
                base
            );
        }
    }

    // The join-latency CDF as a quantile summary: p0–p100 by 1 %, plus the
    // two tail points a 1 % grid cannot resolve at 10⁴–10⁵ joiners.
    let quantiles = (0..100).map(f64::from).chain([99.9, 99.99, 100.0]);
    write_csv(
        &format!("joinstorm_cdf_{}.csv", out.joiners),
        "quantile,seconds",
        quantiles.map(|q| format!("{q},{:.2}", out.percentile(q))),
    );
    write_csv(
        "joinstorm_summary.csv",
        "joiners,joined,in_window,p50_s,p90_s,p99_s,core_audit_ok,audit_ok,repair_s,audit_polls,\
         introducer_fallbacks,events,events_per_sec,peak_rss_mib",
        std::iter::once(format!(
            "{},{},{},{:.2},{:.2},{:.2},{},{},{:.1},{},{},{},{:.0},{:.1}",
            out.joiners,
            out.joined,
            out.in_window,
            out.percentile(50.0),
            out.percentile(90.0),
            out.percentile(99.0),
            out.core_audit_ok,
            out.audit_ok,
            out.repair_s.unwrap_or(f64::NAN),
            out.audit_polls,
            out.introducer_fallbacks,
            out.storm.events,
            out.storm.events_per_sec(),
            out.peak_rss_mib,
        )),
    );

    if !out.audit_ok || out.joined < out.joiners {
        eprintln!(
            "joinstorm: FAILED (joined {}/{}, audit_ok={})",
            out.joined, out.joiners, out.audit_ok
        );
        std::process::exit(1);
    }
}
