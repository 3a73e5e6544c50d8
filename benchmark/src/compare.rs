//! `wow-perf compare <a.json> <b.json>`: two records written by `wow-perf
//! all`, judged row by row with each metric's own direction and bound.
//!
//! A row is (end-to-end metric, workload). `b` is *worse* when its median
//! is past `a`'s by more than the bound, *better* when it is ahead by more
//! than the bound; otherwise *unchanged* — unless either side's own
//! run-to-run spread is wider than the bound, in which case the row is
//! *unresolved*: the benchmark could not have seen a change that size.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::world::median;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's spread uses exactly that), over the median.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)).abs() / med.abs()
    }
}

/// Judge one row from the two sides' per-run values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    // Positive = b is worse, as a share of a.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

fn values_of(record: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
}

fn str_of<'a>(record: &'a Json, workload: &str, key: &str) -> Option<&'a str> {
    record.get("workloads")?.get(workload)?.get(key)?.as_str()
}

/// Print the comparison; returns whether any row is worse or any
/// same-seed digest differs (the caller's exit status).
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut bad = false;
    let mut unresolved = 0usize;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "b worse", "bound", "spread"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name))
            else {
                return Err(format!("{} / {} is missing from a record", w.name, m.name));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {} has no values", w.name, m.name));
            }
            let (verdict, worse_by) = judge(&va, &vb, m.better, m.bound);
            bad |= verdict == Verdict::Worse;
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+7.2}% {:>6.1}% {:>6.2}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                m.bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                verdict.as_str()
            );
        }
        if same_seed {
            let (da, db) = (str_of(a, w.name, "digest"), str_of(b, w.name, "digest"));
            if da != db {
                bad = true;
                println!(
                    "{:<14} digest DIFFERS on the same seed:\n    a: {}\n    b: {}",
                    w.name,
                    da.unwrap_or("(none)"),
                    db.unwrap_or("(none)")
                );
            } else {
                println!("{:<14} digest identical", w.name);
            }
        }
    }
    println!("\nper-layer (no bound; change of b against a):");
    for w in &WORKLOADS {
        for m in &PER_LAYER {
            let get = |r: &Json| {
                r.get("workloads")?
                    .get(w.name)?
                    .get("per_layer")?
                    .get(m.name)?
                    .get("value")?
                    .as_f64()
            };
            if let (Some(x), Some(y)) = (get(a), get(b)) {
                if x != 0.0 || y != 0.0 {
                    let change = if x == 0.0 {
                        f64::INFINITY
                    } else {
                        (y - x) / x.abs() * 100.0
                    };
                    println!(
                        "{:<14} {:<38} {:>14.4} {:>14.4} {:>+8.2}% {}",
                        w.name, m.name, x, y, change, m.unit
                    );
                }
            }
        }
    }
    println!(
        "\n{} end-to-end row(s) unresolved; {}",
        unresolved,
        if bad {
            "at least one row is WORSE or a digest differs"
        } else {
            "no row worse, digests agree"
        }
    );
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15], n=4) = [10.25, 11.5, 14.25]
        assert!((spread(&[10.0, 12.0, 11.0, 15.0]) - 4.0 / 11.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.1).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.1).0,
            Verdict::Unchanged
        );
        let noisy = [80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
    }
}
