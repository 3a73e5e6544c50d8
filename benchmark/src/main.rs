//! `wow-perf` command line.
//!
//! ```text
//! wow-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check]
//! wow-perf all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>] [--check]
//! wow-perf compare <a.json> <b.json>
//! wow-perf manifest
//! wow-perf metrics
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: one workload in
//! this process (so `VmHWM` is that workload's), a result object as the
//! last line of standard output. `all` runs every workload that way, one
//! child process at a time, prints every metric by name and writes the
//! record `compare` reads.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use wow_perf::compare;
use wow_perf::json::Json;
use wow_perf::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use wow_perf::runner::{self, RunSpec};
use wow_perf::sys;
use wow_perf::workloads::Size;

/// Default seed of `all`.
const DEFAULT_SEED: u64 = 0x5CA1E;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("metrics") => {
            print_metric_tables();
            Ok(true)
        }
        _ => one(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("wow-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` lookup.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} takes a number, got '{text}'")),
    }
}

/// `--seed`, decimal or `0x` hex.
fn seed_of(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seed") {
        None => Ok(DEFAULT_SEED),
        Some(text) => match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|_| format!("--seed takes a whole number, got '{text}'")),
    }
}

fn size_of(args: &[String]) -> Size {
    if args.iter().any(|a| a == "--check") {
        Size::Check
    } else {
        Size::Full
    }
}

/// The contract form: one workload, result object on the last line.
fn one(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload")
        .ok_or("usage: wow-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | compare <a> <b> | manifest | metrics")?;
    let spec = RunSpec {
        workload: workload.to_string(),
        seed: seed_of(args)?,
        seconds: parsed(args, "--seconds", RUN_SECONDS as f64)?,
        size: size_of(args),
    };
    let out = match parsed(args, "--trace", 0u8)? {
        0 => runner::run_untraced(&spec)?,
        _ => runner::run_traced(&spec, &runner::default_out_dir())?,
    };
    for note in &out.notes {
        println!("# {note}");
    }
    if !out.digest.is_empty() {
        println!("digest {}", out.digest);
    }
    println!("{}", out.result_line());
    // The result line is printed either way; the exit code says whether
    // its numbers can be trusted. Failed operations are in the line itself.
    Ok(out.correct)
}

/// Run this binary on one workload in a child process; returns the parsed
/// result object and the digest line.
fn child(spec: &RunSpec, trace: bool) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if spec.size == Size::Check {
        cmd.arg("--check");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut digest = String::new();
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("digest ") {
            digest = d.to_string();
        } else if line.starts_with("# ") {
            println!("  {line}");
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("{} (trace {trace}): no result line: {e}", spec.workload))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {trace}) failed its checks: {}",
            spec.workload, last
        ));
    }
    Ok((result, digest))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, untraced `runs` times then traced once, one child at a
/// time; prints every metric and writes the record.
fn all(args: &[String]) -> Result<bool, String> {
    let seed = seed_of(args)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS as f64)?;
    let runs: usize = parsed(args, "--runs", 3usize)?;
    let size = size_of(args);
    let out_path = flag(args, "--out").map_or_else(
        || runner::default_out_dir().join(format!("record-{seed:x}.json")),
        PathBuf::from,
    );
    let machine = sys::machine_record();
    println!("machine: {}", machine.render());
    println!("seed {seed:#x}, {seconds} s measured per run, {runs} untraced run(s) + 1 traced per workload\n");

    let mut ok = true;
    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let spec = RunSpec {
            workload: w.name.to_string(),
            seed,
            seconds,
            size,
        };
        println!("== {} ==", w.name);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut digest = String::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in 0..runs.max(1) {
            let (result, d) = child(&spec, false)?;
            if run > 0 && d != digest {
                ok = false;
                println!("  DIGEST DIFFERS between same-seed runs:\n    {digest}\n    {d}");
            }
            digest = d;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (slot, m) in values.iter_mut().zip(&END_TO_END) {
                slot.push(
                    metric_value(&result, m.name)
                        .ok_or_else(|| format!("{}: result lacks {}", w.name, m.name))?,
                );
            }
        }
        let (layers, traced_digest) = child(&spec, true)?;
        if traced_digest != digest {
            ok = false;
            println!("  DIGEST DIFFERS between the traced and untraced runs");
        }
        if failed > 0.0 {
            ok = false;
        }
        println!("  attempted {attempted}, failed {failed}");
        if !digest.is_empty() {
            println!("  digest {digest}");
        }
        println!(
            "  end to end (median of {} run(s); spread = IQR/median):",
            runs.max(1)
        );
        for (vs, m) in values.iter().zip(&END_TO_END) {
            println!(
                "    {:<18} {:>14.4} {:<6} spread {:>5.2}%  (bound {:.1}%, {} is better)",
                m.name,
                wow_perf::world::median(vs),
                m.unit,
                compare::spread(vs) * 100.0,
                m.bound * 100.0,
                m.better.as_str(),
            );
        }
        println!("  per layer (traced run):");
        for m in &PER_LAYER {
            let v = metric_value(&layers, m.name)
                .ok_or_else(|| format!("{}: traced result lacks {}", w.name, m.name))?;
            println!("    {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
        println!();
        workloads_json.push((
            w.name.to_string(),
            Json::obj([
                ("digest", Json::str(digest)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::Obj(
                        values
                            .iter()
                            .zip(&END_TO_END)
                            .map(|(vs, m)| {
                                (
                                    m.name.to_string(),
                                    Json::obj([
                                        ("unit", Json::str(m.unit)),
                                        (
                                            "values",
                                            Json::Arr(vs.iter().map(|v| Json::Num(*v)).collect()),
                                        ),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let record = Json::obj([
        ("machine", machine),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, record.pretty()).map_err(|e| e.to_string())?;
    println!("record written to {}", out_path.display());
    if !ok {
        println!("FAILED: an operation failed or a digest differed (see above)");
    }
    Ok(ok)
}

/// The metric tables with what `BENCHMARK.json` has no room for: what each
/// end-to-end metric means, and which end-to-end metric, on which
/// workload, each layer metric should move.
fn print_metric_tables() {
    for w in &WORKLOADS {
        println!("workload {:<14} {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end-to-end {:<16} {:<6} {} is better, bound {:.1}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.note
        );
    }
    for m in &PER_LAYER {
        println!(
            "layer {:<40} {:<6} {} is better; moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: wow-perf compare <a.json> <b.json>".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let bad = compare::compare(&read(a)?, &read(b)?)?;
    Ok(!bad)
}
