//! Smoke tests at `--check` size (n = 256, seconds not tens of seconds):
//! every workload builds its world, audits pass, nothing fails, digests are
//! a function of the seed and nothing else — not of tracing — and the
//! command line keeps the contract `BENCHMARK.json` promises.

use std::process::Command;

use wow_perf::json::Json;
use wow_perf::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use wow_perf::runner::one_rep;
use wow_perf::sys;
use wow_perf::workloads::Size;

const SIMULATED: [&str; 4] = [
    "ring-maintain",
    "ring-transit",
    "join-storm",
    "vnet-transfer",
];

#[test]
fn digests_depend_on_the_seed_and_not_on_tracing() {
    for w in SIMULATED {
        let a = one_rep(w, 7, Size::Check, false).unwrap();
        let b = one_rep(w, 7, Size::Check, false).unwrap();
        let traced = one_rep(w, 7, Size::Check, true).unwrap();
        let other = one_rep(w, 8, Size::Check, false).unwrap();
        assert!(
            !a.digest.is_empty(),
            "{w}: simulated workloads print a digest"
        );
        assert_eq!(a.digest, b.digest, "{w}: same seed, same digest");
        assert_eq!(
            a.digest, traced.digest,
            "{w}: the span wrapper must not perturb the simulation"
        );
        assert_ne!(a.digest, other.digest, "{w}: another seed, another digest");
        for rep in [&a, &traced, &other] {
            assert!(rep.attempted > 0, "{w}: something was attempted");
            assert_eq!(rep.failed, 0, "{w}: no operation fails (audits included)");
        }
        assert!(
            traced.trace.is_some(),
            "{w}: a traced repetition carries its trace"
        );
    }
}

/// Run the binary as the driver does; returns (exit ok, parsed last line).
fn run_cli(args: &[&str]) -> (bool, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_wow-perf"))
        .args(args)
        .output()
        .expect("spawn wow-perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    (out.status.success(), Json::parse(last).ok())
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("result lacks metric {name}"))
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn command_line_keeps_the_contract_on_every_workload() {
    for w in &WORKLOADS {
        let base = [
            "--workload",
            w.name,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--check",
        ];

        let (ok, result) = run_cli(&[&base[..], &["--trace", "0"]].concat());
        let result = result.unwrap_or_else(|| panic!("{}: last line is not JSON", w.name));
        assert!(ok, "{}: untraced run exits 0", w.name);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys(result.get("metrics").unwrap()), names);
        for m in &END_TO_END {
            let v = metric(&result, m.name);
            assert!(v.is_finite() && v > 0.0, "{} / {} = {v}", w.name, m.name);
        }

        let (ok, layers) = run_cli(&[&base[..], &["--trace", "1"]].concat());
        let layers = layers.unwrap_or_else(|| panic!("{}: last line is not JSON", w.name));
        assert!(ok, "{}: traced run exits 0", w.name);
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(keys(layers.get("metrics").unwrap()), names);
        assert!(
            metric(&layers, "proc.threads") <= sys::nproc().max(2) as f64,
            "{}: never more threads than cores",
            w.name
        );

        // Mechanism and bypass, from counts.
        let on_vnet = w.name == "vnet-transfer";
        for layer in [
            "netsim.nat.mappings",
            "vnet.ipop.tunnelled",
            "netsim.nat.ns_per_translate",
        ] {
            assert_eq!(
                metric(&layers, layer) > 0.0,
                on_vnet,
                "{}: {layer} is non-zero exactly on vnet-transfer",
                w.name
            );
        }
        match w.name {
            "ring-transit" => assert!(metric(&layers, "overlay.node.transit_share") >= 0.5),
            "ring-maintain" => assert!(metric(&layers, "overlay.node.transit_share") <= 0.15),
            "join-storm" => {
                assert!(metric(&layers, "overlay.wire.routed_app_share") < 0.5);
                assert_eq!(metric(&layers, "wow.join.in_window_share"), 1.0);
            }
            "live-ring" => assert!(metric(&layers, "wow.udprt.flush_ns_per_frame_32") > 0.0),
            _ => {}
        }
        if w.name != "live-ring" {
            assert!(metric(&layers, "netsim.sim.events") > 0.0);
        }
    }
}

#[test]
fn refuses_what_it_cannot_run() {
    assert!(!run_cli(&[]).0, "no arguments: usage, not success");
    assert!(!run_cli(&["--workload", "no-such", "--trace", "0"]).0);
    assert!(!run_cli(&["compare", "only-one.json"]).0);
}

#[test]
fn benchmark_json_is_the_manifest_and_within_the_contracts_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        metrics::manifest(),
        "regenerate with `wow-perf manifest > BENCHMARK.json`"
    );

    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        assert!(
            name_ok(w.name) && seen.insert(w.name),
            "workload name {}",
            w.name
        );
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            name_ok(m.name) && seen.insert(m.name),
            "metric name {}",
            m.name
        );
        assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == metrics::Better::Lower));
}
