//! Regenerate the churn-recovery artefacts: kill-k self-healing across a
//! seed matrix (repair times, fault transcripts, merged telemetry).
//! `--quick` runs two seeds on a smaller ring; `--restart` brings victims
//! back after 30 s so they must rejoin.

use wow::churn::{run, ChurnConfig};
use wow_bench::report::{banner, r1, write_csv, Table};
use wow_netsim::prelude::SimDuration;
use wow_overlay::prelude::Counter;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let restart = std::env::args().any(|a| a == "--restart");
    let (seeds, nodes, kill, batches): (&[u64], _, _, _) = if quick {
        (&[0xC4A0, 0xC4A1], 10, 2, 1)
    } else {
        (&[0xC4A0, 0xC4A1, 0xC4A2, 0xC4A3], 16, 3, 2)
    };
    let cfg = ChurnConfig {
        nodes,
        kill,
        batches,
        restart_after: restart.then(|| SimDuration::from_secs(30)),
        ..ChurnConfig::default()
    };
    banner(
        "Churn -- kill-k self-healing, seed matrix",
        "ring re-forms after simultaneous node failures; repair bounded by the audit window",
    );
    println!(
        "config: {} nodes, kill {} x {} batches, seeds {:?}, restart {:?}\n",
        cfg.nodes, cfg.kill, cfg.batches, seeds, cfg.restart_after
    );
    let outcomes: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut scenario = cfg.clone();
            scenario.seed = seed;
            (seed, run(&scenario))
        })
        .collect();

    let mut t = Table::new(&["seed", "batch", "killed", "repair (s)", "live", "ok"]);
    let mut recovery_rows = Vec::new();
    for (seed, outcome) in &outcomes {
        for b in &outcome.batches {
            let repair = b.repair_secs();
            let ok = b.repaired_at.is_some();
            t.row(&[
                &format!("{seed:#x}"),
                &b.batch,
                &b.killed.len(),
                &repair.map(r1).map_or("-".to_string(), |s| s.to_string()),
                &b.last_report.live,
                &ok,
            ]);
            recovery_rows.push(format!(
                "{seed:#x},{},{},{},{},{}",
                b.batch,
                b.killed.len(),
                repair.map_or("".to_string(), |s| format!("{s:.1}")),
                b.last_report.live,
                ok
            ));
        }
    }
    t.print();
    for (seed, outcome) in &outcomes {
        println!(
            "seed {seed:#x}: initial audit {}, healed {}, transcript {} faults, near links lost/relinked {}/{}",
            if outcome.initial_ok { "ok" } else { "FAILED" },
            outcome.healed(),
            outcome.transcript.len(),
            outcome.counters.get(Counter::NearLost),
            outcome.counters.get(Counter::NearLinked),
        );
    }
    write_csv(
        "churn_recovery.csv",
        "seed,batch,killed,repair_s,live,ok",
        recovery_rows,
    );
    let header = std::iter::once("seed".to_string())
        .chain(Counter::ALL.iter().map(|c| c.name().to_string()))
        .collect::<Vec<_>>()
        .join(",");
    write_csv(
        "churn_counters.csv",
        &header,
        outcomes.iter().map(|(seed, outcome)| {
            std::iter::once(format!("{seed:#x}"))
                .chain(outcome.counters.iter().map(|(_, v)| v.to_string()))
                .collect::<Vec<_>>()
                .join(",")
        }),
    );
    assert!(
        outcomes.iter().all(|(_, outcome)| outcome.healed()),
        "a churn scenario failed to heal in bound"
    );
    println!(
        "\nall {} scenarios healed within the repair bound",
        outcomes.len()
    );
}
