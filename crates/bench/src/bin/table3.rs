//! Regenerate Table III: fastDNAml-PVM execution times and speedups.

use wow_bench::report::{banner, r1, write_csv, Table};
use wow_bench::table3::{run, Table3Config};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Table3Config::quick()
    } else {
        Table3Config::default()
    };
    banner(
        "Table III -- fastDNAml-PVM execution times and speedups",
        "seq: 22272s (node002) / 45191s (node034); 15 nodes 2439s (9.1x); 30 nodes 2033s off / 1642s on (11.0x / 13.6x)",
    );
    println!(
        "config: scale {} x paper nominal work, {} routers\n",
        cfg.scale, cfg.routers
    );
    let cols = run(&cfg);
    let mut t = Table::new(&["configuration", "execution time (s)", "speedup vs node002"]);
    for c in &cols {
        let sp = c
            .speedup
            .map_or_else(|| "n/a".to_string(), |s| r1(s).to_string());
        t.row(&[&c.label, &r1(c.exec_secs), &sp]);
    }
    t.print();
    let on = cols
        .iter()
        .find(|c| c.label.contains("30") && c.label.contains("on"))
        .unwrap();
    let off = cols
        .iter()
        .find(|c| c.label.contains("30") && c.label.contains("off"))
        .unwrap();
    println!(
        "\nshortcuts make the 30-node run {:.0}% faster (paper: 24%)",
        100.0 * (off.exec_secs - on.exec_secs) / on.exec_secs
    );
    write_csv(
        "table3.csv",
        "configuration,exec_secs,speedup",
        cols.iter().map(|c| {
            format!(
                "{},{:.0},{}",
                c.label,
                c.exec_secs,
                c.speedup.map(|s| format!("{s:.1}")).unwrap_or_default()
            )
        }),
    );
}
