//! # wow-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§V), each
//! runnable at paper scale via its binary (`cargo run --release -p
//! wow-bench --bin <name>`) or at reduced scale with `--quick`.
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for measured
//! vs. paper numbers.

#![warn(missing_docs)]

pub mod ablate;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod joinstorm;
pub mod report;
pub mod roles;
pub mod scale;
pub mod table2;
pub mod table3;
pub mod transit;
