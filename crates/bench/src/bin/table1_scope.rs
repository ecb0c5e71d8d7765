//! Table 1 — scope of earlier work versus the proposed streaming engine.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_mixalgo::{AlgorithmId, Capabilities};

fn cell(b: bool) -> &'static str {
    if b {
        "Yes"
    } else {
        "No"
    }
}

fn print_row(name: &str, c: Capabilities) {
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        name,
        cell(c.sdst_dilution),
        cell(c.sdst_mixing),
        cell(c.mdst_dilution),
        cell(c.mdst_mixing),
        cell(c.sdmt_dilution),
        cell(c.sdmt_mixing)
    );
}

fn main() {
    println!("Table 1: scope of mixing algorithms (paper taxonomy)\n");
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Algorithm", "SDST2", "SDST+", "MDST2", "MDST+", "SDMT2", "SDMT+"
    );
    for algorithm in AlgorithmId::BASELINES {
        print_row(algorithm.label(), algorithm.algorithm().capabilities());
    }
    print_row("Proposed", Capabilities::PROPOSED);
    println!("\n(2 = dilution N=2, + = mixing N>2; 'Proposed' is the streaming engine)");
}
