//! Fingerprints of every simulated pass: Table 2's Ex.1–Ex.5 at
//! D ∈ {16, 32}, each run without pins and under the row-column and
//! broadcast backends.
//!
//! The `Display` totals of a [`SimReport`] leave out the per-electrode
//! wear heatmap and the ghost count, so a change to the simulator's
//! containers could move them unseen. Each pass's full report — every
//! counter and the heatmap sorted by coordinate — is folded into one
//! FNV-1a digest and compared with the pinned value.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmf_hash::Fnv64;
use dmfstream::chip::presets::streaming_chip;
use dmfstream::engine::{realize_pass, EngineConfig, StreamingEngine};
use dmfstream::pins::BackendKind;
use dmfstream::sim::{SimReport, Simulator};
use dmfstream::workloads::protocols;
use std::hash::Hasher;

const DEMANDS: [u64; 2] = [16, 32];
const BACKENDS: [Option<BackendKind>; 3] =
    [None, Some(BackendKind::RowColumn), Some(BackendKind::Broadcast)];

/// `(protocol, demand, backend, per-pass fingerprints)`, recorded on the
/// hashed-container simulator that the dense per-cell one replaced.
const EXPECTED: &[(&str, u64, &str, &[u64])] = &[
    ("Ex.1", 16, "none", &[0x5a6b8cd89d887f90]),
    ("Ex.1", 16, "row-column", &[0xda6093c86286bb4a]),
    ("Ex.1", 16, "broadcast", &[0xa68a24593e2a46cf]),
    ("Ex.1", 32, "none", &[0x7946ff0519848f12]),
    ("Ex.1", 32, "row-column", &[0xd727855f98f72fbd]),
    ("Ex.1", 32, "broadcast", &[0x16db04366b2b0fb2]),
    ("Ex.2", 16, "none", &[0x4f03eeee56431356]),
    ("Ex.2", 16, "row-column", &[0x381cb4358e02fb1a]),
    ("Ex.2", 16, "broadcast", &[0x19a85521bc043a0a]),
    ("Ex.2", 32, "none", &[0xd37fa416fba8d52a]),
    ("Ex.2", 32, "row-column", &[0xd27d42e8f76b698c]),
    ("Ex.2", 32, "broadcast", &[0x6650646b9fd5b7d6]),
    ("Ex.3", 16, "none", &[0x7baffc8194731e02]),
    ("Ex.3", 16, "row-column", &[0x289db91158ceca14]),
    ("Ex.3", 16, "broadcast", &[0x63d55a4a6fa71547]),
    ("Ex.3", 32, "none", &[0xfa92a377436c8621]),
    ("Ex.3", 32, "row-column", &[0x6ccc3deaccc8d584]),
    ("Ex.3", 32, "broadcast", &[0x9a15765e4f2c6354]),
    ("Ex.4", 16, "none", &[0x2f0ee8c59aea68e2]),
    ("Ex.4", 16, "row-column", &[0x0e2dfc8070f1bf49]),
    ("Ex.4", 16, "broadcast", &[0x5498d4ca08437b69]),
    ("Ex.4", 32, "none", &[0xec30dcac1f2ef235]),
    ("Ex.4", 32, "row-column", &[0xee556f5ffa78e4a2]),
    ("Ex.4", 32, "broadcast", &[0x2a9a30f48ad83f67]),
    ("Ex.5", 16, "none", &[0x8ff5a88ab2b73ca8]),
    ("Ex.5", 16, "row-column", &[0x56432b1ef805eb0e]),
    ("Ex.5", 16, "broadcast", &[0x127f263999dfb8e6]),
    ("Ex.5", 32, "none", &[0x18eb9ac8bedb97ac]),
    ("Ex.5", 32, "row-column", &[0x7ded7b80c60f3b98]),
    ("Ex.5", 32, "broadcast", &[0x676a43e68f684fa5]),
];

fn fingerprint(r: &SimReport) -> u64 {
    let mut h = Fnv64::new();
    for n in [
        r.transport_actuations,
        r.dispensed,
        r.mix_splits,
        r.emitted,
        r.discarded,
        r.storage_peak as u64,
        u64::from(r.cycles),
        r.ghost_actuations,
        r.faults_injected,
        r.faults_detected,
        r.droplets_lost,
    ] {
        h.write_u64(n);
    }
    let mut heatmap: Vec<_> = r.electrode_actuations.iter().collect();
    heatmap.sort_unstable();
    h.write_u64(heatmap.len() as u64);
    for (c, n) in heatmap {
        h.write_i32(c.x);
        h.write_i32(c.y);
        h.write_u32(*n);
    }
    h.finish()
}

#[test]
fn every_pass_report_matches_its_fingerprint() {
    let mut actual = Vec::new();
    for protocol in protocols::table2_examples() {
        for demand in DEMANDS {
            let plan = StreamingEngine::new(EngineConfig::default())
                .plan(&protocol.ratio, demand)
                .unwrap();
            let chip =
                streaming_chip(protocol.ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1))
                    .unwrap();
            for backend in BACKENDS {
                let pins = backend.map(|b| b.assign(&chip).unwrap());
                let prints: Vec<u64> = plan
                    .passes
                    .iter()
                    .map(|pass| {
                        let program = realize_pass(pass, &chip).unwrap();
                        let sim = Simulator::new(&chip);
                        let sim = match &pins {
                            Some(pins) => sim.with_pins(pins),
                            None => sim,
                        };
                        fingerprint(&sim.run(&program).unwrap())
                    })
                    .collect();
                let name = backend.map_or("none", BackendKind::name);
                actual.push((protocol.id, demand, name, prints));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(id, d, b, prints)| {
            let prints: Vec<String> = prints.iter().map(|p| format!("0x{p:016x}")).collect();
            format!("    ({id:?}, {d}, {b:?}, &[{}]),\n", prints.join(", "))
        })
        .collect();
    let expected: Vec<_> =
        EXPECTED.iter().map(|&(id, d, b, prints)| (id, d, b, prints.to_vec())).collect();
    assert_eq!(actual, expected, "fingerprints moved; the current table is:\n{table}");
}
