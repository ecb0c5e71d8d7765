//! Fingerprints of every schedule the five schedulers emit: HLF
//! (`oms_schedule`), MMS, SRS, path and GA, over Table 2's Ex.1–Ex.5 and
//! a seeded corpus sample.
//!
//! Each target is built with MinMix, RMA and MTCS (MTCS shares subtrees,
//! so its graphs are DAGs). Every base graph and every forest at
//! D ∈ {2, 16, 20, 32} is scheduled on Mc ∈ {1, 2, 3, 5} mixers; the GA,
//! the slow one, runs a small configuration on D ∈ {2, 16} × Mc ∈ {2, 3}.
//! Every schedule's `(cycle, mixer)` assignments and makespan are folded
//! into one FNV-1a digest per (target set, algorithm, scheduler) and
//! compared with the pinned value, so any change to a pick rule or to the
//! shared list-scheduling loop shows up here.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmf_hash::Fnv64;
use dmfstream::forest::{build_forest, ReusePolicy};
use dmfstream::mixalgo::{AlgorithmId, MixingAlgorithm};
use dmfstream::mixgraph::MixGraph;
use dmfstream::ratio::TargetRatio;
use dmfstream::sched::{
    ga_schedule, mms_schedule, oms_schedule, path_schedule, srs_schedule, GaConfig, Schedule,
};
use dmfstream::workloads::{protocols, synthetic};
use std::hash::Hasher;

const ALGORITHMS: [AlgorithmId; 3] = [AlgorithmId::MinMix, AlgorithmId::Rma, AlgorithmId::Mtcs];
const DEMANDS: [u64; 4] = [2, 16, 20, 32];
const MIXERS: [usize; 4] = [1, 2, 3, 5];
const GA_DEMANDS: [u64; 2] = [2, 16];
const GA_MIXERS: [usize; 2] = [2, 3];
const SCHEDULERS: [&str; 5] = ["hlf", "mms", "srs", "path", "ga"];

/// `(target set, algorithm, scheduler, digest)`, recorded on the five
/// hand-written scheduling loops that the shared list-scheduling core
/// replaced.
const EXPECTED: &[(&str, &str, &str, u64)] = &[
    ("table2", "mm", "hlf", 0x302d2c6f34614935),
    ("table2", "mm", "mms", 0xd8115a7226b35e21),
    ("table2", "mm", "srs", 0xe68fdb80b20c6d9c),
    ("table2", "mm", "path", 0xf74b0a6b8c22a358),
    ("table2", "mm", "ga", 0x87284135077f7d10),
    ("table2", "rma", "hlf", 0x3f720b34a4606f1f),
    ("table2", "rma", "mms", 0x51c4952835bce626),
    ("table2", "rma", "srs", 0xf5a76be2c3ea128d),
    ("table2", "rma", "path", 0xd3ccd42d8eb2e334),
    ("table2", "rma", "ga", 0xd8bdff9e6eb0e4e4),
    ("table2", "mtcs", "hlf", 0x5baa6529715a33a9),
    ("table2", "mtcs", "mms", 0xf582f410dd4393d2),
    ("table2", "mtcs", "srs", 0xd2b710eee210025a),
    ("table2", "mtcs", "path", 0x6812987c89645a7a),
    ("table2", "mtcs", "ga", 0x80702244af459dc0),
    ("corpus", "mm", "hlf", 0xc814a2699a6175c4),
    ("corpus", "mm", "mms", 0xbabf978ddfcdfa01),
    ("corpus", "mm", "srs", 0xdf6ad39b940d767a),
    ("corpus", "mm", "path", 0xdd0c2c82d4b6bf01),
    ("corpus", "mm", "ga", 0xc4b69bd5faa24376),
    ("corpus", "rma", "hlf", 0x66317e62e25e0925),
    ("corpus", "rma", "mms", 0x72402bdff88736ed),
    ("corpus", "rma", "srs", 0x43b19a578cbab409),
    ("corpus", "rma", "path", 0x81d8e411407831cc),
    ("corpus", "rma", "ga", 0x6799680fb13add6c),
    ("corpus", "mtcs", "hlf", 0xc7e372e7e9e901db),
    ("corpus", "mtcs", "mms", 0x0e441226856e2be3),
    ("corpus", "mtcs", "srs", 0x4262e958c82df99d),
    ("corpus", "mtcs", "path", 0x6aa6194f234bf338),
    ("corpus", "mtcs", "ga", 0xef70a3b7bbe1b15c),
];

/// The base graph and the forests of every grid demand, for `target`
/// under `algo`; forests of subgraph-sharing algorithms reuse eagerly, as
/// the engine builds them.
fn graphs(algo: AlgorithmId, target: &TargetRatio) -> (MixGraph, Vec<(u64, MixGraph)>) {
    let base = algo.build_graph(target).unwrap();
    let template = algo.build_template(target).unwrap();
    let policy =
        if algo.shares_subgraphs() { ReusePolicy::Eager } else { ReusePolicy::AcrossTrees };
    let forests =
        DEMANDS.iter().map(|&d| (d, build_forest(&template, target, d, policy).unwrap())).collect();
    (base, forests)
}

fn fold(h: &mut Fnv64, schedule: &Schedule) {
    h.write_u64(schedule.len() as u64);
    for (cycle, mixer) in schedule.assignments() {
        h.write_u32(cycle);
        h.write_u32(mixer);
    }
    h.write_u32(schedule.makespan());
}

/// One digest per scheduler over every graph of `targets` under `algo`.
fn digests(algo: AlgorithmId, targets: &[TargetRatio]) -> [u64; 5] {
    let mut hashers = [Fnv64::new(); 5];
    let ga = GaConfig { population: 6, generations: 3, ..GaConfig::default() };
    for target in targets {
        let (base, forests) = graphs(algo, target);
        let all = std::iter::once((0, &base)).chain(forests.iter().map(|(d, g)| (*d, g)));
        for (demand, graph) in all {
            for mixers in MIXERS {
                let schedules = [
                    oms_schedule(graph, mixers).unwrap(),
                    mms_schedule(graph, mixers).unwrap(),
                    srs_schedule(graph, mixers).unwrap(),
                    path_schedule(graph, mixers).unwrap(),
                ];
                for (h, s) in hashers.iter_mut().zip(&schedules) {
                    s.validate(graph).unwrap();
                    fold(h, s);
                }
                let ga_cell =
                    (demand == 0 || GA_DEMANDS.contains(&demand)) && GA_MIXERS.contains(&mixers);
                if ga_cell {
                    let s = ga_schedule(graph, mixers, &ga).unwrap();
                    s.validate(graph).unwrap();
                    fold(&mut hashers[4], &s);
                }
            }
        }
    }
    hashers.map(|h| h.finish())
}

#[test]
fn every_schedule_matches_its_fingerprint() {
    let table2: Vec<TargetRatio> =
        protocols::table2_examples().into_iter().map(|p| p.ratio).collect();
    let sets = [("table2", table2), ("corpus", synthetic::sampled_corpus(24, 34))];
    let mut actual = Vec::new();
    for (set, targets) in &sets {
        for algo in ALGORITHMS {
            for (scheduler, digest) in SCHEDULERS.iter().zip(digests(algo, targets)) {
                actual.push((*set, algo.key(), *scheduler, digest));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(set, algo, scheduler, d)| {
            format!("    ({set:?}, {algo:?}, {scheduler:?}, 0x{d:016x}),\n")
        })
        .collect();
    assert_eq!(actual, EXPECTED.to_vec(), "fingerprints moved; the current table is:\n{table}");
}
