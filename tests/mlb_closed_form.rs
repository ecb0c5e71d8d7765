//! Differential test of `mixer_lower_bound`, the paper's `Mlb`.
//!
//! The engine once found `Mlb` by search: an HLF (`oms_schedule`) run for
//! m = 1, 2, … until the makespan met the critical path, capped at the
//! widest structural level. `searched_mlb` keeps that loop as the
//! reference. The closed form — Hu's counting bound maxₖ ⌈Nₖ / k⌉ over
//! the k highest Hu levels — must give the same answer on every MinMix
//! tree of the paper corpus, of `corpus(16, 2..=10)`, `corpus(64, 2..=6)`
//! and `corpus(128, 2..=4)` (all coprime-only), and of the Table 2
//! examples: 44,983 trees in all.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmfstream::mixalgo::{MinMix, MixingAlgorithm, Mtcs};
use dmfstream::mixgraph::MixGraph;
use dmfstream::ratio::TargetRatio;
use dmfstream::sched::{critical_path, mixer_lower_bound, oms_schedule};
use dmfstream::workloads::{protocols, synthetic};
use std::collections::HashMap;

/// The search loop `mixer_lower_bound` replaced: the fewest mixers whose
/// HLF schedule meets the critical path.
fn searched_mlb(graph: &MixGraph) -> usize {
    let bound = critical_path(graph);
    let mut width = HashMap::new();
    for (_, node) in graph.iter() {
        *width.entry(node.level()).or_insert(0usize) += 1;
    }
    let max_width = width.values().copied().max().unwrap_or(1).max(1);
    for m in 1..=max_width {
        if oms_schedule(graph, m).unwrap().makespan() == bound {
            return m;
        }
    }
    max_width
}

fn trees() -> Vec<TargetRatio> {
    let mut targets = synthetic::paper_corpus();
    targets.extend(synthetic::corpus(16, 2..=10, true));
    targets.extend(synthetic::corpus(64, 2..=6, true));
    targets.extend(synthetic::corpus(128, 2..=4, true));
    targets.extend(protocols::table2_examples().into_iter().map(|p| p.ratio));
    targets
}

#[test]
fn closed_form_equals_the_search_on_every_minmix_tree() {
    let targets = trees();
    assert_eq!(targets.len(), 44_983);
    for target in &targets {
        let tree = MinMix.build_graph(target).unwrap();
        assert_eq!(mixer_lower_bound(&tree), searched_mlb(&tree), "{target}");
    }
}

#[test]
fn closed_form_is_a_lower_bound_on_shared_subgraph_dags() {
    // On a DAG the counting bound is only necessary: HLF may need more.
    for target in synthetic::sampled_corpus(300, 34) {
        let dag = Mtcs.build_graph(&target).unwrap();
        assert!(mixer_lower_bound(&dag) <= searched_mlb(&dag), "{target}");
    }
}
