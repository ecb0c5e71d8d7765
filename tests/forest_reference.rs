//! Differential test: the library's forest construction against a
//! reference builder.
//!
//! The `reference` module is a test-only copy of the construction the
//! workspace used while every mixing-graph vertex owned its `Mixture`: a
//! builder whose `mix` computes each vertex's content by exact dyadic
//! arithmetic, a waste pool keyed by `Mixture`, and the recursive rebuild
//! over a boxed template tree. Every forest, base tree, multi-target forest
//! and dilution gradient the library builds must match it node for node:
//! operands, level, tree, mixture, consumer lists, roots and targets.
//!
//! The reference reads only the *structure* of a template (its verbatim
//! lowering, `materialize(.., false)`) and derives every mixture itself.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmfstream::dilution::dilution_gradient;
use dmfstream::forest::{build_forest, build_multi_target_forest, ReusePolicy};
use dmfstream::mixalgo::{
    dilution_ratio, materialize, MinMix, MixingAlgorithm, Mtcs, Rma, Rsm, Template,
};
use dmfstream::mixgraph::MixGraph;
use dmfstream::ratio::{Mixture, TargetRatio};
use dmfstream::workloads::{protocols, synthetic};

mod reference {
    use dmfstream::mixgraph::{MixGraph, NodeId, Operand};
    use dmfstream::ratio::{FluidId, Mixture, TargetRatio};
    use std::borrow::Cow;
    use std::collections::{HashMap, VecDeque};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Node {
        pub left: Operand,
        pub right: Operand,
        pub mixture: Mixture,
        pub level: u32,
        pub tree: u32,
    }

    #[derive(Debug)]
    pub struct Graph {
        pub nodes: Vec<Node>,
        pub roots: Vec<NodeId>,
        pub consumers: Vec<Vec<NodeId>>,
        pub targets: Vec<Mixture>,
    }

    pub struct Builder {
        fluid_count: usize,
        nodes: Vec<Node>,
        consumed: Vec<u8>,
        roots: Vec<NodeId>,
        current_tree: u32,
    }

    impl Builder {
        pub fn new(fluid_count: usize) -> Self {
            Builder {
                fluid_count,
                nodes: Vec::new(),
                consumed: Vec::new(),
                roots: Vec::new(),
                current_tree: 0,
            }
        }

        pub fn mix(&mut self, left: Operand, right: Operand) -> NodeId {
            let (left_mix, left_level) = self.operand_info(left);
            let (right_mix, right_level) = self.operand_info(right);
            for op in [left, right] {
                if let Operand::Droplet(id) = op {
                    let budget = if left == right { 2 } else { 1 };
                    assert!(self.consumed[id.index()] + budget <= 2, "overconsumed {id}");
                }
            }
            let mixture = left_mix.mix(right_mix.as_ref()).unwrap();
            for op in [left, right] {
                if let Operand::Droplet(id) = op {
                    self.consumed[id.index()] += 1;
                }
            }
            let id = NodeId::new(self.nodes.len() as u32);
            self.nodes.push(Node {
                left,
                right,
                mixture,
                level: left_level.max(right_level) + 1,
                tree: self.current_tree,
            });
            self.consumed.push(0);
            id
        }

        pub fn finish_tree(&mut self, root: NodeId) {
            assert!(root.index() < self.nodes.len(), "root must exist");
            self.roots.push(root);
            self.current_tree += 1;
        }

        pub fn finish(self, targets: Vec<Mixture>) -> Graph {
            assert!(!self.roots.is_empty() && targets.len() == self.roots.len());
            let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
            for (i, node) in self.nodes.iter().enumerate() {
                for op in [node.left, node.right] {
                    if let Operand::Droplet(src) = op {
                        consumers[src.index()].push(NodeId::new(i as u32));
                    }
                }
            }
            let graph = Graph { nodes: self.nodes, roots: self.roots, consumers, targets };
            for (i, node) in graph.nodes.iter().enumerate() {
                let is_root = graph.roots.get(node.tree as usize).map(|r| r.index()) == Some(i);
                let consumers = graph.consumers[i].len();
                if is_root {
                    assert_eq!(consumers, 0, "root n{i} consumed");
                    assert_eq!(node.mixture, graph.targets[node.tree as usize], "root n{i}");
                } else {
                    assert!((1..=2).contains(&consumers), "n{i} has {consumers} consumers");
                }
            }
            graph
        }

        fn operand_info(&self, op: Operand) -> (Cow<'_, Mixture>, u32) {
            match op {
                Operand::Input(f) => {
                    (Cow::Owned(Mixture::try_pure(f.0, self.fluid_count).unwrap()), 0)
                }
                Operand::Droplet(id) => {
                    let node = &self.nodes[id.index()];
                    (Cow::Borrowed(&node.mixture), node.level)
                }
            }
        }
    }

    #[derive(Default)]
    pub struct Pool {
        available: HashMap<Mixture, VecDeque<NodeId>>,
        staged: Vec<(Mixture, NodeId)>,
    }

    impl Pool {
        fn offer(&mut self, mixture: &Mixture, node: NodeId, eager: bool) {
            if eager {
                if let Some(queue) = self.available.get_mut(mixture) {
                    queue.push_back(node);
                } else {
                    self.available.insert(mixture.clone(), VecDeque::from([node]));
                }
            } else {
                self.staged.push((mixture.clone(), node));
            }
        }

        fn take(&mut self, mixture: &Mixture) -> Option<NodeId> {
            let queue = self.available.get_mut(mixture)?;
            let id = queue.pop_front()?;
            if queue.is_empty() {
                self.available.remove(mixture);
            }
            Some(id)
        }

        pub fn commit(&mut self) {
            for (mixture, node) in self.staged.drain(..) {
                self.available.entry(mixture).or_default().push_back(node);
            }
        }
    }

    /// A boxed template tree with precomputed droplet contents.
    pub enum Template {
        Leaf { fluid: FluidId },
        Mix { left: Box<Template>, right: Box<Template>, mixture: Mixture },
    }

    impl Template {
        /// The template whose verbatim lowering is `tree` (a single-tree
        /// graph), with every interior mixture derived by the reference's
        /// own arithmetic.
        pub fn from_tree(tree: &MixGraph) -> Template {
            assert_eq!(tree.tree_count(), 1);
            Template::from_operand(tree, Operand::Droplet(tree.roots()[0]))
        }

        fn from_operand(tree: &MixGraph, op: Operand) -> Template {
            match op {
                Operand::Input(fluid) => Template::Leaf { fluid },
                Operand::Droplet(id) => {
                    let node = tree.node(id);
                    let left = Template::from_operand(tree, node.left());
                    let right = Template::from_operand(tree, node.right());
                    let n = tree.fluid_count();
                    let mixture = left.mixture(n).mix(&right.mixture(n)).unwrap();
                    Template::Mix { left: Box::new(left), right: Box::new(right), mixture }
                }
            }
        }

        fn mixture(&self, fluid_count: usize) -> Mixture {
            match self {
                Template::Leaf { fluid } => Mixture::try_pure(fluid.0, fluid_count).unwrap(),
                Template::Mix { mixture, .. } => mixture.clone(),
            }
        }
    }

    pub fn rebuild_tree(
        template: &Template,
        builder: &mut Builder,
        pool: &mut Pool,
        eager: bool,
    ) -> NodeId {
        match rebuild_node(template, builder, pool, eager, true) {
            Operand::Droplet(id) => id,
            Operand::Input(_) => panic!("pure template"),
        }
    }

    fn rebuild_node(
        node: &Template,
        builder: &mut Builder,
        pool: &mut Pool,
        eager: bool,
        is_root: bool,
    ) -> Operand {
        match node {
            Template::Leaf { fluid } => Operand::Input(*fluid),
            Template::Mix { left, right, mixture } => {
                if !is_root {
                    if let Some(id) = pool.take(mixture) {
                        return Operand::Droplet(id);
                    }
                }
                let lo = rebuild_node(left, builder, pool, eager, false);
                let ro = rebuild_node(right, builder, pool, eager, false);
                let id = builder.mix(lo, ro);
                if !is_root {
                    pool.offer(mixture, id, eager);
                }
                Operand::Droplet(id)
            }
        }
    }

    /// One component tree per entry of `templates`, sharing one pool.
    pub fn forest(
        fluid_count: usize,
        templates: &[(&Template, &TargetRatio)],
        eager: bool,
    ) -> Graph {
        let mut builder = Builder::new(fluid_count);
        let mut pool = Pool::default();
        for (template, _) in templates {
            let root = rebuild_tree(template, &mut builder, &mut pool, eager);
            builder.finish_tree(root);
            if !eager {
                pool.commit();
            }
        }
        builder.finish(templates.iter().map(|(_, t)| t.to_mixture()).collect())
    }
}

/// Asserts that `graph` equals the reference graph node for node.
fn assert_matches(graph: &MixGraph, expected: &reference::Graph, what: &str) {
    assert_eq!(graph.node_count(), expected.nodes.len(), "{what}: node count");
    for (id, node) in graph.iter() {
        let want = &expected.nodes[id.index()];
        assert_eq!(
            (node.left(), node.right(), node.level(), node.tree()),
            (want.left, want.right, want.level, want.tree),
            "{what}: {id}"
        );
        assert_eq!(graph.mixture(id), &want.mixture, "{what}: mixture of {id}");
        assert_eq!(graph.consumers(id), &expected.consumers[id.index()][..], "{what}: {id}");
    }
    assert_eq!(graph.roots(), &expected.roots[..], "{what}: roots");
    let targets: Vec<&Mixture> = graph.targets().collect();
    let want: Vec<&Mixture> = expected.targets.iter().collect();
    assert_eq!(targets, want, "{what}: targets");
}

fn algorithms() -> [(&'static str, &'static dyn MixingAlgorithm); 4] {
    [("MM", &MinMix), ("RMA", &Rma), ("MTCS", &Mtcs), ("RSM", &Rsm)]
}

const DEMANDS: [u64; 8] = [1, 2, 3, 16, 20, 32, 64, 128];
const POLICIES: [ReusePolicy; 2] = [ReusePolicy::AcrossTrees, ReusePolicy::Eager];

fn targets() -> Vec<TargetRatio> {
    let mut targets: Vec<TargetRatio> =
        protocols::table2_examples().into_iter().map(|p| p.ratio).collect();
    targets.push(protocols::pcr_master_mix_d4().ratio);
    targets.extend(synthetic::sampled_corpus(24, 2014));
    targets
}

/// The reference template of `template`, read off its verbatim lowering.
fn reference_template(template: &Template, target: &TargetRatio) -> reference::Template {
    reference::Template::from_tree(&materialize(template, target, false).unwrap())
}

#[test]
fn forests_match_the_reference_builder() {
    for target in targets() {
        for (name, algorithm) in algorithms() {
            let template = algorithm.build_template(&target).unwrap();
            let expected_template = reference_template(&template, &target);
            let n = target.fluid_count();
            for share in [false, true] {
                let graph = materialize(&template, &target, share).unwrap();
                let expected = reference::forest(n, &[(&expected_template, &target)], share);
                assert_matches(&graph, &expected, &format!("{name} {target} share={share}"));
            }
            for policy in POLICIES {
                for demand in DEMANDS {
                    let forest = build_forest(&template, &target, demand, policy).unwrap();
                    let trees = demand.div_ceil(2) as usize;
                    let copies = vec![(&expected_template, &target); trees];
                    let expected = reference::forest(n, &copies, policy == ReusePolicy::Eager);
                    assert_matches(&forest, &expected, &format!("{name} {target} D={demand}"));
                }
            }
        }
    }
}

#[test]
fn multi_target_forests_match_the_reference_builder() {
    let corpus = synthetic::sampled_corpus(60, 7);
    let mut groups: Vec<Vec<TargetRatio>> = vec![synthetic::serial_dilution_series(6)];
    for fluids in 2..=6 {
        let group: Vec<TargetRatio> =
            corpus.iter().filter(|t| t.fluid_count() == fluids).take(4).cloned().collect();
        if group.len() > 1 {
            groups.push(group);
        }
    }
    for group in groups {
        let n = group[0].fluid_count();
        for (name, algorithm) in algorithms() {
            let pairs: Vec<(Template, TargetRatio)> =
                group.iter().map(|t| (algorithm.build_template(t).unwrap(), t.clone())).collect();
            let expected_templates: Vec<reference::Template> =
                pairs.iter().map(|(template, t)| reference_template(template, t)).collect();
            let refs: Vec<(&reference::Template, &TargetRatio)> =
                expected_templates.iter().zip(&group).collect();
            for policy in POLICIES {
                let forest = build_multi_target_forest(&pairs, policy).unwrap();
                let expected = reference::forest(n, &refs, policy == ReusePolicy::Eager);
                assert_matches(&forest, &expected, &format!("{name} multi {group:?} {policy}"));
            }
        }
    }
}

#[test]
fn dilution_gradients_match_the_reference_builder() {
    for (cfs, d) in [(vec![3, 5, 7, 9], 4), (vec![2, 4, 6, 8, 10, 12, 14], 4), (vec![1, 33, 17], 6)]
    {
        let (graph, _) = dilution_gradient(&cfs, d).unwrap();
        let targets: Vec<TargetRatio> =
            cfs.iter().map(|&k| dilution_ratio(k, d).unwrap()).collect();
        let templates: Vec<reference::Template> = targets
            .iter()
            .map(|t| reference_template(&MinMix.build_template(t).unwrap(), t))
            .collect();
        let refs: Vec<(&reference::Template, &TargetRatio)> =
            templates.iter().zip(&targets).collect();
        let expected = reference::forest(2, &refs, true);
        assert_matches(&graph, &expected, &format!("gradient {cfs:?}/2^{d}"));
    }
}
