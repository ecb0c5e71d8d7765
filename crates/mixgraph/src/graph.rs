use crate::{ClassId, ClassTable, GraphError, GraphStats};
use dmf_ratio::{FluidId, Mixture};
use std::fmt;
use std::sync::Arc;

/// Identifier of a mix-split vertex inside a [`MixGraph`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw arena index.
    ///
    /// Only meaningful for ids obtained from the same graph/builder; useful
    /// for tests and serialisation layers.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operand of a (1:1) mix-split operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A fresh unit droplet dispensed from the reservoir of a pure reagent.
    Input(FluidId),
    /// A droplet produced by another mix-split vertex. This covers both
    /// parent-child edges inside one component tree and the cross-tree
    /// *waste-reuse* edges of a mixing forest (the paper's brown nodes).
    Droplet(NodeId),
}

/// One (1:1) mix-split operation: plain `Copy` data.
///
/// Executing the node merges its two operand droplets and splits the result
/// into **two** identical unit droplets. In a non-root node one or both of
/// those droplets feed consumer nodes and the remainder is waste; in a root
/// node both droplets are emitted target droplets.
///
/// The node names its content by a [`ClassId`] into its graph's
/// [`ClassTable`]; read the content itself with [`MixGraph::mixture`].
#[derive(Debug, Clone, Copy)]
pub struct MixNode {
    pub(crate) left: Operand,
    pub(crate) right: Operand,
    pub(crate) class: ClassId,
    pub(crate) level: u32,
    pub(crate) tree: u32,
}

impl MixNode {
    /// Builds a node from raw parts, without consistency checks.
    ///
    /// Together with [`MixGraph::from_raw_parts`] this allows external
    /// deserialisers — and deliberately corrupting test harnesses such as
    /// the `dmf-check` mutation suite — to assemble graphs that bypass
    /// [`crate::GraphBuilder`]'s validation. The node's content class is
    /// assigned when `from_raw_parts` interns the mixture paired with it.
    pub fn new(left: Operand, right: Operand, level: u32, tree: u32) -> Self {
        MixNode { left, right, class: ClassId(0), level, tree }
    }

    /// Left operand.
    pub fn left(&self) -> Operand {
        self.left
    }

    /// Right operand.
    pub fn right(&self) -> Operand {
        self.right
    }

    /// Both operands, left first.
    pub fn operands(&self) -> [Operand; 2] {
        [self.left, self.right]
    }

    /// Content class of each droplet the node produces, in its graph's
    /// (or builder's) [`ClassTable`].
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Structural level of the node: `max(level(operands)) + 1`, where
    /// reservoir inputs sit at level 0. In a depth-`d` base mixing tree the
    /// root has level `d` — the same convention as the paper's figures.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Index of the component tree this node belongs to (0-based; the
    /// paper's `T1` is tree 0).
    pub fn tree(&self) -> u32 {
        self.tree
    }
}

/// An immutable, validated mixing tree / mixing forest.
///
/// Construct one with [`crate::GraphBuilder`]. The graph is guaranteed to be
/// acyclic and droplet-conserving: every vertex produces exactly two unit
/// droplets, each consumed by at most two other vertices; root vertices are
/// never consumed (their droplets are the emitted targets).
///
/// Vertex contents live in a [`ClassTable`] shared through an `Arc`, so
/// cloning a graph copies its flat vertex, consumer and root arrays only.
/// Equality compares contents, not class numbering.
#[derive(Debug, Clone)]
pub struct MixGraph {
    pub(crate) table: Arc<ClassTable>,
    pub(crate) nodes: Vec<MixNode>,
    pub(crate) roots: Vec<NodeId>,
    /// Consumers of node `i` (in consumer order) are
    /// `consumer_ids[consumer_start[i]..consumer_start[i + 1]]`.
    pub(crate) consumer_start: Vec<u32>,
    pub(crate) consumer_ids: Vec<NodeId>,
    /// Target class of each component tree (all equal for MDST graphs).
    pub(crate) targets: Vec<ClassId>,
}

impl MixGraph {
    /// Assembles a graph from raw parts **without validation**: each node
    /// comes with the mixture it claims to produce, and the mixtures and
    /// targets are interned into a fresh class table. The consumer lists
    /// are derived from the node operands.
    ///
    /// [`crate::GraphBuilder`] remains the safe construction path; this
    /// constructor exists for deserialisation layers and for tests that
    /// need structurally corrupt graphs (e.g. pitting `dmf-check` against
    /// mutated artifacts). Call [`MixGraph::validate`] before executing a
    /// graph assembled this way.
    pub fn from_raw_parts(
        fluid_count: usize,
        nodes: Vec<(MixNode, Mixture)>,
        roots: Vec<NodeId>,
        targets: Vec<Mixture>,
    ) -> Self {
        let mut table = ClassTable::new(fluid_count);
        let nodes: Vec<MixNode> = nodes
            .into_iter()
            .map(|(node, mixture)| MixNode { class: table.intern(mixture), ..node })
            .collect();
        let targets = targets.into_iter().map(|m| table.intern(m)).collect();
        MixGraph::assemble(Arc::new(table), nodes, roots, targets)
    }

    /// A graph over `table` with its consumer lists derived from the node
    /// operands (operands naming no node are left out).
    pub(crate) fn assemble(
        table: Arc<ClassTable>,
        nodes: Vec<MixNode>,
        roots: Vec<NodeId>,
        targets: Vec<ClassId>,
    ) -> Self {
        let n = nodes.len();
        // Count each producer's consumers, make the counts inclusive
        // prefix sums (segment ends), then fill backwards so every segment
        // lists its consumers in arena order, left operand first.
        let producer = |op: Operand| match op {
            Operand::Droplet(src) if src.index() < n => Some(src.index()),
            _ => None,
        };
        let mut consumer_start = vec![0u32; n + 1];
        for node in &nodes {
            for src in node.operands().into_iter().filter_map(producer) {
                consumer_start[src] += 1;
            }
        }
        for i in 1..=n {
            consumer_start[i] += consumer_start[i - 1];
        }
        let mut consumer_ids = vec![NodeId(0); consumer_start[n] as usize];
        for (i, node) in nodes.iter().enumerate().rev() {
            for src in [node.right, node.left].into_iter().filter_map(producer) {
                consumer_start[src] -= 1;
                consumer_ids[consumer_start[src] as usize] = NodeId(i as u32);
            }
        }
        MixGraph { table, nodes, roots, consumer_start, consumer_ids, targets }
    }

    /// Number of fluids in the underlying fluid set.
    pub fn fluid_count(&self) -> usize {
        self.table.fluid_count()
    }

    /// The class table the graph's contents live in.
    pub fn class_table(&self) -> &Arc<ClassTable> {
        &self.table
    }

    /// The content each droplet of vertex `id` carries (canonicalised).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn mixture(&self, id: NodeId) -> &Mixture {
        &self.table[self.nodes[id.index()].class]
    }

    /// The target mixture of the first component tree (canonical form).
    /// For MDST graphs every tree shares this target; multi-target (SDMT)
    /// graphs expose the full list via [`MixGraph::targets`].
    ///
    /// # Panics
    ///
    /// Panics if the graph has no target.
    pub fn target(&self) -> &Mixture {
        &self.table[self.targets[0]]
    }

    /// Target mixtures, one per component tree.
    pub fn targets(&self) -> impl ExactSizeIterator<Item = &Mixture> + '_ {
        self.targets.iter().map(|&class| &self.table[class])
    }

    /// Number of mix-split vertices (`Tms` when applied to a full forest).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Accesses a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &MixNode {
        &self.nodes[id.index()]
    }

    /// Iterates over all vertices in arena (construction) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &MixNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The root vertices, one per component tree, in tree order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of component trees (`|F|`).
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Whether the vertex is the root of a component tree.
    pub fn is_root(&self, id: NodeId) -> bool {
        let tree = self.nodes[id.index()].tree;
        self.roots.get(tree as usize).copied() == Some(id)
    }

    /// Vertices that consume droplets produced by `id` (0–2 entries in a
    /// validated graph), in arena order.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.consumer_ids[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }

    /// Number of waste droplets contributed by vertex `id`
    /// (`2 - consumers`, or 0 for a root whose droplets are targets). An
    /// over-consumed vertex of an unvalidated graph contributes 0.
    pub fn waste_of(&self, id: NodeId) -> usize {
        if self.is_root(id) {
            0
        } else {
            2usize.saturating_sub(self.consumers(id).len())
        }
    }

    /// The vertices of component tree `tree`, in arena order.
    pub fn tree_nodes(&self, tree: u32) -> Vec<NodeId> {
        self.iter().filter(|(_, n)| n.tree == tree).map(|(id, _)| id).collect()
    }

    /// Depth of the graph: the maximum structural level over all vertices
    /// (equals the accuracy `d` for a well-formed base tree).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Breadth-first `m_ij` labels matching the paper's figures: vertex `j`
    /// of component tree `i` in left-to-right BFS order from the root
    /// (1-based, root is `m_{i,1}`).
    ///
    /// Cross-tree (reuse) operands are not traversed — they are leaves of the
    /// component tree, exactly as the brown nodes in Figs. 1–3. So are
    /// operands an unvalidated graph gets wrong: a vertex that does not
    /// exist or does not precede its consumer.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = vec![String::new(); self.nodes.len()];
        for (tree, &root) in self.roots.iter().enumerate() {
            if root.index() >= self.nodes.len() {
                continue;
            }
            let mut queue = std::collections::VecDeque::from([root]);
            let mut j = 1usize;
            while let Some(id) = queue.pop_front() {
                labels[id.index()] = format!("m{},{}", tree + 1, j);
                j += 1;
                for op in self.nodes[id.index()].operands() {
                    if let Operand::Droplet(child) = op {
                        let in_tree = child < id && self.nodes[child.index()].tree == tree as u32;
                        if in_tree {
                            queue.push_back(child);
                        }
                    }
                }
            }
        }
        labels
    }

    /// Full structural re-validation: droplet conservation, consumer limits,
    /// mixture arithmetic (every vertex's content re-derived from its
    /// operands) and root/target agreement. `GraphBuilder::finish` already
    /// guarantees these; this is exposed for tests and for graphs
    /// deserialised from external sources.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, node) in self.iter() {
            let left = self.operand_mixture(node.left)?;
            let right = self.operand_mixture(node.right)?;
            let mixed = left.mix(right).map_err(GraphError::Ratio)?;
            if mixed != self.table[node.class] {
                return Err(GraphError::MixtureMismatch { node: id });
            }
            self.check_conservation(id, node)?;
        }
        Ok(())
    }

    /// The O(1) conservation checks of one vertex: a root is unconsumed
    /// and realises its tree's target; any other vertex feeds one or two
    /// consumers.
    pub(crate) fn check_conservation(&self, id: NodeId, node: &MixNode) -> Result<(), GraphError> {
        let consumers = self.consumers(id).len();
        if self.is_root(id) {
            if consumers != 0 {
                return Err(GraphError::RootConsumed { node: id });
            }
            if self.targets.get(node.tree as usize) != Some(&node.class) {
                return Err(GraphError::WrongTarget { node: id });
            }
        } else {
            if consumers == 0 {
                return Err(GraphError::DanglingNode { node: id });
            }
            if consumers > 2 {
                return Err(GraphError::OverconsumedDroplet { node: id });
            }
        }
        Ok(())
    }

    /// Aggregate statistics (`Tms`, `W`, `I[]`, `I`, `|F|`, depth).
    pub fn stats(&self) -> GraphStats {
        GraphStats::collect(self)
    }

    /// The content an operand contributes, read from the class table.
    fn operand_mixture(&self, op: Operand) -> Result<&Mixture, GraphError> {
        match op {
            Operand::Input(f) => {
                let class = self.table.pure(f).map_err(GraphError::Ratio)?;
                Ok(&self.table[class])
            }
            Operand::Droplet(id) => match self.nodes.get(id.index()) {
                Some(node) => Ok(&self.table[node.class]),
                None => Err(GraphError::UnknownNode { node: id }),
            },
        }
    }
}

impl PartialEq for MixGraph {
    fn eq(&self, other: &Self) -> bool {
        let shared = Arc::ptr_eq(&self.table, &other.table);
        let same = |a: ClassId, b: ClassId| {
            if shared {
                a == b
            } else {
                self.table.get(a) == other.table.get(b)
            }
        };
        self.fluid_count() == other.fluid_count()
            && self.roots == other.roots
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                (a.left, a.right, a.level, a.tree) == (b.left, b.right, b.level, b.tree)
                    && same(a.class, b.class)
            })
            && self.targets.len() == other.targets.len()
            && self.targets.iter().zip(&other.targets).all(|(&a, &b)| same(a, b))
    }
}

impl Eq for MixGraph {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use dmf_ratio::TargetRatio;

    fn two_fluid_graph() -> MixGraph {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        b.finish(&target).unwrap()
    }

    #[test]
    fn accessors_cover_single_mix() {
        let g = two_fluid_graph();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.tree_count(), 1);
        assert_eq!(g.fluid_count(), 2);
        let root = g.roots()[0];
        assert!(g.is_root(root));
        assert_eq!(g.node(root).level(), 1);
        assert_eq!(g.waste_of(root), 0);
        assert_eq!(g.depth(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn labels_follow_bfs_order() {
        // Depth-2 tree over 4 fluids: root mixes two leaf-pair mixes.
        let target = TargetRatio::new(vec![1, 1, 1, 1]).unwrap();
        let mut b = GraphBuilder::new(4);
        let a = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let c = b.mix(Operand::Input(FluidId(2)), Operand::Input(FluidId(3))).unwrap();
        let root = b.mix(Operand::Droplet(a), Operand::Droplet(c)).unwrap();
        b.finish_tree(root);
        let g = b.finish(&target).unwrap();
        let labels = g.labels();
        assert_eq!(labels[root.index()], "m1,1");
        assert_eq!(labels[a.index()], "m1,2");
        assert_eq!(labels[c.index()], "m1,3");
    }

    fn mixture(parts: Vec<u64>, level: u32) -> Mixture {
        Mixture::new(level, parts).unwrap()
    }

    #[test]
    fn overconsumed_raw_graph_reports_instead_of_panicking() {
        // n0 = x1 + x2 feeds n1, n2 and the root n3: three consumers.
        let input = |f| Operand::Input(FluidId(f));
        let n0 = Operand::Droplet(NodeId(0));
        let nodes = vec![
            (MixNode::new(input(0), input(1), 1, 0), mixture(vec![1, 1], 1)),
            (MixNode::new(n0, input(0), 2, 0), mixture(vec![3, 1], 2)),
            (MixNode::new(n0, input(0), 2, 0), mixture(vec![3, 1], 2)),
            (MixNode::new(n0, Operand::Droplet(NodeId(1)), 3, 0), mixture(vec![5, 3], 3)),
        ];
        let g = MixGraph::from_raw_parts(2, nodes, vec![NodeId(3)], vec![mixture(vec![5, 3], 3)]);
        assert_eq!(g.consumers(NodeId(0)).len(), 3);
        assert_eq!(g.waste_of(NodeId(0)), 0);
        // n1 wastes one droplet, the unconsumed n2 both.
        assert_eq!(g.stats().waste, 3);
        assert_eq!(g.validate(), Err(GraphError::OverconsumedDroplet { node: NodeId(0) }));
    }

    #[test]
    fn dangling_operand_reports_instead_of_panicking() {
        let nodes = vec![(
            MixNode::new(Operand::Input(FluidId(0)), Operand::Droplet(NodeId(7)), 1, 0),
            mixture(vec![1, 1], 1),
        )];
        let g = MixGraph::from_raw_parts(2, nodes, vec![NodeId(0)], vec![mixture(vec![1, 1], 1)]);
        assert_eq!(g.labels(), vec!["m1,1".to_string()]);
        assert!(g.to_dot().contains("n7 -> n0"));
        assert_eq!(g.stats().input_total, 1);
        assert_eq!(g.validate(), Err(GraphError::UnknownNode { node: NodeId(7) }));
    }

    #[test]
    fn equality_compares_contents_not_class_numbers() {
        // A table that interned x2 + x3 first numbers x1 + x2 differently.
        let mut warm = GraphBuilder::new(3);
        warm.mix(Operand::Input(FluidId(1)), Operand::Input(FluidId(2))).unwrap();
        let (table, _) = warm.into_parts();
        let build = |mut b: GraphBuilder| {
            let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
            b.finish_tree(root);
            b.finish(&TargetRatio::new(vec![1, 1, 0]).unwrap()).unwrap()
        };
        let fresh = build(GraphBuilder::new(3));
        let shifted = build(GraphBuilder::with_table(table));
        let root = fresh.roots()[0];
        assert_ne!(fresh.node(root).class(), shifted.node(root).class());
        assert_eq!(fresh, shifted);
        // A clone shares the table instead of copying it.
        assert!(Arc::ptr_eq(fresh.clone().class_table(), fresh.class_table()));
    }

    #[test]
    fn levels_use_structural_height() {
        let target = TargetRatio::new(vec![1, 1, 2]).unwrap();
        let mut b = GraphBuilder::new(3);
        let inner = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let root = b.mix(Operand::Droplet(inner), Operand::Input(FluidId(2))).unwrap();
        b.finish_tree(root);
        let g = b.finish(&target).unwrap();
        assert_eq!(g.node(inner).level(), 1);
        assert_eq!(g.node(root).level(), 2);
    }
}
