use crate::{ClassId, ClassTable, GraphError, MixGraph, MixNode, NodeId, Operand};
use dmf_ratio::{Mixture, TargetRatio};
use std::sync::Arc;

/// Incremental constructor for [`MixGraph`].
///
/// Vertices must be added operands-first, which makes the resulting graph
/// acyclic by construction. Component trees are declared by calling
/// [`GraphBuilder::finish_tree`] with each tree's root, in emission order.
///
/// # Examples
///
/// ```
/// use dmf_mixgraph::{GraphBuilder, Operand};
/// use dmf_ratio::{FluidId, TargetRatio};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 3:1 dilution of fluid 0 in fluid 1 (d = 2).
/// let target = TargetRatio::new(vec![3, 1])?;
/// let mut b = GraphBuilder::new(2);
/// let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1)))?;
/// let root = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half))?;
/// b.finish_tree(root);
/// let graph = b.finish(&target)?;
/// assert_eq!(graph.stats().mix_splits, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    table: Arc<ClassTable>,
    nodes: Vec<MixNode>,
    consumed: Vec<u8>,
    roots: Vec<NodeId>,
    current_tree: u32,
}

impl GraphBuilder {
    /// Starts a builder over a fluid set of `fluid_count` reagents, with a
    /// fresh class table.
    pub fn new(fluid_count: usize) -> Self {
        GraphBuilder::with_table(Arc::new(ClassTable::new(fluid_count)))
    }

    /// Starts a builder over an existing class table — typically a
    /// template's, so that every mix of a rebuild of that template is
    /// already in the table's pair memo. The table is copied only if this
    /// builder mixes a pair the table has not seen.
    pub fn with_table(table: Arc<ClassTable>) -> Self {
        GraphBuilder {
            table,
            nodes: Vec::new(),
            consumed: Vec::new(),
            roots: Vec::new(),
            current_tree: 0,
        }
    }

    /// The class table this builder resolves contents in.
    pub fn class_table(&self) -> &Arc<ClassTable> {
        &self.table
    }

    /// Number of vertices added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many of vertex `id`'s two droplets are already consumed.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn consumed(&self, id: NodeId) -> u8 {
        self.consumed[id.index()]
    }

    /// The mixture a vertex produces.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn mixture(&self, id: NodeId) -> &Mixture {
        &self.table[self.nodes[id.index()].class]
    }

    /// Adds a (1:1) mix-split vertex over two operands and returns its id.
    ///
    /// The new vertex belongs to the component tree currently under
    /// construction. Consuming a droplet operand uses up one of the
    /// producer's two output droplets. The vertex's content class comes
    /// from the class table's pair memo; [`Mixture::mix`] runs only for an
    /// operand-class pair the table has not seen.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for an operand id that was not
    /// produced by this builder, [`GraphError::OverconsumedDroplet`] when a
    /// producer's two droplets are already spoken for, and
    /// [`GraphError::Ratio`] for fluid-set mismatches.
    pub fn mix(&mut self, left: Operand, right: Operand) -> Result<NodeId, GraphError> {
        let (left_class, left_level) = self.operand_info(left)?;
        let (right_class, right_level) = self.operand_info(right)?;
        // Check capacity before consuming anything so errors are atomic.
        for op in [left, right] {
            if let Operand::Droplet(id) = op {
                let budget = if left == right { 2 } else { 1 };
                if self.consumed[id.index()] + budget > 2 {
                    return Err(GraphError::OverconsumedDroplet { node: id });
                }
            }
        }
        let class = match self.table.mixed(left_class, right_class) {
            Some(class) => class,
            None => Arc::make_mut(&mut self.table)
                .mix(left_class, right_class)
                .map_err(GraphError::Ratio)?,
        };
        for op in [left, right] {
            if let Operand::Droplet(id) = op {
                self.consumed[id.index()] += 1;
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(MixNode {
            left,
            right,
            class,
            level: left_level.max(right_level) + 1,
            tree: self.current_tree,
        });
        self.consumed.push(0);
        Ok(id)
    }

    /// Declares `root` as the root of the component tree currently under
    /// construction and starts the next tree.
    ///
    /// # Panics
    ///
    /// Panics if `root` was not produced by this builder.
    pub fn finish_tree(&mut self, root: NodeId) {
        assert!(root.index() < self.nodes.len(), "root must exist");
        self.roots.push(root);
        self.current_tree += 1;
    }

    /// Hands over the class table and the vertices added so far, without
    /// declaring trees or validating anything — how a mixing-tree
    /// template captures the tree an algorithm built.
    pub fn into_parts(self) -> (Arc<ClassTable>, Vec<MixNode>) {
        (self.table, self.nodes)
    }

    /// Finalises the graph, checking droplet conservation and that every
    /// root realises `target`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NoTrees`] when no tree was finished,
    /// [`GraphError::RootConsumed`] / [`GraphError::DanglingNode`] /
    /// [`GraphError::WrongTarget`] for conservation violations.
    pub fn finish(self, target: &TargetRatio) -> Result<MixGraph, GraphError> {
        let class = self.table.find(&target.to_mixture());
        let targets = vec![class; self.roots.len()];
        self.finish_with_classes(targets)
    }

    /// Finalises a *multi-target* graph: component tree `i` must realise
    /// `targets[i]`. This is the SDMT generalisation (one droplet pair per
    /// target over several targets) that the dilution-gradient literature
    /// needs; single-target callers should use [`GraphBuilder::finish`].
    ///
    /// # Errors
    ///
    /// As [`GraphBuilder::finish`]; additionally [`GraphError::NoTrees`]
    /// when `targets.len()` differs from the number of finished trees.
    pub fn finish_multi<'t>(
        self,
        targets: impl IntoIterator<Item = &'t TargetRatio>,
    ) -> Result<MixGraph, GraphError> {
        let classes = targets.into_iter().map(|t| self.table.find(&t.to_mixture())).collect();
        self.finish_with_classes(classes)
    }

    /// Finalises against one target class per finished tree (`None` for a
    /// target content the table does not hold, which no root can realise).
    ///
    /// Every content came from the class table's arithmetic, so only the
    /// O(n) conservation checks run here: consumption ≤ 2, no dangling
    /// vertex, roots unconsumed and each root's class equal to its tree's
    /// target class. [`MixGraph::validate`] re-derives the arithmetic too.
    fn finish_with_classes(self, targets: Vec<Option<ClassId>>) -> Result<MixGraph, GraphError> {
        if self.roots.is_empty() || targets.len() != self.roots.len() {
            return Err(GraphError::NoTrees);
        }
        // A target outside the table gets a class no vertex has, so the
        // root check below reports it as a wrong target, in arena order.
        let targets = targets.into_iter().map(|c| c.unwrap_or(ClassId(u32::MAX))).collect();
        let graph = MixGraph::assemble(self.table, self.nodes, self.roots, targets);
        for (id, node) in graph.iter() {
            graph.check_conservation(id, node)?;
        }
        Ok(graph)
    }

    /// Content class and level of an operand.
    fn operand_info(&self, op: Operand) -> Result<(ClassId, u32), GraphError> {
        match op {
            Operand::Input(f) => Ok((self.table.pure(f).map_err(GraphError::Ratio)?, 0)),
            Operand::Droplet(id) => match self.nodes.get(id.index()) {
                Some(node) => Ok((node.class, node.level)),
                None => Err(GraphError::UnknownNode { node: id }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_ratio::FluidId;

    #[test]
    fn rejects_unknown_operand() {
        let mut b = GraphBuilder::new(2);
        let err = b.mix(Operand::Droplet(NodeId(7)), Operand::Input(FluidId(0))).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode { node: NodeId(7) });
    }

    #[test]
    fn rejects_third_consumption() {
        let mut b = GraphBuilder::new(2);
        let a = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.mix(Operand::Droplet(a), Operand::Input(FluidId(0))).unwrap();
        b.mix(Operand::Droplet(a), Operand::Input(FluidId(1))).unwrap();
        let err = b.mix(Operand::Droplet(a), Operand::Input(FluidId(0))).unwrap_err();
        assert_eq!(err, GraphError::OverconsumedDroplet { node: a });
    }

    #[test]
    fn self_mix_consumes_both_droplets() {
        // Mixing a node's two droplets with each other is physically valid
        // (it reproduces the same mixture) and must consume both outputs.
        let mut b = GraphBuilder::new(2);
        let a = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let s = b.mix(Operand::Droplet(a), Operand::Droplet(a)).unwrap();
        assert_eq!(b.consumed(a), 2);
        assert_eq!(b.mixture(s), b.mixture(a));
    }

    #[test]
    fn finish_rejects_dangling_nodes() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let orphan = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        let err = b.finish(&target).unwrap_err();
        assert_eq!(err, GraphError::DanglingNode { node: orphan });
    }

    #[test]
    fn finish_rejects_wrong_target() {
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        let err = b.finish(&target).unwrap_err();
        assert_eq!(err, GraphError::WrongTarget { node: root });
    }

    #[test]
    fn finish_requires_a_tree() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let b = GraphBuilder::new(2);
        assert_eq!(b.finish(&target).unwrap_err(), GraphError::NoTrees);
    }
}
