use crate::MixAlgoError;
use dmf_mixgraph::{ClassId, ClassTable, GraphBuilder, GraphError, NodeId, Operand};
use dmf_ratio::Mixture;
use std::sync::Arc;

/// A mixing tree with interned droplet contents, stored as a post-order
/// arena over a shared [`ClassTable`].
///
/// Templates are the intermediate representation between ratio-level
/// algorithms ([`crate::MinMix`], [`crate::Rma`], …) and the arena-backed
/// [`dmf_mixgraph::MixGraph`]: they capture *structure only*, so the same
/// template can be materialised once (a base tree) or replayed many times
/// against a waste-droplet pool (the mixing forest of the streaming engine).
///
/// An algorithm builds its tree with [`GraphBuilder::mix`] and hands the
/// builder to [`Template::new`]; every content is interned then, once. A
/// rebuild over the template's table ([`crate::rebuild_tree`]) only copies
/// template classes, so it never computes a mixture.
#[derive(Debug, Clone)]
pub struct Template {
    table: Arc<ClassTable>,
    /// The mix vertices, operands first; `Operand::Droplet(i)` names
    /// vertex `i` of this arena.
    pub(crate) nodes: Vec<TemplateNode>,
    /// The root: the last vertex, or a pure reagent for a leaf-only
    /// template.
    pub(crate) root: Operand,
    root_class: ClassId,
}

/// One mix vertex of a [`Template`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TemplateNode {
    pub(crate) left: Operand,
    pub(crate) right: Operand,
    pub(crate) class: ClassId,
    level: u32,
}

impl Template {
    /// Captures the tree `builder` holds, rooted at `root`.
    ///
    /// # Errors
    ///
    /// The vertices must form one tree under `root`: returns
    /// [`GraphError::UnknownNode`] for a root the builder did not produce,
    /// [`GraphError::RootConsumed`] when the root feeds a vertex,
    /// [`GraphError::DanglingNode`] / [`GraphError::OverconsumedDroplet`]
    /// for a vertex feeding no parent / more than one (all wrapped in
    /// [`MixAlgoError::Graph`]), and [`MixAlgoError::Ratio`] for a leaf
    /// root outside the fluid set.
    pub fn new(builder: GraphBuilder, root: Operand) -> Result<Template, MixAlgoError> {
        let (table, built) = builder.into_parts();
        let root_class = match root {
            Operand::Input(fluid) => table.pure(fluid)?,
            Operand::Droplet(id) => match built.get(id.index()) {
                Some(node) => node.class(),
                None => return Err(GraphError::UnknownNode { node: id }.into()),
            },
        };
        let mut parents = vec![0u32; built.len()];
        for node in &built {
            for op in node.operands() {
                if let Operand::Droplet(child) = op {
                    parents[child.index()] += 1;
                }
            }
        }
        for (i, &count) in parents.iter().enumerate() {
            let node = NodeId::new(i as u32);
            let expected = u32::from(root != Operand::Droplet(node));
            if count != expected {
                return Err(match (expected, count) {
                    (0, _) => GraphError::RootConsumed { node },
                    (_, 0) => GraphError::DanglingNode { node },
                    _ => GraphError::OverconsumedDroplet { node },
                }
                .into());
            }
        }
        let nodes = built
            .iter()
            .map(|n| TemplateNode {
                left: n.left(),
                right: n.right(),
                class: n.class(),
                level: n.level(),
            })
            .collect();
        Ok(Template { table, nodes, root, root_class })
    }

    /// Re-expresses `templates` over one shared class table, so that a
    /// forest over all of them matches reusable droplets by content across
    /// templates. Templates already sharing one table come back as they
    /// are.
    ///
    /// # Errors
    ///
    /// Returns [`MixAlgoError::FluidSetMismatch`] when the templates range
    /// over different fluid sets.
    pub fn intern_together<'a>(
        templates: impl IntoIterator<Item = &'a Template>,
    ) -> Result<Vec<Template>, MixAlgoError> {
        let templates: Vec<&Template> = templates.into_iter().collect();
        let Some(first) = templates.first() else {
            return Ok(Vec::new());
        };
        if templates.iter().all(|t| Arc::ptr_eq(&t.table, &first.table)) {
            return Ok(templates.into_iter().cloned().collect());
        }
        let fluid_count = first.fluid_count();
        let mut builder = GraphBuilder::new(fluid_count);
        let mut offsets = Vec::with_capacity(templates.len());
        for template in &templates {
            if template.fluid_count() != fluid_count {
                return Err(MixAlgoError::FluidSetMismatch {
                    left: fluid_count,
                    right: template.fluid_count(),
                });
            }
            let offset = builder.node_count() as u32;
            let shift = |op: Operand| match op {
                Operand::Droplet(id) => Operand::Droplet(NodeId::new(id.index() as u32 + offset)),
                input => input,
            };
            for node in &template.nodes {
                builder.mix(shift(node.left), shift(node.right))?;
            }
            offsets.push(offset);
        }
        let (table, built) = builder.into_parts();
        Ok(templates
            .iter()
            .zip(offsets)
            .map(|(template, offset)| {
                let unshift = |op: Operand| match op {
                    Operand::Droplet(id) => {
                        Operand::Droplet(NodeId::new(id.index() as u32 - offset))
                    }
                    input => input,
                };
                let start = offset as usize;
                let nodes: Vec<TemplateNode> = built[start..start + template.nodes.len()]
                    .iter()
                    .map(|n| TemplateNode {
                        left: unshift(n.left()),
                        right: unshift(n.right()),
                        class: n.class(),
                        level: n.level(),
                    })
                    .collect();
                // Pure classes are numbered alike in every table.
                let root_class = match template.root {
                    Operand::Droplet(id) => nodes[id.index()].class,
                    Operand::Input(_) => template.root_class,
                };
                Template { table: Arc::clone(&table), nodes, root: template.root, root_class }
            })
            .collect())
    }

    /// The class table the template's contents live in.
    pub fn class_table(&self) -> &Arc<ClassTable> {
        &self.table
    }

    /// Number of fluids in the underlying fluid set.
    pub fn fluid_count(&self) -> usize {
        self.table.fluid_count()
    }

    /// Whether the template is a bare leaf (no mix at the root).
    pub fn is_leaf(&self) -> bool {
        matches!(self.root, Operand::Input(_))
    }

    /// The droplet content produced at the root.
    pub fn mixture(&self) -> &Mixture {
        &self.table[self.root_class]
    }

    /// Structural height of the tree (a paper-conformant base tree for
    /// accuracy `d` has depth `<= d`, with equality unless the ratio
    /// reduces).
    pub fn depth(&self) -> u32 {
        match self.root {
            Operand::Input(_) => 0,
            Operand::Droplet(id) => self.nodes[id.index()].level,
        }
    }

    /// Number of mix-split operations (interior nodes).
    pub fn mix_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-fluid leaf counts — the input droplets `I[]` of one pass.
    pub fn leaf_counts(&self) -> Vec<u64> {
        let mut acc = vec![0; self.fluid_count()];
        let leaves = self.nodes.iter().flat_map(|n| [n.left, n.right]).chain([self.root]);
        for op in leaves {
            if let Operand::Input(fluid) = op {
                acc[fluid.0] += 1;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_ratio::FluidId;

    fn input(fluid: usize) -> Operand {
        Operand::Input(FluidId(fluid))
    }

    #[test]
    fn mix_computes_content_and_depth() {
        let mut b = GraphBuilder::new(2);
        let root = Operand::Droplet(b.mix(input(0), input(1)).unwrap());
        let t = Template::new(b, root).unwrap();
        assert_eq!(t.depth(), 1);
        assert_eq!(t.mix_count(), 1);
        assert_eq!(t.mixture().parts(), &[1, 1]);
        assert_eq!(t.leaf_counts(), vec![1, 1]);
        assert!(!t.is_leaf());
    }

    #[test]
    fn leaf_template_is_a_pure_reagent() {
        let t = Template::new(GraphBuilder::new(2), input(1)).unwrap();
        assert!(t.is_leaf());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.leaf_counts(), vec![0, 1]);
        assert_eq!(t.mixture(), &Mixture::try_pure(1, 2).unwrap());
        assert!(matches!(
            Template::new(GraphBuilder::new(2), input(2)),
            Err(MixAlgoError::Ratio(_))
        ));
    }

    #[test]
    fn nested_mix_tracks_unbalanced_depth() {
        let mut b = GraphBuilder::new(2);
        let inner = b.mix(input(0), input(1)).unwrap();
        let root = Operand::Droplet(b.mix(input(0), Operand::Droplet(inner)).unwrap());
        let t = Template::new(b, root).unwrap();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.mix_count(), 2);
        assert_eq!(t.mixture().parts(), &[3, 1]);
        assert_eq!(t.leaf_counts(), vec![2, 1]);
    }

    #[test]
    fn new_rejects_anything_but_one_tree() {
        let mut b = GraphBuilder::new(2);
        let a = b.mix(input(0), input(1)).unwrap();
        let orphan = b.mix(input(0), input(1)).unwrap();
        let root = b.mix(Operand::Droplet(a), input(0)).unwrap();
        assert!(matches!(
            Template::new(b.clone(), Operand::Droplet(root)),
            Err(MixAlgoError::Graph(GraphError::DanglingNode { node })) if node == orphan
        ));
        assert!(matches!(
            Template::new(b, Operand::Droplet(a)),
            Err(MixAlgoError::Graph(GraphError::RootConsumed { node })) if node == a
        ));
        let mut shared = GraphBuilder::new(2);
        let a = shared.mix(input(0), input(1)).unwrap();
        let root = shared.mix(Operand::Droplet(a), Operand::Droplet(a)).unwrap();
        assert!(matches!(
            Template::new(shared, Operand::Droplet(root)),
            Err(MixAlgoError::Graph(GraphError::OverconsumedDroplet { .. }))
        ));
    }

    #[test]
    fn intern_together_shares_one_table() {
        let build = |left, right| {
            let mut b = GraphBuilder::new(3);
            let root = Operand::Droplet(b.mix(input(left), input(right)).unwrap());
            Template::new(b, root).unwrap()
        };
        let (a, b) = (build(0, 1), build(1, 2));
        let shared = Template::intern_together([&a, &b, &a]).unwrap();
        assert!(Arc::ptr_eq(shared[0].class_table(), shared[1].class_table()));
        assert_eq!(shared[0].mixture(), a.mixture());
        assert_eq!(shared[1].mixture(), b.mixture());
        assert_eq!(shared[2].nodes[0].class, shared[0].nodes[0].class);
        let again = Template::intern_together(&shared).unwrap();
        assert!(Arc::ptr_eq(again[0].class_table(), shared[0].class_table()));
        let foreign = Template::new(GraphBuilder::new(2), input(0)).unwrap();
        assert!(matches!(
            Template::intern_together([&a, &foreign]),
            Err(MixAlgoError::FluidSetMismatch { left: 3, right: 2 })
        ));
    }
}
