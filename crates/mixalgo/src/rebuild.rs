use crate::{MixAlgoError, Template, WastePool};
use dmf_mixgraph::{GraphBuilder, MixGraph, NodeId, Operand};
use dmf_ratio::TargetRatio;
use std::sync::Arc;

/// Replays `template` into `builder` as one component tree, consuming pooled
/// droplets wherever their content matches a needed subtree, and returns the
/// new tree's root.
///
/// This single function implements both halves of the paper:
///
/// * with an empty pool it materialises a base mixing tree verbatim;
/// * with a pool carrying earlier trees' waste it performs the *rebuild*
///   step of mixing-forest construction (§4.1): a subtree whose content is
///   available as a pooled droplet collapses to a reuse edge (the paper's
///   brown nodes).
///
/// Every interior mix offers its spare droplet back to the pool —
/// immediately when `eager` is true (within-tree sharing, as in
/// [`crate::Mtcs`]), or staged until the caller invokes
/// [`WastePool::commit`] when `eager` is false (the paper's across-tree
/// reuse). The root never takes from or offers to the pool: both of its
/// droplets are emitted targets.
///
/// The builder must work over the template's own class table (start it
/// with `GraphBuilder::with_table(template.class_table().clone())`, or
/// re-express several templates over one table with
/// [`Template::intern_together`]); pooled droplets are matched by that
/// table's content classes, and every mix resolves through its pair memo.
///
/// The caller must still invoke [`GraphBuilder::finish_tree`] with the
/// returned root.
///
/// # Errors
///
/// Returns [`MixAlgoError::ForeignClassTable`] when `builder` does not work
/// over the template's class table, [`MixAlgoError::PureTarget`] when the
/// template is a bare leaf, and propagates structural errors from the
/// builder.
pub fn rebuild_tree(
    template: &Template,
    builder: &mut GraphBuilder,
    pool: &mut WastePool,
    eager: bool,
) -> Result<NodeId, MixAlgoError> {
    if !Arc::ptr_eq(template.class_table(), builder.class_table()) {
        return Err(MixAlgoError::ForeignClassTable);
    }
    match rebuild_node(template, template.root, builder, pool, eager, true)? {
        Operand::Droplet(id) => Ok(id),
        Operand::Input(_) => Err(MixAlgoError::PureTarget),
    }
}

/// Rebuilds template operand `op` (a reservoir input, or vertex `i` of the
/// template arena) and returns the operand standing for it in `builder`.
fn rebuild_node(
    template: &Template,
    op: Operand,
    builder: &mut GraphBuilder,
    pool: &mut WastePool,
    eager: bool,
    is_root: bool,
) -> Result<Operand, MixAlgoError> {
    let Operand::Droplet(index) = op else {
        return Ok(op);
    };
    let node = template.nodes[index.index()];
    if !is_root {
        if let Some(id) = pool.take(node.class) {
            return Ok(Operand::Droplet(id));
        }
    }
    let lo = rebuild_node(template, node.left, builder, pool, eager, false)?;
    let ro = rebuild_node(template, node.right, builder, pool, eager, false)?;
    let id = builder.mix(lo, ro).map_err(MixAlgoError::Graph)?;
    if !is_root {
        pool.offer(node.class, id, eager);
    }
    Ok(Operand::Droplet(id))
}

/// Lowers a template to a validated single-tree [`MixGraph`].
///
/// With `share = true`, content-identical subtrees are built once and reuse
/// each other's spare droplets (the [`crate::Mtcs`]/[`crate::Rsm`]
/// behaviour); with `share = false` the template structure is reproduced
/// verbatim.
///
/// # Errors
///
/// Returns [`MixAlgoError::PureTarget`] for a leaf-only template and
/// propagates validation failures (which indicate a template that does not
/// realise `target`).
pub fn materialize(
    template: &Template,
    target: &TargetRatio,
    share: bool,
) -> Result<MixGraph, MixAlgoError> {
    let mut builder = GraphBuilder::with_table(Arc::clone(template.class_table()));
    let mut pool = WastePool::new();
    let root = rebuild_tree(template, &mut builder, &mut pool, share)?;
    builder.finish_tree(root);
    builder.finish(target).map_err(MixAlgoError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_ratio::FluidId;

    fn input(fluid: usize) -> Operand {
        Operand::Input(FluidId(fluid))
    }

    /// mix(mix(x1,x2), mix(x1,x2)): two content-identical subtrees.
    fn twin_subtrees() -> Template {
        let mut b = GraphBuilder::new(2);
        let l = b.mix(input(0), input(1)).unwrap();
        let r = b.mix(input(0), input(1)).unwrap();
        let root = b.mix(Operand::Droplet(l), Operand::Droplet(r)).unwrap();
        Template::new(b, Operand::Droplet(root)).unwrap()
    }

    #[test]
    fn materialize_reproduces_structure_without_sharing() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let g = materialize(&twin_subtrees(), &target, false).unwrap();
        assert_eq!(g.stats().mix_splits, 3);
        assert_eq!(g.stats().input_total, 4);
    }

    #[test]
    fn materialize_shares_identical_subtrees() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let g = materialize(&twin_subtrees(), &target, true).unwrap();
        // The second subtree collapses onto the first one's spare droplet.
        assert_eq!(g.stats().mix_splits, 2);
        assert_eq!(g.stats().input_total, 2);
        assert_eq!(g.stats().waste, 0);
    }

    #[test]
    fn leaf_template_is_rejected() {
        let target = TargetRatio::new(vec![1]).unwrap();
        let t = Template::new(GraphBuilder::new(1), input(0)).unwrap();
        assert!(matches!(materialize(&t, &target, false), Err(MixAlgoError::PureTarget)));
    }

    #[test]
    fn rebuild_needs_the_template_table() {
        let mut builder = GraphBuilder::new(2);
        let mut pool = WastePool::new();
        assert!(matches!(
            rebuild_tree(&twin_subtrees(), &mut builder, &mut pool, false),
            Err(MixAlgoError::ForeignClassTable)
        ));
    }

    #[test]
    fn forest_style_rebuild_reuses_across_trees() {
        // Base tree for 3:1 — rebuild twice with commit between; the second
        // tree must reuse the first tree's inner waste droplet.
        let mut b = GraphBuilder::new(2);
        let half = b.mix(input(0), input(1)).unwrap();
        let root = b.mix(input(0), Operand::Droplet(half)).unwrap();
        let t = Template::new(b, Operand::Droplet(root)).unwrap();
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut builder = GraphBuilder::with_table(Arc::clone(t.class_table()));
        let mut pool = WastePool::new();
        let r1 = rebuild_tree(&t, &mut builder, &mut pool, false).unwrap();
        builder.finish_tree(r1);
        pool.commit();
        let r2 = rebuild_tree(&t, &mut builder, &mut pool, false).unwrap();
        builder.finish_tree(r2);
        // Every mix resolved through the template's pair memo.
        assert!(Arc::ptr_eq(builder.class_table(), t.class_table()));
        let g = builder.finish(&target).unwrap();
        let stats = g.stats();
        // Tree 1: 2 mixes; tree 2: root only (inner droplet reused).
        assert_eq!(stats.mix_splits, 3);
        assert_eq!(stats.input_total, 4);
        assert_eq!(stats.waste, 0);
        stats.assert_conservation();
    }
}
