//! Graphviz (DOT) export of mixing graphs, colour-coded like the paper's
//! figures: grey input droplets, green used intermediates, brown reuse
//! edges, double circles for targets.

use crate::{MixGraph, MixNode, Operand};
use std::fmt::Write as _;

impl MixGraph {
    /// Renders the graph in Graphviz DOT syntax.
    ///
    /// Component trees become clusters `T1 … T|F|`; cross-tree reuse edges
    /// (the paper's brown nodes) are drawn dashed in brown. Pipe the output
    /// through `dot -Tsvg` to obtain figures analogous to Figs. 1–3.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmf_mixgraph::{GraphBuilder, Operand};
    /// use dmf_ratio::{FluidId, TargetRatio};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let target = TargetRatio::new(vec![1, 1])?;
    /// let mut b = GraphBuilder::new(2);
    /// let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1)))?;
    /// b.finish_tree(root);
    /// let dot = b.finish(&target)?.to_dot();
    /// assert!(dot.starts_with("digraph mixing_forest"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        out.push_str("digraph mixing_forest {\n  rankdir=BT;\n  node [fontsize=10];\n");
        for tree in 0..self.tree_count() as u32 {
            let _ = writeln!(out, "  subgraph cluster_t{} {{", tree + 1);
            let _ = writeln!(out, "    label=\"T{}\";", tree + 1);
            for id in self.tree_nodes(tree) {
                let shape = if self.is_root(id) { "doublecircle" } else { "circle" };
                let _ = writeln!(
                    out,
                    "    {} [label=\"{}\\n{}\" shape={}];",
                    id,
                    labels[id.index()],
                    self.mixture(id),
                    shape
                );
            }
            out.push_str("  }\n");
        }
        let mut input_seq = 0usize;
        for (id, node) in self.iter() {
            for op in node.operands() {
                match op {
                    Operand::Input(f) => {
                        let leaf = format!("in{input_seq}");
                        input_seq += 1;
                        let _ = writeln!(
                            out,
                            "  {leaf} [label=\"{f}\" shape=box style=filled fillcolor=lightgrey];"
                        );
                        let _ = writeln!(out, "  {leaf} -> {id};");
                    }
                    Operand::Droplet(src) => {
                        // An operand naming no vertex (an unvalidated
                        // graph) is drawn as a reuse edge.
                        let reuse =
                            self.nodes.get(src.index()).map(MixNode::tree) != Some(node.tree());
                        if reuse {
                            let _ = writeln!(
                                out,
                                "  {src} -> {id} [color=brown style=dashed label=\"reuse\"];"
                            );
                        } else {
                            let _ = writeln!(out, "  {src} -> {id};");
                        }
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Operand};
    use dmf_ratio::{FluidId, TargetRatio};

    #[test]
    fn dot_marks_reuse_edges() {
        // Two trees; the second reuses the first tree's inner waste droplet.
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let r1 = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half)).unwrap();
        b.finish_tree(r1);
        let r2 = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half)).unwrap();
        b.finish_tree(r2);
        let g = b.finish(&target).unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("reuse"));
        assert!(dot.contains("cluster_t2"));
        assert!(dot.contains("doublecircle"));
    }
}
