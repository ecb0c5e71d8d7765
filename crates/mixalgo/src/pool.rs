use dmf_mixgraph::{ClassId, NodeId};
use std::collections::VecDeque;

/// A multiset of spare (would-be-waste) droplets indexed by content class.
///
/// This is the bookkeeping behind both common-subtree sharing
/// ([`crate::Mtcs`]/[`crate::Rsm`]) and the mixing forest of the streaming
/// engine: whenever a mix-split executes, its second output droplet is
/// offered to the pool; whenever a rebuild needs a droplet whose content is
/// already pooled, it consumes the pooled droplet instead of re-mixing.
/// Contents are [`ClassId`]s of the class table the droplets' graph is
/// built over, so one pool serves one table.
///
/// The pool has *commit* semantics for the paper-faithful forest
/// construction: droplets offered during the current component tree are held
/// back in a staging area and only become takeable after [`WastePool::commit`]
/// (called at tree boundaries). Pass `eager = true` to
/// [`WastePool::offer`] for immediate availability (within-tree sharing).
///
/// Droplets of equal content are consumed in FIFO order, which keeps the
/// construction deterministic.
#[derive(Debug, Clone, Default)]
pub struct WastePool {
    available: Vec<VecDeque<NodeId>>,
    staged: Vec<(ClassId, NodeId)>,
    len: usize,
}

impl WastePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        WastePool::default()
    }

    /// Number of takeable droplets (staged droplets are not counted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no droplet is takeable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of droplets staged but not yet committed.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Offers a spare droplet of content `class` produced by `node`.
    ///
    /// With `eager = true` the droplet is takeable immediately; otherwise it
    /// is staged until the next [`WastePool::commit`].
    pub fn offer(&mut self, class: ClassId, node: NodeId, eager: bool) {
        if eager {
            push(&mut self.available, class, node);
            self.len += 1;
        } else {
            self.staged.push((class, node));
        }
    }

    /// Takes the oldest takeable droplet of content `class`, if any.
    pub fn take(&mut self, class: ClassId) -> Option<NodeId> {
        let id = self.available.get_mut(class.index())?.pop_front()?;
        self.len -= 1;
        Some(id)
    }

    /// Makes all staged droplets takeable (call at component-tree
    /// boundaries).
    pub fn commit(&mut self) {
        self.len += self.staged.len();
        for (class, node) in self.staged.drain(..) {
            push(&mut self.available, class, node);
        }
    }

    /// Drops every droplet, takeable and staged alike.
    pub fn clear(&mut self) {
        self.available.iter_mut().for_each(VecDeque::clear);
        self.staged.clear();
        self.len = 0;
    }
}

/// Appends `node` to the FIFO of `class`, growing the index as needed.
fn push(available: &mut Vec<VecDeque<NodeId>>, class: ClassId, node: NodeId) {
    if class.index() >= available.len() {
        available.resize_with(class.index() + 1, VecDeque::new);
    }
    available[class.index()].push_back(node);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixgraph::{GraphBuilder, Operand};
    use dmf_ratio::FluidId;

    /// Two distinct mix classes of one table: `<1:1>` and `<3:1>`.
    fn classes() -> (ClassId, ClassId) {
        let mut b = GraphBuilder::new(2);
        let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let three = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half)).unwrap();
        let (_, nodes) = b.into_parts();
        (nodes[half.index()].class(), nodes[three.index()].class())
    }

    #[test]
    fn eager_offers_are_takeable_immediately() {
        let (m, _) = classes();
        let mut pool = WastePool::new();
        pool.offer(m, NodeId::new(0), true);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.take(m), Some(NodeId::new(0)));
        assert!(pool.is_empty());
        assert_eq!(pool.take(m), None);
    }

    #[test]
    fn staged_offers_need_commit() {
        let (m, _) = classes();
        let mut pool = WastePool::new();
        pool.offer(m, NodeId::new(3), false);
        assert_eq!(pool.take(m), None);
        assert_eq!(pool.staged_len(), 1);
        pool.commit();
        assert_eq!(pool.staged_len(), 0);
        assert_eq!(pool.take(m), Some(NodeId::new(3)));
    }

    #[test]
    fn equal_content_is_fifo() {
        let (half, three) = classes();
        let mut pool = WastePool::new();
        pool.offer(three, NodeId::new(1), true);
        pool.offer(half, NodeId::new(7), true);
        pool.offer(three, NodeId::new(2), true);
        assert_eq!(pool.take(three), Some(NodeId::new(1)));
        assert_eq!(pool.take(three), Some(NodeId::new(2)));
        assert_eq!(pool.take(three), None);
        assert_eq!(pool.take(half), Some(NodeId::new(7)));
    }

    #[test]
    fn clear_empties_everything() {
        let (m, _) = classes();
        let mut pool = WastePool::new();
        pool.offer(m, NodeId::new(0), true);
        pool.offer(m, NodeId::new(1), false);
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.staged_len(), 0);
        assert_eq!(pool.take(m), None);
    }
}
