//! Index-based node arena shared by the tree algorithms.
//!
//! Nodes live in a `Vec` and refer to children by `u32` index, which (a)
//! avoids `Box`-chain recursion and its stack hazards on the paper's
//! worst-case linear trees, (b) is cache-friendlier than pointer chasing,
//! and (c) makes the live/peak node counting that Figure 9 needs — and the
//! k-ordered tree's garbage collection — trivial via a free list.

use tempagg_core::Timestamp;

/// Index of a node in an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Sentinel for "no child".
    pub const NIL: NodeId = NodeId(u32::MAX);

    #[inline]
    pub fn is_nil(self) -> bool {
        self == Self::NIL
    }

    #[inline]
    fn index(self) -> usize {
        // lint: allow(no-as-cast): u32 → usize is lossless on every supported target
        self.0 as usize
    }
}

/// One aggregation-tree node (Section 5.1, "the more efficient, single
/// timestamp per node variation: two child pointers, an aggregate-value,
/// and a timestamp split value").
///
/// A node covering `[lo, hi]` with split `m` has a left child covering
/// `[lo, m]` and a right child covering `[m+1, hi]`; node extents are
/// implicit in the path from the root. Leaves have `NIL` children and
/// represent constant intervals. `state` holds the partial aggregate of
/// tuples whose interval exactly covered this node during insertion.
#[derive(Clone, Debug)]
pub struct Node<S> {
    pub split: Timestamp,
    pub left: NodeId,
    pub right: NodeId,
    pub state: S,
}

impl<S> Node<S> {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left.is_nil()
    }
}

/// Slab of nodes with a free list and peak-usage tracking.
#[derive(Clone, Debug)]
pub struct Arena<S> {
    nodes: Vec<Node<S>>,
    free: Vec<NodeId>,
    live: usize,
    peak_live: usize,
}

impl<S> Arena<S> {
    pub fn new() -> Arena<S> {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    pub fn with_capacity(capacity: usize) -> Arena<S> {
        Arena {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// Pre-grow the slab for `additional` more live nodes, so a batch of
    /// insertions does not re-allocate mid-way.
    pub fn reserve(&mut self, additional: usize) {
        let projected = self.live + additional;
        self.nodes
            .reserve(projected.saturating_sub(self.nodes.len()));
    }

    /// Allocate a leaf with the given state.
    pub fn alloc_leaf(&mut self, state: S) -> NodeId {
        self.alloc(Node {
            split: Timestamp::ORIGIN,
            left: NodeId::NIL,
            right: NodeId::NIL,
            state,
        })
    }

    fn alloc(&mut self, node: Node<S>) -> NodeId {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            id
        } else {
            // lint: allow(no-unwrap): 4 billion nodes is past any workload this crate models; aborting beats corrupting ids
            let id = NodeId(u32::try_from(self.nodes.len()).expect("arena exceeds u32 indices"));
            self.nodes.push(node);
            id
        }
    }

    /// Return one node to the free list. The caller must not reference it
    /// afterwards; its slot will be recycled.
    pub fn free_one(&mut self, id: NodeId) {
        debug_assert!(!id.is_nil());
        self.live -= 1;
        self.free.push(id);
    }

    /// Free an entire subtree (iteratively — worst-case trees are linear).
    /// `stack` is the walk's scratch, empty on entry and on return; a
    /// caller that frees repeatedly passes the same one.
    pub fn free_subtree(&mut self, root: NodeId, stack: &mut Vec<NodeId>) {
        debug_assert!(stack.is_empty());
        stack.push(root);
        // lint: hot-loop(tree-emit) — frees each collected node once; children go on the caller's stack
        while let Some(id) = stack.pop() {
            // lint: allow(indexing): NodeIds are only minted by alloc and the arena never shrinks, so index() < nodes.len()
            let node = &self.nodes[id.index()];
            if !node.is_leaf() {
                stack.push(node.left);
                stack.push(node.right);
            }
            self.free_one(id);
        }
    }

    #[inline]
    pub fn get(&self, id: NodeId) -> &Node<S> {
        &self.nodes[id.index()]
    }

    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<S> {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes currently allocated.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live nodes.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }
}

impl<S> Default for Arena<S> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_peak_tracking() {
        let mut a: Arena<u64> = Arena::new();
        let n1 = a.alloc_leaf(0);
        let n2 = a.alloc_leaf(1);
        assert_ne!(n1, n2);
        assert_eq!(a.live(), 2);
        assert_eq!(a.peak_live(), 2);
        a.free_one(n1);
        assert_eq!(a.live(), 1);
        assert_eq!(a.peak_live(), 2, "peak survives frees");
        // Recycled slot keeps peak at 2.
        let n3 = a.alloc_leaf(2);
        assert_eq!(n3, n1, "free list recycles slots");
        assert_eq!(a.peak_live(), 2);
        assert_eq!(a.get(n3).state, 2);
    }

    #[test]
    fn leaves_have_nil_children() {
        let mut a: Arena<u64> = Arena::new();
        let id = a.alloc_leaf(7);
        assert!(a.get(id).is_leaf());
        assert!(a.get(id).left.is_nil());
        a.get_mut(id).state = 9;
        assert_eq!(a.get(id).state, 9);
    }

    #[test]
    fn free_subtree_releases_all() {
        let mut a: Arena<u64> = Arena::new();
        let l = a.alloc_leaf(0);
        let r = a.alloc_leaf(1);
        let root = a.alloc(Node {
            split: Timestamp(5),
            left: l,
            right: r,
            state: 0,
        });
        assert_eq!(a.live(), 3);
        a.free_subtree(root, &mut Vec::new());
        assert_eq!(a.live(), 0);
        assert_eq!(a.peak_live(), 3);
    }
}
