//! Arena-based prefix trees (binary and B-ary).
//!
//! The paper stores five attributes per node — left child, right child,
//! parent, weight and code (§3.2 II) — which we generalize to a `children`
//! vector so the same structure serves binary Huffman, balanced trees and
//! B-ary Huffman (§4). Codes are assigned by the `Traverse` procedure of
//! Algorithm 1: following the `i`-th child edge appends character `i`.

/// Index of a node within its [`PrefixTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One node of a prefix tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Child nodes, ordered; empty for leaves.
    pub children: Vec<NodeId>,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Huffman weight: cell probability for leaves, children sum for
    /// internal nodes.
    pub weight: f64,
    /// Code assigned by traversal: the B-ary character string from the
    /// root (each element in `0..B`).
    pub code: Vec<u8>,
    /// For leaves: the grid cell this leaf encodes. Dummy leaves (B-ary
    /// padding) and internal nodes carry `None`.
    pub cell: Option<usize>,
}

impl Node {
    /// `true` iff the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A prefix tree over a `B`-character alphabet.
#[derive(Debug, Clone)]
pub struct PrefixTree {
    nodes: Vec<Node>,
    root: Option<NodeId>,
    arity: usize,
}

impl PrefixTree {
    /// Creates an empty tree over a `B`-character alphabet.
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub fn new(arity: usize) -> Self {
        assert!(arity >= 2, "prefix trees need arity >= 2");
        PrefixTree {
            nodes: Vec::new(),
            root: None,
            arity,
        }
    }

    /// Alphabet size `B`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Adds a leaf for `cell` with the given weight; `cell = None` creates
    /// a dummy leaf (used by B-ary padding).
    pub fn add_leaf(&mut self, weight: f64, cell: Option<usize>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            children: Vec::new(),
            parent: None,
            weight,
            code: Vec::new(),
            cell,
        });
        id
    }

    /// Adds an internal node adopting `children` (their weights are
    /// summed, Huffman-style).
    ///
    /// # Panics
    /// Panics if `children` is empty, exceeds the arity, or contains a node
    /// that already has a parent.
    pub fn add_internal(&mut self, children: &[NodeId]) -> NodeId {
        assert!(!children.is_empty(), "internal nodes need children");
        assert!(
            children.len() <= self.arity,
            "internal node exceeds tree arity"
        );
        let id = NodeId(self.nodes.len() as u32);
        let weight = children.iter().map(|c| self.node(*c).weight).sum();
        for &c in children {
            let child = &mut self.nodes[c.0 as usize];
            assert!(child.parent.is_none(), "child already has a parent");
            child.parent = Some(id);
        }
        self.nodes.push(Node {
            children: children.to_vec(),
            parent: None,
            weight,
            code: Vec::new(),
            cell: None,
        });
        id
    }

    /// Declares `root` the tree root and runs the code-assignment traversal
    /// of Algorithm 1 (`Traverse`): the `i`-th child edge appends character
    /// `i` to the parent's code.
    pub fn finalize(&mut self, root: NodeId) {
        self.root = Some(root);
        self.nodes[root.0 as usize].code = Vec::new();
        // Iterative DFS to avoid recursion limits on deep (skewed) trees.
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let code = self.node(id).code.clone();
            let children = self.node(id).children.clone();
            for (i, child) in children.iter().enumerate() {
                let mut child_code = code.clone();
                child_code.push(i as u8);
                self.nodes[child.0 as usize].code = child_code;
                stack.push(*child);
            }
        }
    }

    /// The root node.
    ///
    /// # Panics
    /// Panics if [`PrefixTree::finalize`] has not run.
    pub fn root(&self) -> NodeId {
        self.root.expect("tree not finalized")
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reference length RL: the depth of the tree in characters (§3.1 —
    /// "the tree's depth... also indicates the maximum length of a prefix
    /// code").
    pub fn reference_length(&self) -> usize {
        self.leaves_in_order()
            .iter()
            .map(|&l| self.node(l).code.len())
            .max()
            .unwrap_or(0)
    }

    /// Leaves in left-to-right tree order ("ordered as they appear on the
    /// tree while traversing; no two edges of the tree cross path", §3.3).
    pub fn leaves_in_order(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.is_leaf() {
                out.push(id);
            } else {
                // push right-to-left so the leftmost child pops first
                for child in node.children.iter().rev() {
                    stack.push(*child);
                }
            }
        }
        out
    }

    /// Internal (subtree-root) nodes in traversal order.
    pub fn internal_nodes(&self) -> Vec<NodeId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if !node.is_leaf() {
                out.push(id);
                for child in node.children.iter().rev() {
                    stack.push(*child);
                }
            }
        }
        out
    }

    /// Number of leaf descendants of `id` (counting `id` itself when it is
    /// a leaf) — the values stored in Algorithm 3's `parentDict`.
    pub fn descendant_leaf_count(&self, id: NodeId) -> usize {
        let mut count = 0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if node.is_leaf() {
                count += 1;
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        count
    }

    /// Expected (probability-weighted) code length `L(C(P)) = Σ p_i·len(c_i)`
    /// over real (non-dummy) leaves — the §3.1 minimization objective.
    pub fn average_code_length(&self) -> f64 {
        self.leaves_in_order()
            .iter()
            .filter(|&&l| self.node(l).cell.is_some())
            .map(|&l| {
                let n = self.node(l);
                n.weight * n.code.len() as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds the Fig. 4b tree:
    /// root r4 -> (r2 -> (r1 -> (v2, v1), v4), r3 is implicit via (v3, v5)).
    /// Weights follow the paper's running example.
    fn fig4_tree() -> (PrefixTree, Vec<NodeId>) {
        let mut t = PrefixTree::new(2);
        let v1 = t.add_leaf(0.1, Some(0));
        let v2 = t.add_leaf(0.2, Some(1));
        let v3 = t.add_leaf(0.5, Some(2));
        let v4 = t.add_leaf(0.4, Some(3));
        let v5 = t.add_leaf(0.6, Some(4));
        let r1 = t.add_internal(&[v2, v1]);
        let r2 = t.add_internal(&[r1, v4]);
        let r3 = t.add_internal(&[v3, v5]);
        let r4 = t.add_internal(&[r2, r3]);
        t.finalize(r4);
        (t, vec![v1, v2, v3, v4, v5])
    }

    #[test]
    fn fig4_codes() {
        let (t, v) = fig4_tree();
        // Paper §3.2 III: v1:001, v2:000, v3:10, v4:01, v5:11.
        assert_eq!(t.node(v[0]).code, vec![0, 0, 1]);
        assert_eq!(t.node(v[1]).code, vec![0, 0, 0]);
        assert_eq!(t.node(v[2]).code, vec![1, 0]);
        assert_eq!(t.node(v[3]).code, vec![0, 1]);
        assert_eq!(t.node(v[4]).code, vec![1, 1]);
        assert_eq!(t.reference_length(), 3);
    }

    #[test]
    fn fig4_leaf_order_and_counts() {
        let (t, v) = fig4_tree();
        // §3.3: leaves in order [v2, v1, v4, v3, v5].
        assert_eq!(t.leaves_in_order(), vec![v[1], v[0], v[3], v[2], v[4]]);
        // parentDict counts: [00*: 2, 0**: 3, 1**: 2, ***: 5]
        let internals = t.internal_nodes();
        let mut counts: Vec<(Vec<u8>, usize)> = internals
            .iter()
            .map(|&n| (t.node(n).code.clone(), t.descendant_leaf_count(n)))
            .collect();
        counts.sort();
        assert_eq!(
            counts,
            vec![(vec![], 5), (vec![0], 3), (vec![0, 0], 2), (vec![1], 2),]
        );
    }

    #[test]
    fn weights_propagate() {
        let (t, _) = fig4_tree();
        let root = t.root();
        assert!((t.node(root).weight - 1.8).abs() < 1e-9);
        assert!(
            (t.average_code_length() - (0.1 * 3.0 + 0.2 * 3.0 + 0.5 * 2.0 + 0.4 * 2.0 + 0.6 * 2.0))
                .abs()
                < 1e-9
        );
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn double_adoption_rejected() {
        let mut t = PrefixTree::new(2);
        let a = t.add_leaf(0.5, Some(0));
        let b = t.add_leaf(0.5, Some(1));
        let _r1 = t.add_internal(&[a, b]);
        let _r2 = t.add_internal(&[a]);
    }

    #[test]
    fn ternary_tree_codes() {
        // Fig. 6a: 3-ary tree; r1=(v2,v1,v4), root=(r1,v3,v5).
        let mut t = PrefixTree::new(3);
        let v1 = t.add_leaf(0.1, Some(0));
        let v2 = t.add_leaf(0.2, Some(1));
        let v3 = t.add_leaf(0.5, Some(2));
        let v4 = t.add_leaf(0.4, Some(3));
        let v5 = t.add_leaf(0.6, Some(4));
        let r1 = t.add_internal(&[v2, v1, v4]);
        let root = t.add_internal(&[r1, v3, v5]);
        t.finalize(root);
        // prefix code '02' is generated by adding '0' at r1 then '2' at v4
        assert_eq!(t.node(v4).code, vec![0, 2]);
        assert_eq!(t.node(v3).code, vec![1]);
        assert_eq!(t.node(v5).code, vec![2]);
        assert_eq!(t.reference_length(), 2);
    }

    #[test]
    fn deep_skewed_tree_no_stack_overflow() {
        // 2000-deep comb tree exercises the iterative traversals.
        let mut t = PrefixTree::new(2);
        let mut current = t.add_leaf(1.0, Some(0));
        for i in 1..2000 {
            let leaf = t.add_leaf(1.0, Some(i));
            current = t.add_internal(&[current, leaf]);
        }
        t.finalize(current);
        assert_eq!(t.reference_length(), 1999);
        assert_eq!(t.leaves_in_order().len(), 2000);
    }
}
