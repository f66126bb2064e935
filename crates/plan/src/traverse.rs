//! Tree traversal utilities: post-order walks (the order Algorithm 1
//! narrates in) with parent context.

use crate::node::PlanNode;

/// One item of a post-order walk.
#[derive(Debug, Clone, Copy)]
pub struct PostOrderItem<'a> {
    /// The visited node.
    pub node: &'a PlanNode,
    /// Its parent (`None` for the root).
    pub parent: Option<&'a PlanNode>,
    /// Depth from the root (root = 0).
    pub depth: usize,
    /// Index among siblings.
    pub child_index: usize,
}

/// Post-order (children before parent) traversal with parent links.
pub fn post_order(root: &PlanNode) -> Vec<PostOrderItem<'_>> {
    let mut out = Vec::with_capacity(root.size());
    walk(root, None, 0, 0, &mut out);
    out
}

fn walk<'a>(
    node: &'a PlanNode,
    parent: Option<&'a PlanNode>,
    depth: usize,
    child_index: usize,
    out: &mut Vec<PostOrderItem<'a>>,
) {
    for (i, c) in node.children.iter().enumerate() {
        walk(c, Some(node), depth + 1, i, out);
    }
    out.push(PostOrderItem {
        node,
        parent,
        depth,
        child_index,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> PlanNode {
        PlanNode::new("Unique").with_child(
            PlanNode::new("Hash Join")
                .with_child(PlanNode::new("Seq Scan").on_relation("a"))
                .with_child(
                    PlanNode::new("Hash").with_child(PlanNode::new("Seq Scan").on_relation("b")),
                ),
        )
    }

    #[test]
    fn post_order_children_before_parents() {
        let t = tree();
        let ops: Vec<&str> = post_order(&t).iter().map(|i| i.node.op.as_str()).collect();
        assert_eq!(
            ops,
            vec!["Seq Scan", "Seq Scan", "Hash", "Hash Join", "Unique"]
        );
    }

    #[test]
    fn parent_links_correct() {
        let t = tree();
        let walk = post_order(&t);
        // First Seq Scan's parent is the Hash Join.
        assert_eq!(walk[0].parent.unwrap().op, "Hash Join");
        // Second Seq Scan's parent is the Hash.
        assert_eq!(walk[1].parent.unwrap().op, "Hash");
        // Root has no parent.
        assert!(walk.last().unwrap().parent.is_none());
    }

    #[test]
    fn depths_and_child_indices() {
        let t = tree();
        let walk = post_order(&t);
        let hash = walk.iter().find(|i| i.node.op == "Hash").unwrap();
        assert_eq!(hash.depth, 2);
        assert_eq!(hash.child_index, 1);
    }
}
