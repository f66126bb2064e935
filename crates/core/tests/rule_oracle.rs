//! Differential test of RULE-LANTERN's one-pass narration against the
//! algorithm it replaced, kept here verbatim as the oracle: an owned
//! LOT copy of the plan (`build_lot`), a cluster set addressed by
//! child-index paths (`cluster_pairs`), and a post-order `visit` that
//! threads a path buffer and searches the cluster set at every node.
//! `PlanNode::clone_shallow` and `PoemLookup::find_labeled`, which only
//! this algorithm used, are inlined below.
//!
//! Every input must give the same [`Narration`] (each step's index,
//! ops, text, tagged text and bindings) or the same [`CoreError`]:
//! a seeded `lantern-gen` corpus in both formats with duplicates and
//! mutants, narrated against the combined and the pg-only store, and
//! hand-built trees for the error order, clustering corner cases and
//! extreme shapes.

use lantern_core::narrate::humanize_predicate;
use lantern_core::{
    narrate_with_lookup, CoreError, Narration, NarrationStep, PlanSource, TagBinding,
};
use lantern_gen::{GenConfig, PlanGenerator};
use lantern_plan::{PlanNode, PlanTree};
use lantern_pool::{default_mssql_store, default_pg_store, PoemLookup, PoemObject, PoemSnapshot};

// ---------------------------------------------------------------------
// The oracle: the LOT + cluster-path algorithm, verbatim.
// ---------------------------------------------------------------------

/// The default `PoemLookup::find_labeled`: an operator with its default
/// description template.
fn find_labeled<L: PoemLookup>(
    store: &L,
    source: &str,
    name: &str,
) -> Option<(PoemObject, String)> {
    store.find(source, name).map(|o| {
        let label = o.template(None);
        (o, label)
    })
}

/// `PlanNode::clone_shallow`: the node's own attributes, no children.
fn clone_shallow(node: &PlanNode) -> PlanNode {
    PlanNode {
        op: node.op.clone(),
        relation: node.relation.clone(),
        alias: node.alias.clone(),
        index_name: node.index_name.clone(),
        filter: node.filter.clone(),
        join_cond: node.join_cond.clone(),
        sort_keys: node.sort_keys.clone(),
        group_keys: node.group_keys.clone(),
        strategy: node.strategy.clone(),
        estimated_rows: node.estimated_rows,
        estimated_cost: node.estimated_cost,
        children: Vec::new(),
        extra: node.extra.clone(),
    }
}

/// One LOT node: the plan node plus its language annotations.
#[derive(Debug, Clone)]
struct LotNode {
    /// The underlying plan node (children stripped — structure lives in
    /// [`LotNode::children`]).
    plan: PlanNode,
    /// Learner-visible operator name (`n.name`): the POEM alias, or
    /// the POEM name when no alias is specified.
    name: String,
    /// Natural-language description template (`n.label`), from
    /// `COMPOSE <op> FROM <source>`.
    label: String,
    /// The POEM object backing this node.
    poem: PoemObject,
    /// Child LOT nodes.
    children: Vec<LotNode>,
}

/// A LOT (its source tag is not kept: nothing here reads it).
#[derive(Debug, Clone)]
struct LotTree {
    /// Root LOT node.
    root: LotNode,
}

/// Build the LOT for `tree` using the operator annotations in `store`
/// (paper Algorithm 1, line 1).
///
/// Generic over [`PoemLookup`] so the hot path can thread a single
/// `PoemSnapshot` through the whole construction (one
/// lock acquisition per narration) while ad-hoc callers keep passing
/// the live `PoemStore`.
fn build_lot<L: PoemLookup>(tree: &PlanTree, store: &L) -> Result<LotTree, CoreError> {
    Ok(LotTree {
        root: annotate(&tree.root, &tree.source, store)?,
    })
}

fn annotate<L: PoemLookup>(node: &PlanNode, source: &str, store: &L) -> Result<LotNode, CoreError> {
    let (poem, label) =
        find_labeled(store, source, &node.op).ok_or_else(|| CoreError::UnknownOperator {
            source: source.to_string(),
            op: node.op.clone(),
        })?;
    let mut lot = LotNode {
        plan: clone_shallow(node),
        name: poem.display_name().to_string(),
        label,
        poem,
        children: Vec::with_capacity(node.children.len()),
    };
    for c in &node.children {
        lot.children.push(annotate(c, source, store)?);
    }
    Ok(lot)
}

/// One auxiliary/critical pair, addressed by the critical node's path
/// from the root and the index of the auxiliary child within it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cluster {
    /// Child-index path of the critical node from the root.
    critical_path: Vec<usize>,
    /// Index of the auxiliary child inside the critical node.
    aux_child: usize,
}

/// Compute the cluster set of a LOT (paper's `Cluster(T_L, P)`).
///
/// For each node, at most **one** auxiliary child is clustered (the
/// first, in child order); additional auxiliary children — e.g. the
/// second `Sort` under a `Merge Join` — are narrated as standalone
/// steps, which keeps the composition operator binary as the paper
/// defines it.
fn cluster_pairs(root: &LotNode) -> Vec<Cluster> {
    let mut out = Vec::new();
    walk(root, &mut Vec::new(), &mut out);
    out
}

fn walk(node: &LotNode, path: &mut Vec<usize>, out: &mut Vec<Cluster>) {
    for (i, child) in node.children.iter().enumerate() {
        if child.poem.is_auxiliary() && child.poem.targets_op(&node.plan.op) {
            out.push(Cluster {
                critical_path: path.clone(),
                aux_child: i,
            });
            break; // one aux per critical
        }
    }
    for (i, child) in node.children.iter().enumerate() {
        path.push(i);
        walk(child, path, out);
        path.pop();
    }
}

/// Look up whether `path`'s node has a clustered auxiliary child, and
/// which one.
fn clustered_aux(clusters: &[Cluster], path: &[usize]) -> Option<usize> {
    clusters
        .iter()
        .find(|c| c.critical_path == path)
        .map(|c| c.aux_child)
}

/// Narrate a plan against any `PoemLookup` (paper Algorithm 1): the old
/// `narrate_with_lookup`.
fn oracle_narrate<L: PoemLookup>(tree: &PlanTree, lookup: &L) -> Result<Narration, CoreError> {
    let lot = build_lot(tree, lookup)?;
    let clusters = cluster_pairs(&lot.root);
    let mut ctx = Ctx {
        steps: Vec::new(),
        t_counter: 0,
        clusters,
    };
    visit(&lot.root, &mut Vec::new(), true, &mut ctx)?;
    Ok(Narration::from_steps(ctx.steps))
}

struct Ctx {
    steps: Vec<NarrationStep>,
    t_counter: usize,
    clusters: Vec<Cluster>,
}

/// Builder that renders the concrete and tagged texts in lockstep.
#[derive(Default)]
struct Emit {
    text: String,
    tagged: String,
    bindings: TagBinding,
}

impl Emit {
    fn lit(&mut self, s: &str) {
        self.text.push_str(s);
        self.tagged.push_str(s);
    }

    fn val(&mut self, tag: &str, concrete: &str) {
        self.text.push_str(concrete);
        self.tagged.push_str(tag);
        self.bindings.push((tag.to_string(), concrete.to_string()));
    }
}

/// Returns the name by which the parent refers to this node's output:
/// an intermediate identifier `Tk`, or the base relation name for an
/// unfiltered leaf scan.
fn visit(
    node: &LotNode,
    path: &mut Vec<usize>,
    is_root: bool,
    ctx: &mut Ctx,
) -> Result<String, CoreError> {
    // Resolve the clustered auxiliary child (if any), then recurse into
    // the effective children (the clustered auxiliary is skipped; its
    // child stands in for it) in post-order. The path buffer is shared
    // down the recursion instead of re-allocated per child.
    let aux_idx = clustered_aux(&ctx.clusters, path);
    let mut aux_node: Option<&LotNode> = None;
    let mut child_names = Vec::with_capacity(node.children.len());
    for (i, child) in node.children.iter().enumerate() {
        if Some(i) == aux_idx {
            aux_node = Some(child);
            let inner = child.children.first().ok_or_else(|| {
                CoreError::PlanError(format!("auxiliary operator {} has no child", child.plan.op))
            })?;
            path.push(i);
            path.push(0);
            child_names.push(visit(inner, path, false, ctx)?);
            path.pop();
            path.pop();
        } else {
            path.push(i);
            child_names.push(visit(child, path, false, ctx)?);
            path.pop();
        }
    }

    // Template for this step: composed when an auxiliary was clustered.
    // The composition equals `aux.poem.compose_with(&node.poem, None)`
    // but reuses the labels already derived during LOT annotation.
    let template = match aux_node {
        Some(aux) => format!("{} and {}", aux.label, node.label),
        None => node.label.clone(),
    };

    let mut e = Emit::default();
    render_template(&template, node, &child_names, aux_idx, &mut e);

    // Index scans mention the index used (tag <I>).
    if let Some(index_name) = &node.plan.index_name {
        e.lit(" using index ");
        e.val("<I>", index_name);
    }
    // Grouping keys (tag <G>), for aggregates.
    if !node.plan.group_keys.is_empty() {
        e.lit(" with grouping on attribute ");
        e.val("<G>", &node.plan.group_keys.join(", "));
    }
    // Standalone sorts mention their keys (tag <A>).
    if aux_node.is_none() && !node.plan.sort_keys.is_empty() && node.poem.name == "sort" {
        e.lit(" by ");
        e.val("<A>", &node.plan.sort_keys.join(", "));
    }
    // Filters / HAVING (tag <F>).
    if let Some(filter) = &node.plan.filter {
        e.lit(" and filtering on ");
        e.val("<F>", &humanize_predicate(filter));
    }

    // Intermediate identifier / final ending (Algorithm 1 lines 10-14).
    let leaf_passthrough = node.children.is_empty() && node.plan.filter.is_none();
    let name = if is_root {
        e.lit(" to get the final results.");
        String::new()
    } else if leaf_passthrough {
        e.lit(".");
        node.plan
            .relation
            .clone()
            .unwrap_or_else(|| node.name.clone())
    } else {
        ctx.t_counter += 1;
        let t = format!("T{}", ctx.t_counter);
        e.lit(" to get the intermediate relation ");
        e.val("<TN>", &t);
        e.lit(".");
        t
    };

    let mut ops = Vec::new();
    if let Some(aux) = aux_node {
        ops.push(aux.plan.op.clone());
    }
    ops.push(node.plan.op.clone());
    ctx.steps.push(NarrationStep {
        index: ctx.steps.len() + 1,
        ops,
        text: e.text,
        tagged: e.tagged,
        bindings: e.bindings,
    });
    Ok(name)
}

/// Substitute `$R1$`, `$R2$`, `$cond$` in a POOL template.
///
/// Convention (see `PoemObject::template`): for binary operators `$R1$`
/// is the input flowing through the clustered auxiliary operator (the
/// hashed/sorted side) and `$R2$` the other input — so `hash $R1$ and
/// perform hash join on $R2$ and $R1$` hashes the build side, as in
/// the paper's Example 5.1. Without an auxiliary, `$R2$` is the first
/// child and `$R1$` the second. Inputs are emitted with tag `<T>`.
fn render_template(
    template: &str,
    node: &LotNode,
    child_names: &[String],
    aux_idx: Option<usize>,
    e: &mut Emit,
) {
    let (r1_pos, r2_pos) = match aux_idx {
        Some(0) => (0, 1),
        _ => (1, 0),
    };
    let r1: &str = match child_names.len() {
        0 => node.plan.relation.as_deref().unwrap_or("its input"),
        1 => &child_names[0],
        _ => &child_names[r1_pos],
    };
    let r2: &str = match child_names.len() {
        0 | 1 => "its input",
        _ => &child_names[r2_pos],
    };

    let mut rest = template;
    loop {
        let next = ["$R1$", "$R2$", "$cond$"]
            .iter()
            .filter_map(|p| rest.find(p).map(|i| (i, *p)))
            .min_by_key(|(i, _)| *i);
        match next {
            None => {
                e.lit(rest);
                return;
            }
            Some((i, placeholder)) => {
                e.lit(&rest[..i]);
                match placeholder {
                    "$R1$" => e.val("<T>", r1),
                    "$R2$" => e.val("<T>", r2),
                    _ => match &node.plan.join_cond {
                        Some(c) => e.val("<C>", c),
                        // A condition-bearing template on a plan node
                        // without a condition (cross join): drop the
                        // dangling " on condition " connective.
                        None => {
                            truncate_trailing(e, " on condition ");
                        }
                    },
                }
                rest = &rest[i + placeholder.len()..];
            }
        }
    }
}

fn truncate_trailing(e: &mut Emit, suffix: &str) {
    if e.text.ends_with(suffix) {
        e.text.truncate(e.text.len() - suffix.len());
    }
    if e.tagged.ends_with(suffix) {
        e.tagged.truncate(e.tagged.len() - suffix.len());
    }
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Narrate `tree` both ways against `snapshot` and require the same
/// narration, step field by step field, or the same error.
fn assert_same(tree: &PlanTree, snapshot: &PoemSnapshot) -> Result<Narration, CoreError> {
    let new = narrate_with_lookup(tree, snapshot);
    let old = oracle_narrate(tree, snapshot);
    match (&new, &old) {
        (Ok(n), Ok(o)) => {
            assert_eq!(n.steps().len(), o.steps().len(), "{tree:?}");
            for (a, b) in n.steps().iter().zip(o.steps()) {
                assert_eq!(a.index, b.index, "{tree:?}");
                assert_eq!(a.ops, b.ops, "{tree:?}");
                assert_eq!(a.text, b.text, "{tree:?}");
                assert_eq!(a.tagged, b.tagged, "{tree:?}");
                assert_eq!(a.bindings, b.bindings, "{tree:?}");
            }
            assert_eq!(n, o);
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{tree:?}"),
        _ => panic!("new {new:?} but oracle {old:?} on {tree:?}"),
    }
    new
}

#[test]
fn generated_corpus_narrates_as_the_oracle_does() {
    let both = default_mssql_store().snapshot();
    let pg_only = default_pg_store().snapshot();
    let configs = [GenConfig::default(), GenConfig::default().with_ops(0, 12)];
    let (mut docs, mut narrated, mut failed) = (0, 0, 0);
    let mut formats = std::collections::BTreeSet::new();
    for (i, config) in configs.into_iter().enumerate() {
        let config = config
            .with_seed(0x0AC1E + i as u64)
            .with_duplicate_rate(0.2)
            .with_mutate_rate(0.3);
        for item in PlanGenerator::new(config).generate(1_100) {
            formats.insert(item.format.name());
            let tree = PlanSource::parse_auto(&item.doc).expect("generated documents parse");
            docs += 1;
            for snapshot in [&both, &pg_only] {
                match assert_same(&tree, snapshot) {
                    Ok(_) => narrated += 1,
                    Err(_) => failed += 1,
                }
            }
        }
    }
    assert_eq!(docs, 2_200);
    assert_eq!(formats.len(), 2, "{formats:?}");
    // The combined store narrates every document; the pg-only store
    // refuses the SQL Server ones.
    assert!(narrated >= docs, "{narrated} of {docs}");
    assert!(failed > 0);
}

fn seq_scan(relation: &str) -> PlanNode {
    PlanNode::new("Seq Scan").on_relation(relation)
}

fn pg(root: PlanNode) -> PlanTree {
    PlanTree::new("pg", root)
}

#[test]
fn the_first_unknown_operator_in_pre_order_is_reported() {
    let snapshot = default_pg_store().snapshot();
    let unknown = |tree: &PlanTree| match assert_same(tree, &snapshot) {
        Err(CoreError::UnknownOperator { source, op }) => {
            assert_eq!(source, "pg");
            op
        }
        other => panic!("{other:?}"),
    };
    // Two unknown operators in different subtrees: the left one wins.
    let left = PlanNode::new("Nested Loop").with_child(PlanNode::new("Warp Scan"));
    let right = PlanNode::new("Quantum Join").with_child(seq_scan("a"));
    let tree = pg(PlanNode::new("Hash Join")
        .with_child(left.clone())
        .with_child(right.clone()));
    assert_eq!(unknown(&tree), "Warp Scan");
    let tree = pg(PlanNode::new("Hash Join")
        .with_child(right)
        .with_child(left));
    assert_eq!(unknown(&tree), "Quantum Join");
    // An unknown operator over another: the parent, which post-order
    // would reach last.
    let tree = pg(PlanNode::new("Unique")
        .with_child(PlanNode::new("Quantum Join").with_child(PlanNode::new("Warp Scan"))));
    assert_eq!(unknown(&tree), "Quantum Join");
}

#[test]
fn an_unknown_operator_wins_over_an_auxiliary_without_a_child() {
    let snapshot = default_pg_store().snapshot();
    // The childless Hash comes first in either order; the unknown
    // operator sits in a later subtree and is still the error.
    let tree = pg(PlanNode::new("Nested Loop")
        .with_child(
            PlanNode::new("Hash Join")
                .with_child(seq_scan("a"))
                .with_child(PlanNode::new("Hash")),
        )
        .with_child(PlanNode::new("Quantum Scan")));
    let err = assert_same(&tree, &snapshot).unwrap_err();
    assert!(
        matches!(&err, CoreError::UnknownOperator { op, .. } if op == "Quantum Scan"),
        "{err:?}"
    );
    // Without it, the childless auxiliary is a plan error.
    let tree = pg(PlanNode::new("Hash Join")
        .with_child(seq_scan("a"))
        .with_child(PlanNode::new("Hash")));
    let err = assert_same(&tree, &snapshot).unwrap_err();
    assert_eq!(
        err,
        CoreError::PlanError("auxiliary operator Hash has no child".into())
    );
}

#[test]
fn clustering_corner_cases_narrate_as_the_oracle_does() {
    let snapshot = default_pg_store().snapshot();
    let sorted = |key: &str, relation: &str| {
        let mut sort = PlanNode::new("Sort");
        sort.sort_keys = vec![key.into()];
        sort.with_child(seq_scan(relation))
    };
    // A Merge Join over two Sorts: only the first clusters.
    let merge = pg(PlanNode::new("Merge Join")
        .with_join_cond("((a.x) = (b.y))")
        .with_child(sorted("a.x", "a"))
        .with_child(sorted("b.y", "b")));
    let narration = assert_same(&merge, &snapshot).unwrap();
    let ops: Vec<_> = narration.steps().iter().map(|s| s.ops.clone()).collect();
    assert_eq!(
        ops,
        vec![
            vec!["Seq Scan"],
            vec!["Seq Scan"],
            vec!["Sort"],
            vec!["Sort", "Merge Join"]
        ]
    );
    // The same Sorts under a Hash Join do not cluster; a Hash behind a
    // plain scan clusters as the second child; a Hash with two children
    // narrates only its first.
    let hash_join = pg(PlanNode::new("Hash Join")
        .with_child(sorted("a.x", "a"))
        .with_child(
            PlanNode::new("Hash")
                .with_child(seq_scan("b"))
                .with_child(seq_scan("c")),
        ));
    assert_same(&hash_join, &snapshot).unwrap();
    // A cross join: a condition template on a node with no condition.
    let cross = pg(PlanNode::new("Nested Loop")
        .with_child(seq_scan("region"))
        .with_child(seq_scan("part")));
    let narration = assert_same(&cross, &snapshot).unwrap();
    assert!(!narration.text().contains("on condition"));
}

#[test]
fn a_256_deep_chain_narrates_as_the_oracle_does() {
    let snapshot = default_pg_store().snapshot();
    let mut node = seq_scan("t").with_filter("x LIKE 'a%'");
    for depth in 1..256 {
        node = match depth % 4 {
            0 => {
                let mut sort = PlanNode::new("Sort");
                sort.sort_keys = vec![format!("k{depth}")];
                sort.with_child(node)
            }
            1 => PlanNode::new("Aggregate").with_child(node),
            2 => PlanNode::new("Unique").with_child(node),
            _ => PlanNode::new("Materialize").with_child(node),
        };
    }
    let tree = pg(node);
    assert_eq!(tree.root.depth(), 256);
    let narration = assert_same(&tree, &snapshot).unwrap();
    let covered: usize = narration.steps().iter().map(|s| s.ops.len()).sum();
    assert_eq!(covered, 256);
}

#[test]
fn a_2000_child_nested_loop_narrates_as_the_oracle_does() {
    let snapshot = default_pg_store().snapshot();
    let mut root = PlanNode::new("Nested Loop").with_join_cond("(a.x = b.y)");
    for i in 0..2_000 {
        root = root.with_child(match i % 3 {
            0 => seq_scan(&format!("r{i}")),
            1 => PlanNode::new("Hash").with_child(seq_scan(&format!("h{i}"))),
            _ => seq_scan(&format!("f{i}")).with_filter(format!("v > {i}")),
        });
    }
    let narration = assert_same(&pg(root), &snapshot).unwrap();
    assert_eq!(narration.steps().last().unwrap().ops, vec!["Nested Loop"]);
}
