//! RULE-LANTERN's narration procedure (paper §5.5, Algorithm 1).
//!
//! The LOT of §5.3 is the pairing of each plan node with its POEM
//! entry (the object, whose alias is the node's `name`, and its
//! `COMPOSE` template, the node's `label`). The entries are resolved
//! once, in pre-order, as references into the [`PoemSnapshot`]; the
//! plan tree is then traversed post-order, reading each node's entry by
//! its pre-order position. A node clusters with its first auxiliary
//! child that targets it (§5.4), and the pair is narrated as a single
//! step through the composition operator `∘`; every non-leaf (or
//! filtered) step is given an intermediate result identifier `T1, T2,
//! …` that later steps refer to; the root step ends with "to get the
//! final results."
//!
//! Each step is generated in *two* synchronized renderings: the
//! concrete text shown to learners, and the tag-abstracted text of
//! Table 1 used as neural training labels — plus the ordered tag
//! bindings linking them.

use crate::tags::TagBinding;
use lantern_plan::{PlanNode, PlanTree};
use lantern_pool::{PoemObject, PoemSnapshot, PoemStore};
use std::fmt;

/// Error raised while narrating a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The plan references an operator the POEM store has no entry for
    /// (the failure NEURON hits on SQL Server plans, paper US 5).
    UnknownOperator {
        /// Source system of the plan.
        source: String,
        /// Vendor operator name.
        op: String,
    },
    /// Malformed plan (e.g. an auxiliary node without a child).
    PlanError(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownOperator { source, op } => {
                write!(f, "operator '{op}' has no POEM entry for source '{source}'")
            }
            CoreError::PlanError(m) => write!(f, "plan error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// One narration step (= one *act*, in §6.2 terminology).
#[derive(Debug, Clone, PartialEq)]
pub struct NarrationStep {
    /// 1-based step number.
    pub index: usize,
    /// Vendor operator names covered by this step (auxiliary first
    /// when the step narrates a cluster).
    pub ops: Vec<String>,
    /// Concrete learner-facing sentence.
    pub text: String,
    /// Tag-abstracted sentence (Table 1).
    pub tagged: String,
    /// Ordered tag bindings: substituting them into `tagged` yields
    /// `text`.
    pub bindings: TagBinding,
}

/// A complete narration of one QEP.
#[derive(Debug, Clone, PartialEq)]
pub struct Narration {
    steps: Vec<NarrationStep>,
}

/// How a [`Narration`] is rendered into one string (the presentation
/// dimension of the paper's US 6 survey).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenderStyle {
    /// Numbered steps, one per line — the document format 38/43
    /// learners preferred in US 6.
    #[default]
    Numbered,
    /// Unnumbered sentences joined into one paragraph.
    Paragraph,
    /// Bulleted list, one step per line.
    Bulleted,
}

impl Narration {
    /// Assemble a narration from already-built steps (used by the
    /// neural and baseline backends and by deserialization).
    pub fn from_steps(steps: Vec<NarrationStep>) -> Self {
        Narration { steps }
    }

    /// Assemble a narration from bare sentences: steps are numbered in
    /// order, with no operator coverage, tag abstraction, or bindings
    /// (backends that do not produce the two synchronized renderings).
    pub fn from_sentences<I>(sentences: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        Narration {
            steps: sentences
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let text: String = s.into();
                    NarrationStep {
                        index: i + 1,
                        ops: Vec::new(),
                        tagged: text.clone(),
                        text,
                        bindings: TagBinding::new(),
                    }
                })
                .collect(),
        }
    }

    /// The steps in narration order.
    pub fn steps(&self) -> &[NarrationStep] {
        &self.steps
    }

    /// Document-style rendering: numbered steps, one per line (the
    /// presentation format 38/43 learners preferred in US 6).
    pub fn text(&self) -> String {
        self.render(RenderStyle::Numbered)
    }

    /// Render the narration in the requested [`RenderStyle`].
    pub fn render(&self, style: RenderStyle) -> String {
        match style {
            RenderStyle::Numbered => self
                .steps
                .iter()
                .map(|s| format!("{}. {}", s.index, s.text))
                .collect::<Vec<_>>()
                .join("\n"),
            RenderStyle::Paragraph => self
                .steps
                .iter()
                .map(|s| s.text.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            RenderStyle::Bulleted => self
                .steps
                .iter()
                .map(|s| format!("- {}", s.text))
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    /// All concrete sentences, unnumbered.
    pub fn sentences(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.text.as_str()).collect()
    }
}

/// The rule-based QEP-to-natural-language translator.
pub struct RuleLantern<'a> {
    store: &'a PoemStore,
}

impl<'a> RuleLantern<'a> {
    /// Create a translator over a POEM store.
    pub fn new(store: &'a PoemStore) -> Self {
        RuleLantern { store }
    }

    /// Narrate a plan (paper Algorithm 1) against one read snapshot
    /// of the POEM store.
    pub fn narrate(&self, tree: &PlanTree) -> Result<Narration, CoreError> {
        narrate_with_lookup(tree, &self.store.snapshot())
    }
}

/// Narrate a plan against a POEM snapshot (paper Algorithm 1).
///
/// This is the hot-path entry point: batch pipelines snapshot the store
/// once and call this for every plan, so no per-narration locking or
/// catalog assembly happens at all.
pub fn narrate_with_lookup(
    tree: &PlanTree,
    snapshot: &PoemSnapshot,
) -> Result<Narration, CoreError> {
    let mut entries = Vec::new();
    resolve(&tree.root, &tree.source, snapshot, &mut entries)?;
    let mut ctx = Ctx {
        steps: Vec::new(),
        t_counter: 0,
    };
    visit(&tree.root, 0, true, &entries, &mut ctx)?;
    Ok(Narration { steps: ctx.steps })
}

/// A node's POEM entry (its LOT annotation), borrowed from the
/// snapshot, at the node's pre-order position.
struct Entry<'s> {
    /// The POEM object; `n.name` is its display name.
    poem: &'s PoemObject,
    /// `n.label`: the default `COMPOSE` template.
    label: &'s str,
    /// Pre-order position one past the node's subtree, which is where
    /// its next sibling's entry sits.
    end: usize,
}

/// Resolve every node's entry in pre-order, so the first unknown
/// operator in pre-order is the one reported.
fn resolve<'s>(
    node: &PlanNode,
    source: &str,
    snapshot: &'s PoemSnapshot,
    out: &mut Vec<Entry<'s>>,
) -> Result<(), CoreError> {
    let (poem, label) =
        snapshot
            .entry(source, &node.op)
            .ok_or_else(|| CoreError::UnknownOperator {
                source: source.to_string(),
                op: node.op.clone(),
            })?;
    let at = out.len();
    out.push(Entry {
        poem,
        label,
        end: 0,
    });
    for c in &node.children {
        resolve(c, source, snapshot, out)?;
    }
    out[at].end = out.len();
    Ok(())
}

struct Ctx {
    steps: Vec<NarrationStep>,
    t_counter: usize,
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

/// Narrate the subtree of `node`, whose entry sits at pre-order
/// position `at`. Returns the name by which the parent refers to this
/// node's output: an intermediate identifier `Tk`, or the base relation
/// name for an unfiltered leaf scan.
fn visit(
    node: &PlanNode,
    at: usize,
    is_root: bool,
    entries: &[Entry<'_>],
    ctx: &mut Ctx,
) -> Result<String, CoreError> {
    let entry = &entries[at];
    // Recurse into the children in post-order. The clustered auxiliary
    // is the first child whose entry is auxiliary and targets this
    // node's operator; it is skipped and its first child stands in for
    // it. At most one per node keeps the composition operator binary
    // (a Merge Join's second Sort is narrated as its own step).
    let mut aux: Option<(usize, &PlanNode, &Entry<'_>)> = None;
    let mut child_names = Vec::with_capacity(node.children.len());
    let mut child_at = at + 1;
    for (i, child) in node.children.iter().enumerate() {
        let child_entry = &entries[child_at];
        let clusters = aux.is_none()
            && child_entry.poem.is_auxiliary()
            && child_entry.poem.targets_op(&node.op);
        let name = if clusters {
            aux = Some((i, child, child_entry));
            let inner = child.children.first().ok_or_else(|| {
                CoreError::PlanError(format!("auxiliary operator {} has no child", child.op))
            })?;
            visit(inner, child_at + 1, false, entries, ctx)?
        } else {
            visit(child, child_at, false, entries, ctx)?
        };
        child_names.push(name);
        child_at = child_entry.end;
    }

    // Template for this step: composed when an auxiliary was clustered.
    // The composition equals `aux.compose_with(node, None)` but reuses
    // the snapshot's precomputed labels.
    let composed;
    let template = match aux {
        Some((_, _, aux_entry)) => {
            composed = format!("{} and {}", aux_entry.label, entry.label);
            composed.as_str()
        }
        None => entry.label,
    };

    let mut e = Emit::default();
    let aux_idx = aux.map(|(i, _, _)| i);
    render_template(template, node, &child_names, aux_idx, &mut e);

    // Index scans mention the index used (tag <I>).
    if let Some(index_name) = &node.index_name {
        e.lit(" using index ");
        e.val("<I>", index_name);
    }
    // Grouping keys (tag <G>), for aggregates.
    if !node.group_keys.is_empty() {
        e.lit(" with grouping on attribute ");
        e.val("<G>", &node.group_keys.join(", "));
    }
    // Standalone sorts mention their keys (tag <A>).
    if aux.is_none() && !node.sort_keys.is_empty() && entry.poem.name == "sort" {
        e.lit(" by ");
        e.val("<A>", &node.sort_keys.join(", "));
    }
    // Filters / HAVING (tag <F>).
    if let Some(filter) = &node.filter {
        e.lit(" and filtering on ");
        e.val("<F>", &humanize_predicate(filter));
    }

    // Intermediate identifier / final ending (Algorithm 1 lines 10-14).
    let leaf_passthrough = node.children.is_empty() && node.filter.is_none();
    let name = if is_root {
        e.lit(" to get the final results.");
        String::new()
    } else if leaf_passthrough {
        e.lit(".");
        node.relation
            .clone()
            .unwrap_or_else(|| entry.poem.display_name().to_string())
    } else {
        ctx.t_counter += 1;
        let t = format!("T{}", ctx.t_counter);
        e.lit(" to get the intermediate relation ");
        e.val("<TN>", &t);
        e.lit(".");
        t
    };

    let mut ops = Vec::new();
    if let Some((_, aux_node, _)) = aux {
        ops.push(aux_node.op.clone());
    }
    ops.push(node.op.clone());
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
    node: &PlanNode,
    child_names: &[String],
    aux_idx: Option<usize>,
    e: &mut Emit,
) {
    let (r1_pos, r2_pos) = match aux_idx {
        Some(0) => (0, 1),
        _ => (1, 0),
    };
    let r1: &str = match child_names.len() {
        0 => node.relation.as_deref().unwrap_or("its input"),
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
                    _ => match &node.join_cond {
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

/// Make predicates read naturally (the paper renders
/// `title LIKE '%July%'` as `(title containing 'July')` and
/// `count(*)` as `count(all)`).
pub fn humanize_predicate(pred: &str) -> String {
    let s = rewrite_likes(pred.trim())
        .replace("COUNT(*)", "count(all)")
        .replace("count(*)", "count(all)");
    // The paper parenthesizes filter conditions.
    if s.starts_with('(') && s.ends_with(')') {
        s
    } else {
        format!("({s})")
    }
}

/// Rewrite every ` LIKE 'pattern'` (any case) as ` containing 'p'`,
/// ` starting with 'p'`, ` ending with 'p'` or ` matching 'p'`, in one
/// forward pass. The rewritten text is scanned again exactly where it
/// can hold a match: a rewrite ending in ` LIKE '` (from a pattern like
/// `'% LIKE %'`) opens the next match, whose pattern runs on into the
/// rest of the predicate. No match can start earlier in a rewrite or
/// span its start, so this equals restarting the search from byte 0
/// after every rewrite, without the quadratic cost.
fn rewrite_likes(s: &str) -> String {
    const LIKE: &str = " LIKE '";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    loop {
        let reopened = out.len() >= LIKE.len()
            && out.as_bytes()[out.len() - LIKE.len()..].eq_ignore_ascii_case(LIKE.as_bytes());
        let (lead, after) = if reopened {
            (0, rest)
        } else {
            match find_ci(rest, LIKE) {
                Some(i) => (i, &rest[i + LIKE.len()..]),
                None => break,
            }
        };
        let Some(end) = after.find('\'') else {
            break;
        };
        if reopened {
            out.truncate(out.len() - LIKE.len());
        } else {
            out.push_str(&rest[..lead]);
        }
        let pattern = &after[..end];
        let (phrase, kept) = match (pattern.starts_with('%'), pattern.ends_with('%')) {
            (true, true) => (" containing '", pattern.trim_matches('%')),
            (false, true) => (" starting with '", pattern.trim_end_matches('%')),
            (true, false) => (" ending with '", pattern.trim_start_matches('%')),
            (false, false) => (" matching '", pattern),
        };
        out.push_str(phrase);
        out.push_str(kept);
        out.push('\'');
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    out
}

fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() {
        return Some(0);
    }
    if h.len() < n.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&i| h[i..i + n.len()].eq_ignore_ascii_case(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::substitute_tags;
    use lantern_plan::PlanNode;
    use lantern_pool::default_pg_store;

    /// The paper's Figure 4 tree (Examples 3.1 / 5.1).
    fn figure_4() -> PlanTree {
        PlanTree::new(
            "pg",
            PlanNode::new("Unique").with_child({
                let mut agg = PlanNode::new("Aggregate");
                agg.group_keys = vec!["i.proceeding_key".to_string()];
                agg.filter = Some("count(*) > 200".to_string());
                agg.with_child({
                    let mut sort = PlanNode::new("Sort");
                    sort.sort_keys = vec!["i.proceeding_key".to_string()];
                    sort.with_child(
                        PlanNode::new("Hash Join")
                            .with_join_cond("((i.proceeding_key) = (p.pub_key))")
                            .with_child(PlanNode::new("Seq Scan").on_relation("inproceedings"))
                            .with_child(
                                PlanNode::new("Hash").with_child(
                                    PlanNode::new("Seq Scan")
                                        .on_relation("publication")
                                        .with_filter("title LIKE '%July%'"),
                                ),
                            ),
                    )
                })
            }),
        )
    }

    #[test]
    fn example_5_1_narration() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let steps = narration.steps();
        assert_eq!(steps.len(), 5, "{}", narration.text());
        // Step 1: unfiltered scan — no intermediate identifier.
        assert_eq!(steps[0].text, "perform sequential scan on inproceedings.");
        // Step 2: filtered scan -> T1.
        assert_eq!(
            steps[1].text,
            "perform sequential scan on publication and filtering on \
             (title containing 'July') to get the intermediate relation T1."
        );
        // Step 3: hash+hash join composed; hashes T1, probes inproceedings.
        assert_eq!(
            steps[2].text,
            "hash T1 and perform hash join on inproceedings and T1 on condition \
             ((i.proceeding_key) = (p.pub_key)) to get the intermediate relation T2."
        );
        // Step 4: sort+aggregate composed with grouping and having.
        assert_eq!(
            steps[3].text,
            "sort T2 and perform aggregate on T2 with grouping on attribute \
             i.proceeding_key and filtering on (count(all) > 200) \
             to get the intermediate relation T3."
        );
        // Step 5: duplicate removal, final.
        assert_eq!(
            steps[4].text,
            "perform duplicate removal on T3 to get the final results."
        );
    }

    #[test]
    fn tagged_rendering_round_trips() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        for step in narration.steps() {
            assert_eq!(
                substitute_tags(&step.tagged, &step.bindings),
                step.text,
                "tagged: {}",
                step.tagged
            );
        }
        // Spot-check one abstraction.
        assert_eq!(
            narration.steps()[1].tagged,
            "perform sequential scan on <T> and filtering on <F> \
             to get the intermediate relation <TN>."
        );
    }

    #[test]
    fn ops_cover_clusters() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        assert_eq!(narration.steps()[2].ops, vec!["Hash", "Hash Join"]);
        assert_eq!(narration.steps()[3].ops, vec!["Sort", "Aggregate"]);
        assert_eq!(narration.steps()[4].ops, vec!["Unique"]);
    }

    #[test]
    fn document_text_is_numbered() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let text = narration.text();
        assert!(text.starts_with("1. perform sequential scan"));
        assert!(text.contains("\n5. perform duplicate removal"));
    }

    #[test]
    fn humanize_like_patterns() {
        assert_eq!(
            humanize_predicate("title LIKE '%July%'"),
            "(title containing 'July')"
        );
        assert_eq!(
            humanize_predicate("name LIKE 'Jo%'"),
            "(name starting with 'Jo')"
        );
        assert_eq!(
            humanize_predicate("name LIKE '%son'"),
            "(name ending with 'son')"
        );
        assert_eq!(humanize_predicate("count(*) > 200"), "(count(all) > 200)");
        assert_eq!(humanize_predicate("(a > 1)"), "(a > 1)");
        // A rewrite that ends in ` LIKE '` opens the next match.
        assert_eq!(
            humanize_predicate("a LIKE '% LIKE %'b'"),
            "(a containing ' matching 'b')"
        );
    }

    /// The splice-and-rescan rewrite `humanize_predicate` replaced, kept
    /// as the oracle its forward pass must match byte for byte.
    fn humanize_oracle(pred: &str) -> String {
        let mut s = pred.trim().to_string();
        while let Some(pos) = find_ci(&s, " LIKE '") {
            let pat_start = pos + " LIKE '".len();
            let Some(rel_end) = s[pat_start..].find('\'') else {
                break;
            };
            let pat_end = pat_start + rel_end;
            let pattern = s[pat_start..pat_end].to_string();
            let replacement = match (pattern.starts_with('%'), pattern.ends_with('%')) {
                (true, true) => format!(" containing '{}'", pattern.trim_matches('%')),
                (false, true) => format!(" starting with '{}'", pattern.trim_end_matches('%')),
                (true, false) => format!(" ending with '{}'", pattern.trim_start_matches('%')),
                (false, false) => format!(" matching '{pattern}'"),
            };
            s.replace_range(pos..pat_end + 1, &replacement);
        }
        s = s
            .replace("COUNT(*)", "count(all)")
            .replace("count(*)", "count(all)");
        if s.starts_with('(') && s.ends_with(')') {
            s
        } else {
            format!("({s})")
        }
    }

    /// Predicates assembled from `LIKE` fragments in every case, bare
    /// quotes and `%`, and patterns that themselves hold ` LIKE `, so a
    /// rewrite's own text can open the next match.
    fn like_soup() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec(
            prop_oneof![
                Just(" LIKE '"),
                Just(" like '"),
                Just(" LiKe '"),
                Just(" LIKE "),
                Just(" LIKE"),
                Just("LIKE '"),
                Just("'"),
                Just("''"),
                Just("%"),
                Just("'% LIKE %'"),
                Just("% LIKE %"),
                Just(" LIKE '% LIKE '"),
                Just("title"),
                Just("é"),
                Just(" OR "),
                Just(" "),
                Just("("),
                Just(")"),
                Just("COUNT(*)"),
                Just("count(*)"),
            ],
            0..24,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        #[test]
        fn humanize_matches_the_rescanning_rewrite(pred in like_soup()) {
            proptest::prop_assert_eq!(humanize_predicate(&pred), humanize_oracle(&pred));
        }
    }

    /// The rewrite used to restart from byte 0 and splice in place for
    /// each `LIKE`: quadratic, ~87 s for a 640 KB filter. A 1 MiB filter
    /// of `LIKE`s now narrates in well under a second, debug build.
    #[test]
    fn a_mebibyte_of_like_predicates_narrates_in_linear_time() {
        let mut filter = String::from("x LIKE '%a%'");
        while filter.len() < 1 << 20 {
            filter.push_str(" OR x LIKE '%a%'");
        }
        let tree = PlanTree::new(
            "pg",
            PlanNode::new("Seq Scan")
                .on_relation("t")
                .with_filter(filter.as_str()),
        );
        let store = default_pg_store();
        let started = std::time::Instant::now();
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "took {elapsed:?}"
        );
        let humanized = humanize_predicate(&filter);
        assert!(humanized.starts_with("(x containing 'a' OR x containing 'a'"));
        assert!(narration.steps()[0].text.contains(&humanized));
        let small = "x LIKE '%a%' OR y LIKE 'b%' OR z LIKE '%c'";
        assert_eq!(humanize_predicate(small), humanize_oracle(small));
    }

    #[test]
    fn cross_join_drops_dangling_condition() {
        let store = default_pg_store();
        let tree = PlanTree::new(
            "pg",
            PlanNode::new("Nested Loop")
                .with_child(PlanNode::new("Seq Scan").on_relation("region"))
                .with_child(PlanNode::new("Seq Scan").on_relation("part")),
        );
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        let last = narration.steps().last().unwrap();
        assert!(!last.text.contains("on condition"), "{}", last.text);
        assert!(last
            .text
            .contains("perform nested loop join on region and part"));
    }

    #[test]
    fn merge_join_with_two_sorts_narrates_second_sort_standalone() {
        let store = default_pg_store();
        let mut sort_a = PlanNode::new("Sort");
        sort_a.sort_keys = vec!["a.x".into()];
        let mut sort_b = PlanNode::new("Sort");
        sort_b.sort_keys = vec!["b.y".into()];
        let tree = PlanTree::new(
            "pg",
            PlanNode::new("Merge Join")
                .with_join_cond("((a.x) = (b.y))")
                .with_child(sort_a.with_child(PlanNode::new("Seq Scan").on_relation("a")))
                .with_child(sort_b.with_child(PlanNode::new("Seq Scan").on_relation("b"))),
        );
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        let text = narration.text();
        // First sort composed into the merge join step; second sort is
        // its own step producing an intermediate.
        assert!(
            text.contains("sort b by b.y to get the intermediate relation T1"),
            "{text}"
        );
        // The clustered sort covers the left input `a`; the template's
        // $R1$ binds to the sorted side, $R2$ to the other input.
        assert!(
            text.contains("sort a and perform merge join on T1 and a"),
            "{text}"
        );
    }

    #[test]
    fn index_scan_mentions_index() {
        let store = default_pg_store();
        let mut scan = PlanNode::new("Index Scan").on_relation("orders");
        scan.index_name = Some("orders_o_orderkey_idx".into());
        scan.filter = Some("o_orderkey < 100".into());
        let tree = PlanTree::new("pg", scan);
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        let step = &narration.steps()[0];
        assert!(
            step.text.contains("using index orders_o_orderkey_idx"),
            "{}",
            step.text
        );
        assert!(step.tagged.contains("<I>"));
    }

    #[test]
    fn mssql_plan_narrates_with_mssql_store() {
        use lantern_pool::default_mssql_store;
        let store = default_mssql_store();
        let tree = PlanTree::new(
            "mssql",
            PlanNode::new("Hash Match")
                .with_join_cond("((s.bestobjid) = (p.objid))")
                .with_child(PlanNode::new("Table Scan").on_relation("photoobj"))
                .with_child(
                    PlanNode::new("Hash Build")
                        .with_child(PlanNode::new("Table Scan").on_relation("specobj")),
                ),
        );
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        let text = narration.text();
        assert!(
            text.contains("hash specobj and perform hash match join"),
            "{text}"
        );
    }

    #[test]
    fn single_node_plan_is_final_step() {
        let store = default_pg_store();
        let tree = PlanTree::new("pg", PlanNode::new("Seq Scan").on_relation("nation"));
        let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
        assert_eq!(narration.steps().len(), 1);
        assert_eq!(
            narration.steps()[0].text,
            "perform sequential scan on nation to get the final results."
        );
    }
}
