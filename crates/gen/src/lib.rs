//! # lantern-gen
//!
//! Seeded, deterministic generator of random-but-valid `EXPLAIN`
//! artifacts: the workload source for load testing (servebench, the
//! binary's tier-1 test) and parser fuzzing.
//!
//! The bundled fixtures are a few dozen artifacts; a classroom is
//! thousands of students pasting plans all day. This crate closes that
//! gap by synthesizing realistic operator trees over the bundled
//! benchmark catalogs (TPC-H, SDSS, IMDB, DBLP) and rendering them in
//! both wire formats the system parses — PostgreSQL `EXPLAIN (FORMAT
//! JSON)` and SQL Server `ShowPlanXML` — with tunable depth, operator
//! mix, and duplicate rate. Duplicates are what exercise the narration
//! cache; [`Mutation`]s produce *nearly identical* plans (swapped join
//! inputs, jittered estimates, tweaked filter constants) that probe
//! the fingerprint boundary.
//!
//! Everything derives from one seed: the same [`GenConfig`] always
//! yields the byte-identical artifact stream, so a workload quoted in
//! a bench report can be regenerated exactly, anywhere.
//!
//! ```
//! use lantern_gen::{ArtifactFormat, GenConfig, PlanGenerator, StreamKind};
//!
//! let mut gen = PlanGenerator::new(GenConfig::default().with_duplicate_rate(0.5));
//! let items = gen.generate(100);
//! assert_eq!(items.len(), 100);
//! assert!(items.iter().any(|p| p.format == ArtifactFormat::PgJson));
//! assert!(items.iter().any(|p| matches!(p.kind, StreamKind::Duplicate { .. })));
//! ```
//!
//! Every generated artifact round-trips `PlanSource::detect` → parse →
//! narrate (property-tested in `tests/gen_narrate.rs` at the workspace
//! root), which makes the generator double as a fuzzer for the plan
//! parsers.

pub mod config;
pub mod generator;
pub mod mutate;

pub use config::{ArtifactFormat, FormatMix, GenConfig};
pub use generator::{GeneratedPlan, PlanGenerator, StreamKind, TableInfo};
pub use mutate::{apply_mutation, mutate_tree, Mutation};

/// Alias for [`Mutation`] under the name downstream diff tooling uses.
pub type MutationKind = Mutation;

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan};

    #[test]
    fn same_seed_same_config_is_byte_identical() {
        let mk = || {
            PlanGenerator::new(
                GenConfig::default()
                    .with_seed(77)
                    .with_duplicate_rate(0.3)
                    .with_mutate_rate(0.2),
            )
        };
        let a: Vec<_> = mk().generate(500);
        let b: Vec<_> = mk().generate(500);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.format, y.format);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = PlanGenerator::new(GenConfig::default().with_seed(1)).next_fresh();
        let b = PlanGenerator::new(GenConfig::default().with_seed(2)).next_fresh();
        assert_ne!(a.doc, b.doc);
    }

    #[test]
    fn fresh_artifacts_are_pairwise_distinct() {
        let mut gen = PlanGenerator::new(GenConfig::default().with_seed(5));
        let docs: Vec<String> = (0..1000).map(|_| gen.next_fresh().doc).collect();
        let mut unique: Vec<&String> = docs.iter().collect();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            docs.len(),
            "serial stamping must keep fresh artifacts distinct"
        );
    }

    #[test]
    fn both_formats_parse_back() {
        let mut gen = PlanGenerator::new(GenConfig::default().with_seed(9));
        for _ in 0..200 {
            let tree = gen.next_tree();
            let json = PlanGenerator::render(&tree, ArtifactFormat::PgJson);
            let back = parse_pg_json_plan(&json).expect("pg json parses");
            assert_eq!(back, tree, "pg json round-trips losslessly");
            let xml = PlanGenerator::render(&tree, ArtifactFormat::SqlServerXml);
            let ms = parse_sqlserver_xml_plan(&xml).expect("showplan parses");
            assert_eq!(ms.size(), tree.size(), "xml keeps every operator");
        }
    }

    #[test]
    fn duplicate_rate_is_respected() {
        let mut gen =
            PlanGenerator::new(GenConfig::default().with_seed(11).with_duplicate_rate(0.75));
        let items = gen.generate(2000);
        let dups = items
            .iter()
            .filter(|p| matches!(p.kind, StreamKind::Duplicate { .. }))
            .count();
        let rate = dups as f64 / items.len() as f64;
        assert!(
            (rate - 0.75).abs() < 0.05,
            "observed duplicate rate {rate} too far from configured 0.75"
        );
    }

    #[test]
    fn duplicates_replay_verbatim() {
        let mut gen =
            PlanGenerator::new(GenConfig::default().with_seed(13).with_duplicate_rate(0.5));
        let items = gen.generate(500);
        for item in &items {
            if let StreamKind::Duplicate { of } = item.kind {
                let original = items
                    .iter()
                    .find(|p| p.kind == StreamKind::Fresh && p.serial == of)
                    .expect("duplicate refers to an earlier fresh artifact");
                assert_eq!(item.doc, original.doc);
            }
        }
    }

    #[test]
    fn mutants_differ_from_their_parent() {
        let mut gen = PlanGenerator::new(GenConfig::default().with_seed(17).with_mutate_rate(0.5));
        let items = gen.generate(500);
        let mut saw_mutant = false;
        for item in &items {
            if let StreamKind::Mutant { of, .. } = item.kind {
                saw_mutant = true;
                let original = items
                    .iter()
                    .find(|p| p.kind == StreamKind::Fresh && p.serial == of)
                    .expect("mutant refers to an earlier fresh artifact");
                assert_ne!(
                    item.doc, original.doc,
                    "a mutant must not be byte-identical"
                );
            }
        }
        assert!(saw_mutant);
    }

    #[test]
    fn serial_stamps_can_be_suppressed() {
        // Same seed, stamping on vs off: the only difference between
        // the streams is the stamped leaf filter — RNG consumption is
        // identical, so tree shapes match pairwise.
        let mut stamped = PlanGenerator::new(GenConfig::default().with_seed(21));
        let mut bare =
            PlanGenerator::new(GenConfig::default().with_seed(21).with_serial_stamps(false));
        for _ in 0..50 {
            let mut a = stamped.next_tree();
            let mut b = bare.next_tree();
            assert_eq!(a.size(), b.size(), "stamping must not change shape");
            // Clearing the first leaf filter on both sides removes the
            // stamp (and whatever filter it replaced): the trees must
            // then be identical — the flag gates only the stamp.
            strip_first_leaf_filter(&mut a.root);
            strip_first_leaf_filter(&mut b.root);
            assert_eq!(a, b);
        }
    }

    fn strip_first_leaf_filter(node: &mut lantern_plan::PlanNode) -> bool {
        if node.children.is_empty() {
            if node.relation.is_some() {
                node.filter = None;
                return true;
            }
            return false;
        }
        node.children.iter_mut().any(strip_first_leaf_filter)
    }

    #[test]
    fn targeted_mutations_apply_exactly_one_kind() {
        let mut gen = PlanGenerator::new(
            GenConfig::default()
                .with_seed(23)
                .with_ops(2, 4)
                .with_serial_stamps(false),
        );
        let mut applied = [0usize; 3];
        for _ in 0..100 {
            let tree = gen.next_tree();
            for (i, kind) in Mutation::ALL.into_iter().enumerate() {
                let Some(mutant) = gen.mutate_as(&tree, kind) else {
                    continue;
                };
                applied[i] += 1;
                assert_ne!(mutant, tree, "{} must change the tree", kind.name());
            }
            // The untargeted path reports which kind it injected.
            let (mutant, kind) = gen.mutate(&tree);
            assert_ne!(mutant, tree, "{}", kind.name());
        }
        // Jitter always applies; the structural kinds apply often on
        // multi-op plans.
        assert_eq!(applied[1], 100);
        assert!(applied[0] > 0, "no swappable join seen in 100 plans");
        assert!(applied[2] > 0, "no tweakable filter seen in 100 plans");
    }

    #[test]
    fn single_catalog_generator_scans_only_that_catalog() {
        let catalog = lantern_catalog::tpch_catalog();
        let names: Vec<String> = catalog.tables().iter().map(|t| t.name.clone()).collect();
        let mut gen = PlanGenerator::from_catalog(&catalog, GenConfig::default());
        for _ in 0..50 {
            let tree = gen.next_tree();
            for rel in tree.root.relations() {
                assert!(names.iter().any(|n| n == rel), "unknown relation {rel}");
            }
        }
    }

    #[test]
    fn ops_budget_bounds_plan_size() {
        let mut gen = PlanGenerator::new(GenConfig::default().with_seed(3).with_ops(0, 0));
        for _ in 0..20 {
            let tree = gen.next_tree();
            // Budget 0 is a bare scan leaf.
            assert_eq!(tree.size(), 1);
        }
    }
}
