//! Property-based integration over `lantern-gen`: every artifact the
//! generator emits — any seed, any format, duplicates and mutants
//! included — must auto-detect, parse, and narrate on all three
//! backends. This doubles as a fuzzer for the PG-JSON and SQL-Server-
//! XML parsers: the generator walks regions of the artifact space no
//! hand-written fixture covers.
//!
//! Backend expectations:
//!
//! * **rule** and **neural** narrate both vendor formats (their POEM
//!   store spans the combined pg + mssql vocabulary);
//! * **NEURON** narrates PostgreSQL plans but answers SQL Server XML
//!   with a *structured* [`LanternError::Backend`] — its hard-coded
//!   PostgreSQL rules are the baseline's defining limitation (paper
//!   US 5), and that limitation must surface as a typed error, never a
//!   panic or a wrong narration.

use lantern::core::PlanFormat;
use lantern::gen::{ArtifactFormat, GenConfig, PlanGenerator};
use lantern::neural::Qep2SeqConfig;
use lantern::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

/// All three backends, built once: the tiny neural model costs a few
/// hundred milliseconds to train and is shared across every proptest
/// case (translation *quality* is not under test — totality is).
fn backends() -> &'static (RuleTranslator, NeuralLantern, Neuron) {
    static BACKENDS: OnceLock<(RuleTranslator, NeuralLantern, Neuron)> = OnceLock::new();
    BACKENDS.get_or_init(|| {
        let store = lantern::pool::default_mssql_store();
        let db = Database::generate(&dblp_catalog(), 0.0003, 5);
        let mut config = Qep2SeqConfig {
            hidden: 16,
            ..Default::default()
        };
        config.train.epochs = 2;
        let (neural, _) = NeuralLantern::train_on(&db, &store, 10, config, 9);
        (RuleTranslator::new(store), neural, Neuron::new())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed, duplicate/mutant mix on: detect → parse → narrate
    /// holds for every emitted artifact.
    #[test]
    fn every_artifact_narrates_on_all_backends(seed in any::<u64>()) {
        let (rule, neural, neuron) = backends();
        let config = GenConfig::default()
            .with_seed(seed)
            .with_duplicate_rate(0.2)
            .with_mutate_rate(0.2);
        for item in PlanGenerator::new(config).generate(6) {
            // Format sniffing agrees with what the generator claims.
            let detected = PlanSource::detect(&item.doc)
                .map_err(|e| format!("detect: {e}"))?;
            let expected = match item.format {
                ArtifactFormat::PgJson => PlanFormat::PgJson,
                ArtifactFormat::SqlServerXml => PlanFormat::SqlServerXml,
            };
            prop_assert!(
                detected == expected,
                "detected {detected:?}, generator claims {expected:?}; doc: {}",
                item.doc
            );

            let req = NarrationRequest::auto(item.doc.as_str())
                .map_err(|e| format!("parse: {e}\ndoc: {}", item.doc))?;

            // rule + neural: total over both vendor vocabularies.
            for (name, response) in [
                ("rule", rule.narrate(&req)),
                ("neural", neural.narrate(&req)),
            ] {
                let response = response.map_err(|e| format!("{name}: {e}\ndoc: {}", item.doc))?;
                prop_assert!(!response.text.is_empty(), "{} gave empty text", name);
            }

            // NEURON: pg narrates; mssql is a structured backend error.
            match item.format {
                ArtifactFormat::PgJson => {
                    let response = neuron
                        .narrate(&req)
                        .map_err(|e| format!("neuron: {e}\ndoc: {}", item.doc))?;
                    prop_assert!(!response.text.is_empty());
                }
                ArtifactFormat::SqlServerXml => {
                    match neuron.narrate(&req) {
                        Err(LanternError::Backend { .. }) => {}
                        Err(other) => {
                            return Err(format!(
                                "neuron answered XML with {other:?}, want Backend error"
                            ));
                        }
                        Ok(_) => {
                            return Err(
                                "neuron narrated SQL Server XML it has no rules for".to_string()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Same seed + config → byte-identical streams, from independent
    /// generator instances (the crate pins this too; repeating it here
    /// guards the facade re-export path end to end).
    #[test]
    fn generation_is_deterministic_across_instances(seed in any::<u64>()) {
        let config = GenConfig::default()
            .with_seed(seed)
            .with_duplicate_rate(0.4)
            .with_mutate_rate(0.3);
        let a: Vec<String> = PlanGenerator::new(config.clone())
            .generate(16)
            .into_iter()
            .map(|item| item.doc)
            .collect();
        let b: Vec<String> = PlanGenerator::new(config)
            .generate(16)
            .into_iter()
            .map(|item| item.doc)
            .collect();
        prop_assert_eq!(a, b);
    }
}

/// A seeded stream replayed through the default narration cache hits
/// at the stream's duplicate rate: fresh artifacts are pairwise
/// distinct (serial-stamped) and every replay comes from a history
/// ring the default cache holds whole, so the hit ratio departs from
/// the configured rate only by sampling noise.
#[test]
fn cache_hit_ratio_tracks_the_stream_duplicate_rate() {
    const REQUESTS: usize = 1_000;
    for (i, dup_rate) in [0.0, 0.5, 0.9].into_iter().enumerate() {
        let cached = CachedTranslator::new(
            RuleTranslator::new(lantern::pool::default_mssql_store()),
            CacheConfig::default(),
        );
        let config = GenConfig::default()
            .with_seed(0xD0 + i as u64)
            .with_duplicate_rate(dup_rate);
        for item in PlanGenerator::new(config).generate(REQUESTS) {
            let req = NarrationRequest::auto(item.doc.as_str()).expect("generated doc detects");
            cached.narrate(&req).expect("generated doc narrates");
        }
        let stats = cached.cache().stats();
        assert_eq!(stats.hits + stats.misses, REQUESTS as u64);
        let hit_ratio = stats.hits as f64 / REQUESTS as f64;
        assert!(
            (hit_ratio - dup_rate).abs() <= 0.05,
            "hit ratio {hit_ratio:.3} drifted from duplicate rate {dup_rate}"
        );
    }
}
