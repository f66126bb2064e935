//! # lantern-text
//!
//! Text foundation layer for the LANTERN reproduction: tokenization,
//! vocabularies, n-gram statistics, machine-translation metrics
//! (BLEU / Self-BLEU), edit distance, and small self-contained JSON and
//! XML readers/writers.
//!
//! The JSON and XML support exists because query-plan artifacts are
//! exchanged in PostgreSQL-style JSON `EXPLAIN` output and SQL
//! Server-style XML showplans; the sanctioned offline dependency set has
//! no `serde_json`/XML crate, so this crate ships minimal, fully tested
//! implementations. Each format has one tokenizer, a pull reader
//! ([`JsonReader`], [`XmlReader`]) that borrows from the input and
//! decodes only what its caller keeps; the [`JsonValue`] and [`XmlNode`]
//! trees are built on those readers.
//!
//! # Example
//!
//! ```
//! use lantern_text::{bleu, tokenize, BleuConfig};
//! use lantern_text::json::JsonValue;
//!
//! // Tokenize + BLEU, the metric the paper evaluates translations with:
//! let hyp = tokenize("perform hash join on t1 and t2");
//! let r = tokenize("perform hash join on t1 and t2");
//! let refs: Vec<&[String]> = vec![&r];
//! assert!((bleu(&hyp, &refs, BleuConfig::default()) - 1.0).abs() < 1e-9);
//!
//! // Deterministic JSON (sorted keys), used for plan parsing and the
//! // service wire format:
//! let v = JsonValue::parse(r#"{"b": 1, "a": [true, null]}"#).unwrap();
//! assert_eq!(v.to_string_compact(), r#"{"a":[true,null],"b":1}"#);
//! ```

pub mod bleu;
pub mod edit;
pub mod json;
pub mod ngram;
pub mod tokenize;
pub mod vocab;
pub mod xml;

pub use bleu::{bleu, corpus_bleu, self_bleu, BleuConfig};
pub use edit::{levenshtein, token_edit_distance};
pub use json::{JsonError, JsonReader, JsonValue};
pub use ngram::NgramCounts;
pub use tokenize::{detokenize, tokenize, word_tokenize};
pub use vocab::Vocab;
pub use xml::{XmlError, XmlEvent, XmlNode, XmlReader};

/// The deepest nesting either document reader accepts: JSON objects
/// and arrays for [`JsonReader`], open elements for [`XmlReader`]. A
/// document nested deeper fails with the reader's ordinary error, so
/// every consumer (plan parsers, request envelopes, shard keys) refuses
/// it before any recursive walk can exhaust a thread's stack. Real
/// plans nest a few dozen levels.
pub const MAX_DEPTH: usize = 256;
