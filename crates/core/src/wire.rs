//! Stable JSON wire format for narrations, so service responses can be
//! serialized, stored, and replayed across versions. The shape is:
//!
//! ```json
//! {"steps": [{"index": 1,
//!             "ops": ["Hash", "Hash Join"],
//!             "text": "hash T1 and ...",
//!             "tagged": "hash <T> and ...",
//!             "bindings": [["<T>", "T1"]]}]}
//! ```
//!
//! The service's 200 bodies — [`NarrationResponse::write_json`] and
//! [`DiffResponse::write_json`] — use the same shape for their
//! `narration` field.
//!
//! The writers here stream straight into a `String` through
//! `lantern_text`'s shared escaper and number formatter, with object
//! keys in sorted order: byte for byte what the `JsonValue` DOM
//! ([`Narration::to_json_value`]) renders, without building it.

use crate::api::{DiffResponse, NarrationResponse};
use crate::narrate::{Narration, NarrationStep};
use crate::tags::TagBinding;
use lantern_text::json::{write_number, write_string, JsonError, JsonValue};
use std::collections::BTreeMap;

/// Append `items` as a JSON array, each written by `write_item`.
fn write_array<T>(out: &mut String, items: &[T], mut write_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

fn shape_err(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

fn string_field(obj: &JsonValue, key: &str) -> Result<String, JsonError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| shape_err(format!("missing string field '{key}'")))
}

impl NarrationStep {
    /// The step as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj = BTreeMap::new();
        obj.insert("index".to_string(), JsonValue::Number(self.index as f64));
        obj.insert(
            "ops".to_string(),
            JsonValue::Array(
                self.ops
                    .iter()
                    .map(|o| JsonValue::String(o.clone()))
                    .collect(),
            ),
        );
        obj.insert("text".to_string(), JsonValue::String(self.text.clone()));
        obj.insert("tagged".to_string(), JsonValue::String(self.tagged.clone()));
        obj.insert(
            "bindings".to_string(),
            JsonValue::Array(
                self.bindings
                    .iter()
                    .map(|(tag, value)| {
                        JsonValue::Array(vec![
                            JsonValue::String(tag.clone()),
                            JsonValue::String(value.clone()),
                        ])
                    })
                    .collect(),
            ),
        );
        JsonValue::Object(obj)
    }

    /// Append the step's compact JSON object to `out` (keys sorted,
    /// as [`NarrationStep::to_json_value`] renders them).
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"bindings\":");
        write_array(out, &self.bindings, |out, (tag, value)| {
            out.push('[');
            write_string(out, tag);
            out.push(',');
            write_string(out, value);
            out.push(']');
        });
        out.push_str(",\"index\":");
        write_number(out, self.index as f64);
        out.push_str(",\"ops\":");
        write_array(out, &self.ops, |out, op| write_string(out, op));
        out.push_str(",\"tagged\":");
        write_string(out, &self.tagged);
        out.push_str(",\"text\":");
        write_string(out, &self.text);
        out.push('}');
    }

    /// About how many bytes [`NarrationStep::write_json`] appends: the
    /// raw string lengths plus the fixed syntax, so a buffer sized by
    /// it rarely grows (only escapes make the output longer).
    fn json_len_hint(&self) -> usize {
        let ops: usize = self.ops.iter().map(|op| op.len() + 3).sum();
        let bindings: usize = self
            .bindings
            .iter()
            .map(|(t, v)| t.len() + v.len() + 8)
            .sum();
        64 + ops + bindings + self.text.len() + self.tagged.len()
    }

    /// Parse one step from its JSON value.
    pub fn from_json_value(v: &JsonValue) -> Result<NarrationStep, JsonError> {
        let index_raw = v
            .get("index")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| shape_err("missing numeric field 'index'"))?;
        if index_raw < 0.0 || index_raw.fract() != 0.0 || index_raw > usize::MAX as f64 {
            return Err(shape_err("'index' must be a non-negative integer"));
        }
        let index = index_raw as usize;
        let ops = match v.get("ops") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|o| {
                    o.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| shape_err("non-string entry in 'ops'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(shape_err("missing array field 'ops'")),
        };
        let mut bindings = TagBinding::new();
        match v.get("bindings") {
            Some(JsonValue::Array(items)) => {
                for pair in items {
                    match pair.as_array() {
                        Some([tag, value]) => match (tag.as_str(), value.as_str()) {
                            (Some(t), Some(val)) => bindings.push((t.to_string(), val.to_string())),
                            _ => return Err(shape_err("non-string binding pair")),
                        },
                        _ => return Err(shape_err("binding entry is not a [tag, value] pair")),
                    }
                }
            }
            _ => return Err(shape_err("missing array field 'bindings'")),
        }
        Ok(NarrationStep {
            index,
            ops,
            text: string_field(v, "text")?,
            tagged: string_field(v, "tagged")?,
            bindings,
        })
    }
}

impl Narration {
    /// The narration as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj = BTreeMap::new();
        obj.insert(
            "steps".to_string(),
            JsonValue::Array(
                self.steps()
                    .iter()
                    .map(NarrationStep::to_json_value)
                    .collect(),
            ),
        );
        JsonValue::Object(obj)
    }

    /// Append the compact JSON form to `out`: the same bytes as
    /// `self.to_json_value().to_string_compact()`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"steps\":");
        write_array(out, self.steps(), |out, step| step.write_json(out));
        out.push('}');
    }

    /// About how many bytes [`Narration::write_json`] appends.
    fn json_len_hint(&self) -> usize {
        16 + self
            .steps()
            .iter()
            .map(NarrationStep::json_len_hint)
            .sum::<usize>()
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        self.write_json(&mut out);
        out
    }

    /// Parse a narration from its JSON wire form.
    pub fn from_json(doc: &str) -> Result<Narration, JsonError> {
        let value = JsonValue::parse(doc)?;
        let steps = match value.get("steps") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(NarrationStep::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(shape_err("missing array field 'steps'")),
        };
        Ok(Narration::from_steps(steps))
    }
}

impl NarrationResponse {
    /// Append the service's `/narrate` 200 body to `out`:
    /// `{"backend": ..., "narration": {"steps": [...]}, "text": ...}`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"backend\":");
        write_string(out, &self.backend);
        out.push_str(",\"narration\":");
        self.narration.write_json(out);
        out.push_str(",\"text\":");
        write_string(out, &self.text);
        out.push('}');
    }

    /// About how many bytes [`NarrationResponse::write_json`] appends.
    pub fn json_len_hint(&self) -> usize {
        48 + self.backend.len() + self.narration.json_len_hint() + self.text.len()
    }

    /// The `/narrate` 200 body as a string sized to fit.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        self.write_json(&mut out);
        out
    }
}

impl DiffResponse {
    /// Append the service's diff 200 body to `out`: the backend name,
    /// informativeness score, an `identical` flag, the rendered text,
    /// the structured change list, and the narration in the `/narrate`
    /// wire form. `alt_index` (a `/narrate/diff/batch` item's position
    /// in the request's `alts`) leads the object when given, as sorted
    /// keys put it.
    pub fn write_json(&self, out: &mut String, alt_index: Option<usize>) {
        out.push('{');
        if let Some(index) = alt_index {
            out.push_str("\"alt_index\":");
            write_number(out, index as f64);
            out.push(',');
        }
        out.push_str("\"backend\":");
        write_string(out, &self.backend);
        out.push_str(",\"changes\":");
        write_array(out, &self.changes, |out, change| {
            out.push_str("{\"detail\":");
            write_string(out, &change.detail);
            out.push_str(",\"kind\":");
            write_string(out, &change.kind);
            out.push_str(",\"op\":");
            write_string(out, &change.op);
            out.push_str(",\"path\":");
            write_string(out, &change.path);
            out.push_str(",\"weight\":");
            write_number(out, change.weight);
            out.push('}');
        });
        out.push_str(",\"identical\":");
        out.push_str(if self.is_identical() { "true" } else { "false" });
        out.push_str(",\"narration\":");
        self.narration.write_json(out);
        out.push_str(",\"score\":");
        write_number(out, self.score);
        out.push_str(",\"text\":");
        write_string(out, &self.text);
        out.push('}');
    }

    /// About how many bytes [`DiffResponse::write_json`] appends.
    pub fn json_len_hint(&self) -> usize {
        let changes: usize = self
            .changes
            .iter()
            .map(|c| 96 + c.detail.len() + c.kind.len() + c.op.len() + c.path.len())
            .sum();
        128 + self.backend.len() + changes + self.narration.json_len_hint() + self.text.len()
    }

    /// The `/narrate/diff` 200 body as a string sized to fit.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        self.write_json(&mut out, None);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::narrate::RuleLantern;
    use lantern_plan::{PlanNode, PlanTree};
    use lantern_pool::default_pg_store;

    fn figure_4() -> PlanTree {
        PlanTree::new(
            "pg",
            PlanNode::new("Aggregate").with_child(
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
            ),
        )
    }

    #[test]
    fn round_trip_preserves_steps_ops_tags_and_bindings() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let json = narration.to_json();
        let back = Narration::from_json(&json).unwrap();
        assert_eq!(back, narration);
        // Double round-trip is byte-stable (deterministic field order).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn wire_form_exposes_expected_fields() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let json = narration.to_json();
        for field in [
            "\"steps\"",
            "\"index\"",
            "\"ops\"",
            "\"text\"",
            "\"tagged\"",
            "\"bindings\"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        // Tag bindings survive: the join step binds <C> to the join
        // condition.
        assert!(
            json.contains("[\"<C>\",\"((i.proceeding_key) = (p.pub_key))\"]"),
            "{json}"
        );
    }

    #[test]
    fn from_sentences_round_trips_too() {
        let narration =
            Narration::from_sentences(["scan the table.".to_string(), "done.".to_string()]);
        let back = Narration::from_json(&narration.to_json()).unwrap();
        assert_eq!(back, narration);
        assert_eq!(back.steps().len(), 2);
        assert_eq!(back.steps()[1].index, 2);
    }

    #[test]
    fn malformed_wire_documents_are_rejected() {
        assert!(Narration::from_json("not json").is_err());
        assert!(Narration::from_json("{}").is_err());
        assert!(Narration::from_json(r#"{"steps": [{}]}"#).is_err());
        assert!(
            Narration::from_json(r#"{"steps": [{"index": 1, "ops": [], "text": "x"}]}"#).is_err()
        );
        // Indexes must be non-negative integers, not silently mangled.
        for bad in ["-3", "1.5", "1e30"] {
            let doc = format!(
                r#"{{"steps": [{{"index": {bad}, "ops": [], "text": "x",
                    "tagged": "x", "bindings": []}}]}}"#
            );
            assert!(Narration::from_json(&doc).is_err(), "{bad}");
        }
    }
}
