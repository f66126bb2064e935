//! Differential test of the streaming JSON writers in `lantern_core::wire`
//! against a `JsonValue` DOM oracle: for seeded narrations, narration
//! responses and diffs — with and without `alt_index` — every writer must
//! emit exactly the bytes of the DOM serialized by [`oracle`], an
//! independent char-at-a-time serializer (the writers and
//! `JsonValue::to_string_compact` share one escaper, so the DOM's own
//! serializer cannot be the reference). The strings carry every byte
//! below 0x20, 0x7F, `"`, `\`, multibyte UTF-8, U+2028 and empties; the
//! numbers include −0.0, 0.1, 1e15, ±9e15, NaN and the infinities.

use lantern_core::{DiffChange, DiffResponse, Narration, NarrationResponse, NarrationStep};
use lantern_text::json::JsonValue;
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// `value` serialized compactly, one `char` at a time, numbers through
/// `format!`: the rendering rule the service's bodies have always had.
fn oracle(value: &JsonValue) -> String {
    fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn value_into(out: &mut String, value: &JsonValue) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                out.push_str(&format!("{}", *n as i64))
            }
            JsonValue::Number(n) => out.push_str(&format!("{n}")),
            JsonValue::String(s) => string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    value_into(out, item);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(out, key);
                    out.push(':');
                    value_into(out, item);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    value_into(&mut out, value);
    out
}

/// `/narrate`'s 200 body built as a DOM: the oracle for
/// [`NarrationResponse::write_json`].
fn response_dom(resp: &NarrationResponse) -> JsonValue {
    let mut obj = BTreeMap::new();
    obj.insert(
        "backend".to_string(),
        JsonValue::String(resp.backend.clone()),
    );
    obj.insert("text".to_string(), JsonValue::String(resp.text.clone()));
    obj.insert("narration".to_string(), resp.narration.to_json_value());
    JsonValue::Object(obj)
}

/// A diff 200 body built as a DOM, `alt_index` inserted the way a
/// `/narrate/diff/batch` item carries it: the oracle for
/// [`DiffResponse::write_json`].
fn diff_dom(resp: &DiffResponse, alt_index: Option<usize>) -> JsonValue {
    let changes = resp
        .changes
        .iter()
        .map(|change| {
            let mut obj = BTreeMap::new();
            obj.insert("kind".to_string(), JsonValue::String(change.kind.clone()));
            obj.insert("path".to_string(), JsonValue::String(change.path.clone()));
            obj.insert("op".to_string(), JsonValue::String(change.op.clone()));
            obj.insert(
                "detail".to_string(),
                JsonValue::String(change.detail.clone()),
            );
            obj.insert("weight".to_string(), JsonValue::Number(change.weight));
            JsonValue::Object(obj)
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert(
        "backend".to_string(),
        JsonValue::String(resp.backend.clone()),
    );
    obj.insert("score".to_string(), JsonValue::Number(resp.score));
    obj.insert(
        "identical".to_string(),
        JsonValue::Bool(resp.is_identical()),
    );
    obj.insert("text".to_string(), JsonValue::String(resp.text.clone()));
    obj.insert("changes".to_string(), JsonValue::Array(changes));
    obj.insert("narration".to_string(), resp.narration.to_json_value());
    if let Some(index) = alt_index {
        obj.insert("alt_index".to_string(), JsonValue::Number(index as f64));
    }
    JsonValue::Object(obj)
}

/// Characters the escaper must get right: every control byte, DEL, the
/// two short-escaped printables, multibyte UTF-8 up to four bytes, and
/// the JavaScript line separator.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '\u{7f}', '"', '\\', '/', 'a', 'Z', ' ', '\'', 'é', '漢', '😀', '\u{2028}',
    ]);
    chars
}

const NUMBERS: [f64; 12] = [
    -0.0,
    0.0,
    0.1,
    1.0,
    -2.5,
    1e15,
    9e15,
    -9e15,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
];

const INDEXES: [usize; 6] = [
    0,
    1,
    7,
    9_000_000_000_000_000,
    9_007_199_254_740_993,
    usize::MAX,
];

struct Gen {
    rng: StdRng,
    alphabet: Vec<char>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            alphabet: alphabet(),
        }
    }

    /// Empty a quarter of the time, else up to 12 alphabet characters.
    fn string(&mut self) -> String {
        if self.rng.gen_bool(0.25) {
            return String::new();
        }
        let len = self.rng.gen_range(1..13usize);
        (0..len)
            .map(|_| self.alphabet[self.rng.gen_range(0..self.alphabet.len())])
            .collect()
    }

    fn strings(&mut self, max: usize) -> Vec<String> {
        let len = self.rng.gen_range(0..max + 1);
        (0..len).map(|_| self.string()).collect()
    }

    fn number(&mut self) -> f64 {
        if self.rng.gen_bool(0.75) {
            NUMBERS[self.rng.gen_range(0..NUMBERS.len())]
        } else {
            (self.rng.gen::<f64>() - 0.5) * 1e6
        }
    }

    fn narration(&mut self) -> Narration {
        let steps = self.rng.gen_range(0..5usize);
        Narration::from_steps(
            (0..steps)
                .map(|_| NarrationStep {
                    index: INDEXES[self.rng.gen_range(0..INDEXES.len())],
                    ops: self.strings(3),
                    text: self.string(),
                    tagged: self.string(),
                    bindings: (0..self.rng.gen_range(0..4usize))
                        .map(|_| (self.string(), self.string()))
                        .collect(),
                })
                .collect(),
        )
    }

    fn response(&mut self) -> NarrationResponse {
        NarrationResponse {
            backend: self.string(),
            narration: self.narration(),
            text: self.string(),
        }
    }

    fn diff(&mut self) -> DiffResponse {
        let changes = self.rng.gen_range(0..4usize);
        DiffResponse {
            backend: self.string(),
            score: self.number(),
            changes: (0..changes)
                .map(|_| DiffChange {
                    kind: self.string(),
                    path: self.string(),
                    op: self.string(),
                    detail: self.string(),
                    weight: self.number(),
                })
                .collect(),
            narration: self.narration(),
            text: self.string(),
        }
    }
}

/// Every writer, appending after existing bytes, against the oracle's
/// rendering of its DOM — and the DOM's own serializer (which error
/// bodies and `/stats` still use) against the same oracle.
fn check_all(
    narration: &Narration,
    resp: &NarrationResponse,
    diff: &DiffResponse,
) -> Result<(), String> {
    let dom = narration.to_json_value();
    prop_assert_eq!(narration.to_json(), oracle(&dom));
    let mut out = String::from("[");
    narration.write_json(&mut out);
    prop_assert_eq!(&out[1..], oracle(&dom));
    prop_assert_eq!(dom.to_string_compact(), oracle(&dom));

    let dom = response_dom(resp);
    prop_assert_eq!(resp.to_json(), oracle(&dom));
    let mut out = String::from("[");
    resp.write_json(&mut out);
    prop_assert_eq!(&out[1..], oracle(&dom));
    prop_assert_eq!(dom.to_string_compact(), oracle(&dom));

    prop_assert_eq!(diff.to_json(), oracle(&diff_dom(diff, None)));
    for alt_index in INDEXES {
        let dom = diff_dom(diff, Some(alt_index));
        let mut out = String::from(",");
        diff.write_json(&mut out, Some(alt_index));
        prop_assert_eq!(&out[1..], oracle(&dom));
        prop_assert_eq!(dom.to_string_compact(), oracle(&dom));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writers_match_the_dom_oracle_byte_for_byte(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (narration, resp, diff) = (gen.narration(), gen.response(), gen.diff());
        check_all(&narration, &resp, &diff)?;
    }
}

/// One fixed case whose every string holds the whole alphabet, so the
/// full escape table is covered whatever the seed stream draws.
#[test]
fn every_escaped_character_in_every_field_matches_the_oracle() {
    let all: String = alphabet().into_iter().collect();
    let step = NarrationStep {
        index: 3,
        ops: vec![all.clone(), String::new()],
        text: all.clone(),
        tagged: all.clone(),
        bindings: vec![(all.clone(), all.clone())],
    };
    let narration = Narration::from_steps(vec![step.clone(), step]);
    let resp = NarrationResponse {
        backend: all.clone(),
        narration: narration.clone(),
        text: all.clone(),
    };
    let diff = DiffResponse {
        backend: all.clone(),
        score: -0.0,
        changes: NUMBERS
            .iter()
            .map(|&weight| DiffChange {
                kind: all.clone(),
                path: all.clone(),
                op: all.clone(),
                detail: all.clone(),
                weight,
            })
            .collect(),
        narration: narration.clone(),
        text: all.clone(),
    };
    check_all(&narration, &resp, &diff).unwrap();
    // The empty diff is `identical`, and an empty narration has no steps.
    let empty = DiffResponse {
        changes: Vec::new(),
        narration: Narration::from_steps(Vec::new()),
        ..diff
    };
    check_all(&empty.narration, &resp, &empty).unwrap();
    assert!(empty.to_json().contains("\"identical\":true"));
}
