//! Differential suite for the streaming plan readers.
//!
//! `parse_pg_json_plan` and `parse_sqlserver_xml_plan` read documents
//! straight into the plan tree, and `JsonValue::parse` /
//! `XmlNode::parse` are trees built on the same pull readers. The
//! oracle below is the previous design, kept verbatim: a recursive
//! DOM tokenizer per format plus the DOM → `PlanNode` mappings. Every
//! input must give the same tree, or the same error string, on both
//! sides:
//!
//! * seeded `lantern-gen` corpora in both formats, mutants included;
//! * every truncation of a few documents;
//! * seeded byte-level mutations (structural characters, duplicated
//!   keys and attributes, wrong-typed fields);
//! * hand-written hostile cases: escapes, CDATA, comments, PIs,
//!   DOCTYPE, namespace prefixes, entities, non-ASCII names, trailing
//!   garbage.

use lantern::gen::{FormatMix, GenConfig, PlanGenerator};
use lantern::plan::{parse_pg_json_plan, parse_sqlserver_xml_plan, PlanNode, PlanTree};
use lantern::text::json::JsonValue;
use lantern::text::xml::XmlNode;

mod oracle {
    //! The DOM readers and mappings the streaming readers replaced.

    use lantern::plan::{PlanNode, PlanTree};
    use lantern::text::json::{JsonError, JsonValue};
    use lantern::text::xml::{XmlError, XmlNode};
    use std::collections::BTreeMap;

    const JOIN_COND_KEYS: &[&str] = &["Hash Cond", "Merge Cond", "Join Filter", "Index Cond"];

    pub fn pg_plan(doc: &str) -> Result<PlanTree, JsonError> {
        let value = json(doc)?;
        let obj = match &value {
            JsonValue::Array(items) if !items.is_empty() => &items[0],
            other => other,
        };
        let plan = obj.get("Plan").ok_or(JsonError {
            offset: 0,
            message: "missing 'Plan' key".to_string(),
        })?;
        Ok(PlanTree::new("pg", parse_node(plan)?))
    }

    fn parse_node(v: &JsonValue) -> Result<PlanNode, JsonError> {
        let op = v
            .get("Node Type")
            .and_then(JsonValue::as_str)
            .ok_or(JsonError {
                offset: 0,
                message: "missing 'Node Type'".to_string(),
            })?
            .to_string();
        let mut node = PlanNode::new(op);
        let text = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
        node.relation = text("Relation Name");
        node.alias = text("Alias");
        node.index_name = text("Index Name");
        node.filter = text("Filter");
        for key in JOIN_COND_KEYS {
            if let Some(c) = v.get(key).and_then(JsonValue::as_str) {
                node.join_cond = Some(c.to_string());
                break;
            }
        }
        if let Some(keys) = v.get("Sort Key").and_then(JsonValue::as_array) {
            node.sort_keys = keys
                .iter()
                .filter_map(|k| k.as_str().map(str::to_string))
                .collect();
        }
        if let Some(keys) = v.get("Group Key").and_then(JsonValue::as_array) {
            node.group_keys = keys
                .iter()
                .filter_map(|k| k.as_str().map(str::to_string))
                .collect();
        }
        node.strategy = text("Strategy");
        node.estimated_rows = v
            .get("Plan Rows")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        node.estimated_cost = v
            .get("Total Cost")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if let Some(children) = v.get("Plans").and_then(JsonValue::as_array) {
            for c in children {
                node.children.push(parse_node(c)?);
            }
        }
        Ok(node)
    }

    pub fn xml_plan(doc: &str) -> Result<PlanTree, XmlError> {
        let root = xml(doc)?;
        let relop = find_first_relop(&root).ok_or(XmlError {
            offset: 0,
            message: "no RelOp element found in showplan".to_string(),
        })?;
        Ok(PlanTree::new("mssql", parse_relop(relop)))
    }

    fn find_first_relop(node: &XmlNode) -> Option<&XmlNode> {
        if node.local_name() == "RelOp" {
            return Some(node);
        }
        node.children.iter().find_map(find_first_relop)
    }

    fn parse_relop(el: &XmlNode) -> PlanNode {
        let mut node = PlanNode::new(el.attr("PhysicalOp").unwrap_or("Unknown"));
        node.estimated_rows = el
            .attr("EstimateRows")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0);
        node.estimated_cost = el
            .attr("EstimatedTotalSubtreeCost")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0);
        if let Some(logical) = el.attr("LogicalOp") {
            node.extra
                .insert("LogicalOp".to_string(), logical.to_string());
        }
        if let Some(strategy) = el.attr("Strategy") {
            node.strategy = Some(strategy.to_string());
        }
        for child in &el.children {
            match child.local_name() {
                "Object" => {
                    node.relation = child.attr("Table").map(str::to_string);
                    node.alias = child.attr("Alias").map(str::to_string);
                    node.index_name = child.attr("Index").map(str::to_string);
                }
                "Predicate" => node.filter = Some(child.text.clone()),
                "JoinPredicate" => node.join_cond = Some(child.text.clone()),
                "OrderBy" => {
                    for col in child.children_named("ColumnReference") {
                        if let Some(c) = col.attr("Column") {
                            let dir = if col.attr("Descending") == Some("true") {
                                " DESC"
                            } else {
                                ""
                            };
                            node.sort_keys.push(format!("{c}{dir}"));
                        }
                    }
                }
                "GroupBy" => {
                    for col in child.children_named("ColumnReference") {
                        if let Some(c) = col.attr("Column") {
                            node.group_keys.push(c.to_string());
                        }
                    }
                }
                "RelOp" => node.children.push(parse_relop(child)),
                _ => {}
            }
        }
        node
    }

    // ---- the recursive JSON DOM tokenizer ----

    pub fn json(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: &str) -> JsonError {
            JsonError {
                offset: self.pos,
                message: msg.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", b as char)))
            }
        }

        fn value(&mut self) -> Result<JsonValue, JsonError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(JsonValue::String(self.string()?)),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(_) => Err(self.err("unexpected character")),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.err(&format!("invalid literal, expected '{lit}'")))
            }
        }

        fn object(&mut self) -> Result<JsonValue, JsonError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(JsonValue::Object(map)),
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, JsonError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(JsonValue::Array(items)),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
                match self.bump() {
                    Some(b'"') => return Ok(s),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                s.push(char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?);
                            } else {
                                s.push(
                                    char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    },
                    Some(_) => return Err(self.err("control character in string")),
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            let mut v = 0u32;
            for _ in 0..4 {
                let b = self
                    .bump()
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let d = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("bad hex digit"))?;
                v = v * 16 + d;
            }
            Ok(v)
        }

        fn number(&mut self) -> Result<JsonValue, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| self.err("invalid number"))
        }
    }

    // ---- the recursive XML DOM tokenizer ----

    pub fn xml(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = XmlParser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_misc();
        let root = p.element()?;
        p.skip_misc();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(root)
    }

    struct XmlParser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl XmlParser<'_> {
        fn err(&self, msg: &str) -> XmlError {
            XmlError {
                offset: self.pos,
                message: msg.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn starts_with(&self, s: &str) -> bool {
            self.bytes[self.pos..].starts_with(s.as_bytes())
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn skip_misc(&mut self) {
            loop {
                self.skip_ws();
                if self.starts_with("<?") {
                    self.skip_until("?>");
                } else if self.starts_with("<!--") {
                    self.skip_until("-->");
                } else if self.starts_with("<!DOCTYPE") {
                    self.skip_until(">");
                } else {
                    return;
                }
            }
        }

        fn skip_until(&mut self, end: &str) {
            while self.pos < self.bytes.len() && !self.starts_with(end) {
                self.pos += 1;
            }
            self.pos = (self.pos + end.len()).min(self.bytes.len());
        }

        fn name(&mut self) -> Result<String, XmlError> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                let c = b as char;
                if c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(self.err("expected name"));
            }
            Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid UTF-8 in name"))?
                .to_string())
        }

        fn element(&mut self) -> Result<XmlNode, XmlError> {
            if self.peek() != Some(b'<') {
                return Err(self.err("expected '<'"));
            }
            self.pos += 1;
            let name = self.name()?;
            let mut node = XmlNode::new(name);
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'/') => {
                        self.pos += 1;
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>' after '/'"));
                        }
                        self.pos += 1;
                        return Ok(node);
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        break;
                    }
                    Some(_) => {
                        let key = self.name()?;
                        self.skip_ws();
                        if self.peek() != Some(b'=') {
                            return Err(self.err("expected '=' in attribute"));
                        }
                        self.pos += 1;
                        self.skip_ws();
                        let quote = self.peek();
                        if !matches!(quote, Some(b'"' | b'\'')) {
                            return Err(self.err("expected quoted attribute value"));
                        }
                        let q = quote.unwrap();
                        self.pos += 1;
                        let start = self.pos;
                        while self.peek().is_some() && self.peek() != Some(q) {
                            self.pos += 1;
                        }
                        if self.peek() != Some(q) {
                            return Err(self.err("unterminated attribute value"));
                        }
                        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in attribute"))?;
                        node.attributes.push((key, unescape(raw)));
                        self.pos += 1;
                    }
                    None => return Err(self.err("unexpected end of input in tag")),
                }
            }
            loop {
                if self.starts_with("</") {
                    self.pos += 2;
                    let close = self.name()?;
                    if close != node.name {
                        return Err(self.err(&format!(
                            "mismatched closing tag: expected </{}>, found </{close}>",
                            node.name
                        )));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' in closing tag"));
                    }
                    self.pos += 1;
                    return Ok(node);
                } else if self.starts_with("<!--") {
                    self.skip_until("-->");
                } else if self.starts_with("<![CDATA[") {
                    self.pos += 9;
                    let start = self.pos;
                    while self.pos < self.bytes.len() && !self.starts_with("]]>") {
                        self.pos += 1;
                    }
                    node.text.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in CDATA"))?,
                    );
                    self.skip_until("]]>");
                } else if self.starts_with("<?") {
                    self.skip_until("?>");
                } else if self.peek() == Some(b'<') {
                    node.children.push(self.element()?);
                } else if self.peek().is_some() {
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(b'<') {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in text"))?;
                    let unescaped = unescape(raw);
                    let trimmed = unescaped.trim();
                    if !trimmed.is_empty() {
                        node.text.push_str(trimmed);
                    }
                } else {
                    return Err(self.err("unexpected end of input in element content"));
                }
            }
        }
    }

    /// The entity decoder as it was, quadratic lookahead included.
    pub fn unescape(s: &str) -> String {
        if !s.contains('&') {
            return s.to_string();
        }
        let mut out = String::with_capacity(s.len());
        let mut rest = s;
        while let Some(idx) = rest.find('&') {
            out.push_str(&rest[..idx]);
            rest = &rest[idx..];
            let end = rest.find(';').unwrap_or(0);
            match &rest[..=end.min(rest.len() - 1)] {
                "&lt;" => {
                    out.push('<');
                    rest = &rest[4..];
                }
                "&gt;" => {
                    out.push('>');
                    rest = &rest[4..];
                }
                "&amp;" => {
                    out.push('&');
                    rest = &rest[5..];
                }
                "&quot;" => {
                    out.push('"');
                    rest = &rest[6..];
                }
                "&apos;" => {
                    out.push('\'');
                    rest = &rest[6..];
                }
                ent if ent.starts_with("&#") && ent.ends_with(';') => {
                    let body = &ent[2..ent.len() - 1];
                    let cp = if let Some(hex) = body.strip_prefix('x') {
                        u32::from_str_radix(hex, 16).ok()
                    } else {
                        body.parse::<u32>().ok()
                    };
                    if let Some(c) = cp.and_then(char::from_u32) {
                        out.push(c);
                    } else {
                        out.push('&');
                        rest = &rest[1..];
                        continue;
                    }
                    rest = &rest[ent.len()..];
                }
                _ => {
                    out.push('&');
                    rest = &rest[1..];
                }
            }
        }
        out.push_str(rest);
        out
    }
}

/// Trees compare through `Debug` so a `NaN` estimate (an XML
/// `EstimateRows="NaN"`) still equals itself.
fn outcome<E: std::fmt::Display>(result: Result<PlanTree, E>) -> Result<String, String> {
    result
        .map(|tree| format!("{tree:?}"))
        .map_err(|e| e.to_string())
}

fn check_pg(doc: &str) {
    assert_eq!(
        outcome(parse_pg_json_plan(doc)),
        outcome(oracle::pg_plan(doc)),
        "plan reader vs DOM oracle on {doc:?}"
    );
    assert_eq!(
        JsonValue::parse(doc).map_err(|e| e.to_string()),
        oracle::json(doc).map_err(|e| e.to_string()),
        "JsonValue::parse vs DOM oracle on {doc:?}"
    );
}

fn check_xml(doc: &str) {
    assert_eq!(
        outcome(parse_sqlserver_xml_plan(doc)),
        outcome(oracle::xml_plan(doc)),
        "plan reader vs DOM oracle on {doc:?}"
    );
    assert_eq!(
        XmlNode::parse(doc).map_err(|e| e.to_string()),
        oracle::xml(doc).map_err(|e| e.to_string()),
        "XmlNode::parse vs DOM oracle on {doc:?}"
    );
}

fn corpus(format: FormatMix, seed: u64, n: usize, max_ops: usize) -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_format(format)
        .with_ops(0, max_ops)
        .with_mutate_rate(0.3)
        .with_duplicate_rate(0.1);
    PlanGenerator::new(config)
        .generate(n)
        .into_iter()
        .map(|item| item.doc)
        .collect()
}

/// A tiny deterministic generator for the mutation cases.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// `doc` with one seeded edit: a character replaced by, or a snippet
/// inserted from, `snippets`; or a span deleted.
fn mutate(doc: &str, rng: &mut Lcg, snippets: &[&str]) -> String {
    let boundaries: Vec<usize> = doc
        .char_indices()
        .map(|(i, _)| i)
        .chain([doc.len()])
        .collect();
    let at = boundaries[rng.below(boundaries.len())];
    let snippet = snippets[rng.below(snippets.len())];
    let mut out = String::with_capacity(doc.len() + snippet.len());
    out.push_str(&doc[..at]);
    match rng.below(3) {
        0 => {
            out.push_str(snippet);
            out.push_str(&doc[at..]);
        }
        1 => {
            out.push_str(snippet);
            let next = doc[at..].chars().next().map_or(0, char::len_utf8);
            out.push_str(&doc[at + next..]);
        }
        _ => {
            let skip = boundaries
                .iter()
                .copied()
                .find(|&b| b >= at + rng.below(12))
                .unwrap_or(doc.len());
            out.push_str(&doc[skip..]);
        }
    }
    out
}

const PG_SNIPPETS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\\"",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\udc00",
    "\\x",
    " ",
    "\n",
    "\t",
    "\u{1}",
    "é",
    "0",
    "-",
    "1e",
    "1.5e3",
    "true",
    "nul",
    "\"Node Type\": 7, ",
    "\"Node Type\": \"Dup\", ",
    "\"Plans\": 3, ",
    "\"Plans\": [], ",
    "\"Plans\": [1], ",
    "\"Plan\": {}, ",
    "\"Plan\": null, ",
    "\"Sort Key\": \"k\", ",
    "\"Sort Key\": [1, \"k\", null], ",
    "\"Hash Cond\": 1, ",
    "\"Merge Cond\": \"m\", ",
    "\"Plan Rows\": \"12\", ",
    "\"Total Cost\": -0.5e1, ",
    "\"Relation Name\": [\"t\"], ",
    "\"Index Cond\": \"i\", ",
    "\"Join Filter\": \"j\", ",
    "\"Alias\": \"a\\\"b\", ",
];

const XML_SNIPPETS: &[&str] = &[
    "<",
    ">",
    "/",
    "/>",
    "</",
    "</RelOp>",
    "=",
    "\"",
    "'",
    "&",
    "&lt;",
    "&gt;",
    "&amp;",
    "&quot;",
    "&apos;",
    "&#65;",
    "&#x42;",
    "&#xD800;",
    "&bogus;",
    "&#;",
    " ",
    "\n",
    "é",
    "<!-- c -->",
    "<!--",
    "-->",
    "<?pi x?>",
    "<?",
    "<![CDATA[ a < b ]]>",
    "<![CDATA[",
    "]]>",
    "<!DOCTYPE x>",
    "<ns:RelOp PhysicalOp=\"Ns\">",
    "<RelOp PhysicalOp=\"New\"/>",
    " PhysicalOp=\"Dup\"",
    " EstimateRows=\"NaN\"",
    " EstimateRows=\"7\"",
    " Table=\"t2\"",
    "<Object Table=\"o\"/>",
    "<Predicate>p &gt; 1</Predicate>",
    "<JoinPredicate><![CDATA[x]]></JoinPredicate>",
    "<OrderBy><ColumnReference Column=\"c\" Descending=\"true\"/></OrderBy>",
    "<GroupBy><ns:ColumnReference Column=\"g\"/></GroupBy>",
    "<Hash>",
    "</Hash>",
    "<é>",
    "<ê/>",
    "<a\u{b5}/>",
];

#[test]
fn generated_corpora_match_the_dom_oracle() {
    for seed in [1u64, 7, 42] {
        for doc in corpus(FormatMix::PgJson, seed, 60, 30) {
            check_pg(&doc);
        }
        for doc in corpus(FormatMix::SqlServerXml, seed, 60, 30) {
            check_xml(&doc);
        }
    }
}

#[test]
fn every_truncation_matches_the_dom_oracle() {
    for doc in corpus(FormatMix::PgJson, 3, 2, 4) {
        for (at, _) in doc.char_indices() {
            check_pg(&doc[..at]);
        }
    }
    for doc in corpus(FormatMix::SqlServerXml, 3, 2, 4) {
        for (at, _) in doc.char_indices() {
            check_xml(&doc[..at]);
        }
    }
}

#[test]
fn seeded_mutations_match_the_dom_oracle() {
    let mut rng = Lcg(0x5eed);
    for doc in corpus(FormatMix::PgJson, 11, 12, 6) {
        for _ in 0..150 {
            check_pg(&mutate(&doc, &mut rng, PG_SNIPPETS));
        }
    }
    for doc in corpus(FormatMix::SqlServerXml, 11, 12, 6) {
        for _ in 0..150 {
            check_xml(&mutate(&doc, &mut rng, XML_SNIPPETS));
        }
    }
}

#[test]
fn hostile_pg_documents_match_the_dom_oracle() {
    let cases = [
        // Duplicate keys: the later one wins, whatever its type.
        r#"{"Plan": {"Node Type": "A", "Node Type": "B"}}"#,
        r#"{"Plan": {"Node Type": "A", "Node Type": 3}}"#,
        r#"{"Plan": {"Node Type": 3, "Node Type": "B"}}"#,
        r#"{"Plan": {"Node Type": "A"}, "Plan": {"Node Type": "B"}}"#,
        r#"{"Plan": {"Relation Name": "x"}, "Plan": {"Node Type": "B"}}"#,
        r#"{"Plan": {"Node Type": "B"}, "Plan": {"Relation Name": "x"}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": [{"Alias": "x"}], "Plans": []}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": [], "Plans": [{"Alias": "x"}]}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": [{"Node Type": "S"}], "Plans": 1}}"#,
        r#"{"Plan": {"Node Type": "A", "Sort Key": ["a"], "Sort Key": "b"}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": 5, "Plan Rows": "6"}}"#,
        // Join-condition priority, with wrong-typed higher priorities.
        r#"{"Plan": {"Node Type": "J", "Index Cond": "i", "Join Filter": "f", "Merge Cond": "m", "Hash Cond": "h"}}"#,
        r#"{"Plan": {"Node Type": "J", "Index Cond": "i", "Hash Cond": 1}}"#,
        r#"{"Plan": {"Node Type": "J", "Join Filter": "f", "Merge Cond": null, "Hash Cond": "h", "Hash Cond": []}}"#,
        // Non-string / non-array fields fall back.
        r#"{"Plan": {"Node Type": "A", "Relation Name": 1, "Alias": null, "Filter": {}, "Strategy": true}}"#,
        r#"{"Plan": {"Node Type": "A", "Sort Key": [1, "a", null, ["b"], "c"], "Group Key": {"g": 1}}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": "12", "Total Cost": [1]}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": {"Node Type": "B"}}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": [1]}}"#,
        r#"{"Plan": {"Node Type": "A", "Plans": [{"Node Type": "B"}, "x"]}}"#,
        r#"{"Plan": "Seq Scan"}"#,
        r#"{"Plan": null}"#,
        // Escapes: quotes, é, surrogate pairs, escaped keys.
        r#"{"Plan": {"Node Type": "Seq Scan", "Filter": "(name = 'say \"hi\"')"}}"#,
        r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "café"}}"#,
        r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "😀 \/ \b\f\n\r\t"}}"#,
        r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t"}}"#,
        r#"{"Plan": {"Node Type": "Seq Scan"}}"#,
        r#"{"Plan": {"Node Type": "\ud83d"}}"#,
        r#"{"Plan": {"Node Type": "\ud83dA"}}"#,
        r#"{"Plan": {"Node Type": "\udc00"}}"#,
        r#"{"Plan": {"Node Type": "\u00zz"}}"#,
        r#"{"Plan": {"Node Type": "\q"}}"#,
        "{\"Plan\": {\"Node Type\": \"tab\there\"}}",
        // Wrappers: arrays, extra items, wrong shapes.
        r#"[{"Plan": {"Node Type": "A"}}, {"Plan": {"Node Type": "B"}}]"#,
        r#"[{"Plan": {"Node Type": "A"}}, 1, "x", [}]"#,
        r#"[{"NotPlan": 1}, {"Plan": {"Node Type": "B"}}]"#,
        r#"[]"#,
        r#"[1]"#,
        r#"["{\"Plan\": {}}"]"#,
        r#"{}"#,
        r#"{"NotPlan": 1}"#,
        r#"42"#,
        r#""Plan""#,
        r#"null"#,
        // Semantic errors must lose to a later syntax error.
        r#"{"Plan": {"Relation Name": "t"}, "x": tru}"#,
        r#"{"NotPlan": 1, "x": [1,]}"#,
        r#"[{"Plan": {}}, {"a" 1}]"#,
        r#"{"Plan": {"Plans": [{}]}} x"#,
        // Trailing garbage and damaged literals and numbers.
        r#"{"Plan": {"Node Type": "A"}} {}"#,
        r#"{"Plan": {"Node Type": "A"}}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": -}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": 1e}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": 01.e5}}"#,
        r#"{"Plan": {"Node Type": "A", "Plan Rows": 1E+308, "Total Cost": 1e999}}"#,
        r#"{"Plan": {"Node Type": "A", "x": fals}}"#,
        r#"{"Plan": {"Node Type": "A",}}"#,
        r#"{"Plan": {"Node Type": "A" "Alias": "b"}}"#,
        r#"{"Plan" {"Node Type": "A"}}"#,
        r#"{Plan: 1}"#,
        "",
        "   ",
        " \n\t{\"Plan\": {\"Node Type\": \"A\"}}\r\n ",
        "\u{feff}{\"Plan\": {\"Node Type\": \"A\"}}",
    ];
    for doc in cases {
        check_pg(doc);
    }
}

#[test]
fn hostile_xml_documents_match_the_dom_oracle() {
    let cases = [
        // Duplicate attributes: the first one wins.
        r#"<RelOp PhysicalOp="A" PhysicalOp="B" EstimateRows="1" EstimateRows="2"/>"#,
        r#"<RelOp><Object Table="a" Table="b"/></RelOp>"#,
        // The root is the first RelOp in document order; only direct
        // RelOp children count.
        r#"<ShowPlanXML><Other><RelOp PhysicalOp="First"/></Other><RelOp PhysicalOp="Second"/></ShowPlanXML>"#,
        r#"<RelOp PhysicalOp="Top"><Hash><RelOp PhysicalOp="Hidden"/></Hash><RelOp PhysicalOp="Kid"/></RelOp>"#,
        r#"<RelOp PhysicalOp="Top"><RelOp PhysicalOp="Kid"><RelOp PhysicalOp="Grandkid"/></RelOp></RelOp>"#,
        // Namespace prefixes on every element name.
        r#"<shp:ShowPlanXML xmlns:shp="x"><shp:RelOp shp:PhysicalOp="p" PhysicalOp="Hash Match"><shp:Object Table="t"/><shp:OrderBy><shp:ColumnReference Column="c" Descending="true"/></shp:OrderBy></shp:RelOp></shp:ShowPlanXML>"#,
        // Later Object / Predicate wins; OrderBy / GroupBy accumulate.
        r#"<RelOp><Object Table="a" Alias="x"/><Object Index="i"/><Predicate>p1</Predicate><Predicate>p2</Predicate></RelOp>"#,
        r#"<RelOp><OrderBy><ColumnReference Column="a"/><Other Column="z"/><ColumnReference/></OrderBy><OrderBy><ColumnReference Column="b" Descending="false"/><x><ColumnReference Column="deep"/></x></OrderBy><GroupBy><ColumnReference Column="g"/></GroupBy></RelOp>"#,
        // Text: entities, trimming per run, CDATA verbatim, comments and
        // PIs splitting runs, descendants' text excluded.
        r#"<RelOp><Predicate>  a &gt; 1 <!-- c --> and <?pi x?> b &lt; 2 <![CDATA[ <raw> &amp; ]]> <b>child text</b> tail </Predicate></RelOp>"#,
        r#"<RelOp><JoinPredicate>&#65;&#x42;&#x1F600;&#0000067;&#+68;&#xD800;&#;&bogus;&amp &</JoinPredicate></RelOp>"#,
        r#"<RelOp><Predicate>&#32;x&#32;</Predicate><Predicate/></RelOp>"#,
        r#"<RelOp PhysicalOp="a &quot;b&quot; &apos;c&apos; &lt;&gt;" Strategy='single "quoted"'/>"#,
        r#"<RelOp EstimateRows="NaN" EstimatedTotalSubtreeCost="inf"/>"#,
        r#"<RelOp EstimateRows=" 5" EstimatedTotalSubtreeCost="1e3"/>"#,
        // Prolog and epilog.
        "<?xml version=\"1.0\"?>\n<!DOCTYPE ShowPlanXML>\n<!-- c -->\n<RelOp/>\n<!-- after -->\n<?pi?>\n",
        "<RelOp/><!DOCTYPE late>",
        "<RelOp><!DOCTYPE inner></RelOp>",
        // Non-ASCII names: the per-byte Latin-1 rule accepts some
        // multibyte characters and splits others.
        "<RelOp><ê/></RelOp>",
        "<RelOp><é/></RelOp>",
        "<RelOp ê=\"1\"/>",
        "<RelOp é=\"1\"/>",
        "<a\u{b5}><RelOp/></a\u{b5}>",
        // Trailing garbage and broken structure.
        "<RelOp/>x",
        "<RelOp/><RelOp/>",
        "<RelOp></relop>",
        "<RelOp></RelOp >",
        "<RelOp></RelOp x>",
        "<RelOp/ >",
        "<RelOp a=1/>",
        "<RelOp a/>",
        "<RelOp a=\"1/>",
        "<RelOp <a/>",
        "<RelOp><![CDATA[never closed</RelOp>",
        "<RelOp><!-- never closed</RelOp>",
        "<RelOp><?never closed</RelOp>",
        "<!-- only a comment -->",
        "<ShowPlanXML/>",
        "<ShowPlanXML><RelOp/>",
        "text",
        "",
        "<",
        "<>",
        "<!-->",
        "<?>",
    ];
    for doc in cases {
        check_xml(doc);
    }
}

#[test]
fn semantic_errors_keep_their_strings() {
    let pg = |doc| parse_pg_json_plan(doc).unwrap_err().to_string();
    assert_eq!(
        pg(r#"{"NotPlan": 1}"#),
        "JSON error at byte 0: missing 'Plan' key"
    );
    assert_eq!(
        pg(r#"{"Plan": {"Relation Name": "t"}}"#),
        "JSON error at byte 0: missing 'Node Type'"
    );
    // The syntax error after the missing node type wins.
    assert_eq!(
        pg(r#"{"Plan": {"Relation Name": "t"}, "x": tru}"#),
        "JSON error at byte 38: invalid literal, expected 'true'"
    );
    assert_eq!(
        parse_sqlserver_xml_plan("<ShowPlanXML/>")
            .unwrap_err()
            .to_string(),
        "XML error at byte 0: no RelOp element found in showplan"
    );
    assert_eq!(
        parse_sqlserver_xml_plan("<ShowPlanXML><x/></ShowPlanXML")
            .unwrap_err()
            .to_string(),
        "XML error at byte 30: expected '>' in closing tag"
    );
}

#[test]
fn later_json_keys_and_first_xml_attributes_win() {
    let tree = parse_pg_json_plan(
        r#"{"Plan": {"Node Type": "First", "Relation Name": "a", "Node Type": "Second"}}"#,
    )
    .unwrap();
    assert_eq!(tree.root.op, "Second");
    assert_eq!(tree.root.relation.as_deref(), Some("a"));
    let tree =
        parse_sqlserver_xml_plan(r#"<RelOp PhysicalOp="First" PhysicalOp="Second"/>"#).unwrap();
    assert_eq!(tree.root.op, "First");
    let expected = PlanNode::new("Hash Match");
    let tree = parse_sqlserver_xml_plan(
        r#"<a><b/><ns:RelOp PhysicalOp="Hash Match"/><RelOp PhysicalOp="Later"/></a>"#,
    )
    .unwrap();
    assert_eq!(tree.root, expected);
}
