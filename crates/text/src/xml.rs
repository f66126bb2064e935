//! A minimal XML reader/writer.
//!
//! SQL Server exposes query plans as XML showplans; `lantern-plan`
//! parses that artifact into an operator tree. This module implements
//! the XML subset those documents use: elements, attributes, text
//! content, self-closing tags, comments, processing instructions, CDATA,
//! the five predefined entities and character references. One pull
//! reader ([`XmlReader`]) tokenizes; `lantern-plan` reads showplans
//! with it and [`XmlNode::parse`] builds trees with it.

use crate::MAX_DEPTH;
use std::borrow::Cow;
use std::fmt;

/// An XML element with attributes, child elements, and concatenated text
/// content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    /// Element name (namespace prefixes are kept verbatim).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element.
    pub text: String,
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

impl XmlNode {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder-style child addition.
    pub fn with_child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given element name (namespace-prefix
    /// insensitive: matches local name too).
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children
            .iter()
            .find(|c| c.local_name() == name || c.name == name)
    }

    /// All children with the given element name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children
            .iter()
            .filter(move |c| c.local_name() == name || c.name == name)
    }

    /// Element name without namespace prefix.
    pub fn local_name(&self) -> &str {
        local_name(&self.name)
    }

    /// Parse an XML document; returns the root element. Leading XML
    /// declarations, comments, and whitespace are skipped. Character
    /// data is entity-decoded and trimmed run by run (runs split at
    /// markup); CDATA is kept verbatim.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut reader = XmlReader::new(input);
        let mut open: Vec<XmlNode> = Vec::new();
        let mut root = None;
        loop {
            match reader.next()? {
                XmlEvent::Start(tag) => open.push(XmlNode {
                    name: tag.name.to_string(),
                    attributes: tag
                        .attrs()
                        .map(|(k, v)| (k.to_string(), unescape(v).into_owned()))
                        .collect(),
                    children: Vec::new(),
                    text: String::new(),
                }),
                XmlEvent::End(_) => {
                    let node = open.pop().expect("the reader balances tags");
                    match open.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => root = Some(node),
                    }
                }
                XmlEvent::Text(raw) => {
                    if let Some(node) = open.last_mut() {
                        push_text(&mut node.text, raw);
                    }
                }
                XmlEvent::CData(data) => {
                    if let Some(node) = open.last_mut() {
                        node.text.push_str(data);
                    }
                }
                XmlEvent::Comment | XmlEvent::Pi => {}
                XmlEvent::Eof => return Ok(root.expect("the reader reads one root")),
            }
        }
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        for _ in 0..depth * 2 {
            out.push(' ');
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(out, v);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            escape_into(out, &self.text);
        }
        if !self.children.is_empty() {
            out.push('\n');
            for child in &self.children {
                child.write(out, depth + 1);
            }
            for _ in 0..depth * 2 {
                out.push(' ');
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// One step of an [`XmlReader`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opens. A self-closing tag is followed at once by its
    /// [`XmlEvent::End`].
    Start(XmlTag<'a>),
    /// An element closes (its name, verbatim).
    End(&'a str),
    /// A character-data run between markup, raw: entities not decoded,
    /// whitespace not trimmed.
    Text(&'a str),
    /// The content of a CDATA section, verbatim.
    CData(&'a str),
    /// A comment inside an element.
    Comment,
    /// A processing instruction inside an element.
    Pi,
    /// The document ended after its root element.
    Eof,
}

/// A start tag: the element name plus its attributes, borrowed raw from
/// the input and already validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmlTag<'a> {
    /// Element name (namespace prefixes are kept verbatim).
    pub name: &'a str,
    /// The attribute list between the name and `>` / `/>`.
    attrs: &'a str,
}

impl<'a> XmlTag<'a> {
    /// Element name without namespace prefix.
    pub fn local_name(&self) -> &'a str {
        local_name(self.name)
    }

    /// Attributes in document order, values raw (entities not decoded).
    pub fn attrs(&self) -> XmlAttrs<'a> {
        XmlAttrs { rest: self.attrs }
    }

    /// The first attribute named by each of `keys`, entities decoded,
    /// found in one pass over the attribute list.
    pub fn attrs_named<const N: usize>(&self, keys: [&str; N]) -> [Option<Cow<'a, str>>; N] {
        let mut raw: [Option<&'a str>; N] = [None; N];
        for (key, value) in self.attrs() {
            if let Some(i) = keys.iter().position(|&k| k == key) {
                raw[i].get_or_insert(value);
            }
        }
        raw.map(|value| value.map(unescape))
    }
}

/// Iterator over a start tag's attributes: `(name, raw value)` pairs.
#[derive(Debug, Clone)]
pub struct XmlAttrs<'a> {
    rest: &'a str,
}

impl<'a> Iterator for XmlAttrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        // The reader validated `name ws* = ws* quote value quote` for
        // every attribute, so each scan below finds what it looks for.
        let rest = self.rest;
        let bytes = rest.as_bytes();
        let mut i = bytes.iter().position(|&b| !is_xml_ws(b))?;
        let key_start = i;
        while bytes[i] != b'=' && !is_xml_ws(bytes[i]) {
            i += 1;
        }
        let key = &rest[key_start..i];
        while bytes[i] != b'=' {
            i += 1;
        }
        i += 1;
        while is_xml_ws(bytes[i]) {
            i += 1;
        }
        let quote = bytes[i] as char;
        let value_start = i + 1;
        let value_end = value_start + rest[value_start..].find(quote)?;
        self.rest = &rest[value_end + 1..];
        Some((key, &rest[value_start..value_end]))
    }
}

fn is_xml_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// Bytes a name may contain: those that, read as Latin-1 characters,
/// are alphanumeric or one of `:_-.`. A multibyte character passes only
/// when every one of its bytes does (`ê` = `Ã` `ª` passes, `é` = `Ã` `©`
/// does not).
const NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(
            b as u8,
            b'0'..=b'9'
                | b'A'..=b'Z'
                | b'a'..=b'z'
                | b':'
                | b'_'
                | b'-'
                | b'.'
                | 0xAA
                | 0xB2
                | 0xB3
                | 0xB5
                | 0xB9
                | 0xBA
                | 0xBC..=0xBE
                | 0xC0..=0xD6
                | 0xD8..=0xF6
                | 0xF8..=0xFF
        );
        b += 1;
    }
    table
};

fn local_name(name: &str) -> &str {
    match name.bytes().rposition(|b| b == b':') {
        Some(colon) => &name[colon + 1..],
        None => name,
    }
}

/// A pull reader over one XML document: the one XML tokenizer.
///
/// [`next`](Self::next) yields start tags, end tags, character data,
/// CDATA, comments and processing instructions in document order,
/// borrowing every name, attribute and text run from the input; it
/// decodes nothing the caller does not ask for. Whitespace,
/// declarations, comments and a DOCTYPE around the root element are
/// skipped, and anything else after it is an error. Closing tags are
/// checked against the open element. [`XmlNode::parse`] is this reader
/// building a tree.
///
/// ```
/// use lantern_text::xml::{XmlEvent, XmlReader};
///
/// let mut r = XmlReader::new(r#"<a k="1 &lt; 2"><b/>text</a>"#);
/// let XmlEvent::Start(a) = r.next().unwrap() else { panic!() };
/// let [k, missing] = a.attrs_named(["k", "missing"]);
/// assert_eq!((k.as_deref(), missing), (Some("1 < 2"), None));
/// assert!(matches!(r.next().unwrap(), XmlEvent::Start(b) if b.name == "b"));
/// assert_eq!(r.next().unwrap(), XmlEvent::End("b"));
/// assert_eq!(r.next().unwrap(), XmlEvent::Text("text"));
/// assert_eq!(r.next().unwrap(), XmlEvent::End("a"));
/// assert_eq!(r.next().unwrap(), XmlEvent::Eof);
/// ```
#[derive(Debug, Clone)]
pub struct XmlReader<'a> {
    src: &'a str,
    pos: usize,
    /// Names of the open elements, root first.
    open: Vec<&'a str>,
    /// A self-closing tag was just reported; its end comes next.
    pending_end: Option<&'a str>,
    /// The root element has been opened.
    started: bool,
}

impl<'a> XmlReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        XmlReader {
            src,
            pos: 0,
            open: Vec::new(),
            pending_end: None,
            started: false,
        }
    }

    /// The next event. After [`XmlEvent::Eof`] every call returns
    /// `Eof` again; after an error the reader is spent.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(XmlEvent::End(name));
        }
        let Some(&open) = self.open.last() else {
            self.skip_misc();
            if !self.started {
                self.started = true;
                if self.peek() != Some(b'<') {
                    return Err(self.err("expected '<'"));
                }
                return self.start_tag();
            }
            if self.pos != self.src.len() {
                return Err(self.err("trailing content after root element"));
            }
            return Ok(XmlEvent::Eof);
        };
        if self.starts_with("</") {
            self.pos += 2;
            let close = self.name()?;
            if close != open {
                return Err(self.err(&format!(
                    "mismatched closing tag: expected </{open}>, found </{close}>"
                )));
            }
            self.skip_ws();
            if self.peek() != Some(b'>') {
                return Err(self.err("expected '>' in closing tag"));
            }
            self.pos += 1;
            self.open.pop();
            Ok(XmlEvent::End(close))
        } else if self.starts_with("<!--") {
            self.skip_until("-->");
            Ok(XmlEvent::Comment)
        } else if self.starts_with("<![CDATA[") {
            self.pos += 9;
            let start = self.pos;
            let end = self.src[start..]
                .find("]]>")
                .map_or(self.src.len(), |i| start + i);
            self.pos = (end + 3).min(self.src.len());
            Ok(XmlEvent::CData(&self.src[start..end]))
        } else if self.starts_with("<?") {
            self.skip_until("?>");
            Ok(XmlEvent::Pi)
        } else if self.peek() == Some(b'<') {
            self.start_tag()
        } else if self.peek().is_some() {
            let start = self.pos;
            self.pos = self.src[start..]
                .find('<')
                .map_or(self.src.len(), |i| start + i);
            Ok(XmlEvent::Text(&self.src[start..self.pos]))
        } else {
            Err(self.err("unexpected end of input in element content"))
        }
    }

    fn err(&self, msg: &str) -> XmlError {
        XmlError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| !is_xml_ws(b))
            .unwrap_or(rest.len());
    }

    /// Skip whitespace, XML declarations (`<?...?>`), comments, and
    /// DOCTYPEs around the root element.
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

    /// Move past the first `end` at or after the reader (to the end of
    /// input when there is none).
    fn skip_until(&mut self, end: &str) {
        self.pos = self.src[self.pos..]
            .find(end)
            .map_or(self.src.len(), |i| self.pos + i + end.len());
    }

    /// An element or attribute name: a run of [`NAME_BYTE`]s. A run
    /// that stops inside a multibyte character is an error.
    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&b| !NAME_BYTE[b as usize])
            .unwrap_or(rest.len());
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        self.src
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8 in name"))
    }

    /// A start tag, from its `<` through `>` or `/>`.
    fn start_tag(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        self.pos += 1;
        let name = self.name()?;
        let attrs_start = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    let attrs = &self.src[attrs_start..self.pos];
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    self.pending_end = Some(name);
                    return Ok(XmlEvent::Start(XmlTag { name, attrs }));
                }
                Some(b'>') => {
                    if self.open.len() == MAX_DEPTH {
                        return Err(
                            self.err(&format!("elements nested deeper than {MAX_DEPTH} levels"))
                        );
                    }
                    let attrs = &self.src[attrs_start..self.pos];
                    self.pos += 1;
                    self.open.push(name);
                    return Ok(XmlEvent::Start(XmlTag { name, attrs }));
                }
                Some(_) => {
                    self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    match self.src[self.pos..].find(quote as char) {
                        Some(i) => self.pos += i + 1,
                        None => {
                            self.pos = self.src.len();
                            return Err(self.err("unterminated attribute value"));
                        }
                    }
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }
}

/// Decode the five predefined entities and decimal / hexadecimal
/// character references; anything else that starts with `&` is kept
/// verbatim. Borrowed when `s` holds no `&`.
///
/// Each `&` looks ahead only over the bytes an entity can contain
/// (ASCII letters, digits, `#` and `+`), so decoding is linear in the
/// input even when no `;` ever follows.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let body_len = rest.as_bytes()[1..]
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || b == b'#' || b == b'+'))
            .unwrap_or(rest.len() - 1);
        let decoded = if rest.as_bytes().get(1 + body_len) == Some(&b';') {
            decode_entity(&rest[1..1 + body_len])
        } else {
            None
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[body_len + 2..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// The character an entity body (between `&` and `;`) stands for.
fn decode_entity(body: &str) -> Option<char> {
    match body {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let number = body.strip_prefix('#')?;
            let cp = match number.strip_prefix('x') {
                Some(hex) => u32::from_str_radix(hex, 16).ok(),
                None => number.parse::<u32>().ok(),
            };
            cp.and_then(char::from_u32)
        }
    }
}

/// Append one raw character-data run to `text` the way element text is
/// built: entities decoded, then trimmed, and dropped when nothing is
/// left.
pub fn push_text(text: &mut String, raw: &str) {
    let decoded = unescape(raw);
    let trimmed = decoded.trim();
    if !trimmed.is_empty() {
        text.push_str(trimmed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn name_bytes_follow_the_latin1_alphanumeric_rule() {
        for b in 0..=255u8 {
            let c = b as char;
            let expected = c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.');
            assert_eq!(NAME_BYTE[b as usize], expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn parses_simple_element() {
        let n = XmlNode::parse("<a/>").unwrap();
        assert_eq!(n.name, "a");
        assert!(n.children.is_empty());
    }

    #[test]
    fn parses_attributes_and_children() {
        let doc = r#"<RelOp PhysicalOp="Hash Match" LogicalOp="Inner Join">
            <RelOp PhysicalOp="Table Scan" Table="orders"/>
        </RelOp>"#;
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.attr("PhysicalOp"), Some("Hash Match"));
        assert_eq!(n.children.len(), 1);
        assert_eq!(n.children[0].attr("Table"), Some("orders"));
    }

    #[test]
    fn skips_declaration_and_comments() {
        let doc = "<?xml version=\"1.0\"?><!-- c --><root><child/></root>";
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.name, "root");
        assert_eq!(n.children.len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(XmlNode::parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        assert!(XmlNode::parse(&nest(MAX_DEPTH)).is_ok());
        let err = XmlNode::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "elements nested deeper than 256 levels");
        assert_eq!(XmlNode::parse(&nest(100_000)).unwrap_err(), err);
        // A self-closing element at the limit opens nothing.
        let leaf = "<a>".repeat(MAX_DEPTH) + "<b/>" + &"</a>".repeat(MAX_DEPTH);
        assert!(XmlNode::parse(&leaf).is_ok());
    }

    #[test]
    fn unescapes_entities() {
        let n = XmlNode::parse("<a v=\"x &lt; y &amp; z\">a &gt; b</a>").unwrap();
        assert_eq!(n.attr("v"), Some("x < y & z"));
        assert_eq!(n.text, "a > b");
    }

    #[test]
    fn numeric_entities() {
        let n = XmlNode::parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(n.text, "AB");
    }

    #[test]
    fn cdata_is_text() {
        let n = XmlNode::parse("<a><![CDATA[x < y]]></a>").unwrap();
        assert_eq!(n.text, "x < y");
    }

    #[test]
    fn namespace_local_name() {
        let n = XmlNode::parse("<shp:ShowPlanXML/>").unwrap();
        assert_eq!(n.local_name(), "ShowPlanXML");
    }

    #[test]
    fn round_trip_through_pretty_printer() {
        let original = XmlNode::new("Root")
            .with_attr("a", "1 < 2")
            .with_child(XmlNode::new("Child").with_attr("x", "y"));
        let text = original.to_string_pretty();
        let reparsed = XmlNode::parse(&text).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn child_lookup_by_local_name() {
        let doc = "<r><ns:Item k=\"1\"/><Item k=\"2\"/></r>";
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.children_named("Item").count(), 2);
        assert_eq!(n.child("Item").unwrap().attr("k"), Some("1"));
    }

    /// The entity decoder this module used to ship, which searched the
    /// whole remainder for `;` at every `&`: kept as the oracle the
    /// bounded lookahead must match on every input.
    fn unescape_oracle(s: &str) -> String {
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

    fn entity_soup() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just("&lt;"),
                Just("&gt;"),
                Just("&amp;"),
                Just("&quot;"),
                Just("&apos;"),
                Just("&#65;"),
                Just("&#x42;"),
                Just("&#x1F600;"),
                Just("&#0000067;"),
                Just("&#+68;"),
                Just("&#x+69;"),
                Just("&#-1;"),
                Just("&#xD800;"),
                Just("&#1114112;"),
                Just("&#;"),
                Just("&#x;"),
                Just("&#X41;"),
                Just("&LT;"),
                Just("&bogus;"),
                Just("&é;"),
                Just("&"),
                Just(";"),
                Just("#"),
                Just("x"),
                Just("+"),
                Just("lt"),
                Just("amp"),
                Just("4"),
                Just(" "),
                Just("é"),
                Just("<"),
            ],
            0..24,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn unescape_matches_the_unbounded_decoder(
            soup in entity_soup(),
            noise in "[&#;xX0-9a-fA-F+ltgmpquos é]{0,40}",
        ) {
            prop_assert_eq!(unescape(&soup), unescape_oracle(&soup));
            prop_assert_eq!(unescape(&noise), unescape_oracle(&noise));
            let mixed = format!("{noise}{soup}{noise}");
            prop_assert_eq!(unescape(&mixed), unescape_oracle(&mixed));
        }
    }

    #[test]
    fn unescape_is_linear_on_runs_without_semicolons() {
        // Every `&` used to scan the whole remainder for a `;`: a 1 MiB
        // run of "& " took minutes. Bounded lookahead makes it one pass.
        for unit in ["& ", "&a", "&#1", "&&"] {
            let run = unit.repeat((1 << 20) / unit.len());
            let started = std::time::Instant::now();
            let decoded = unescape(&run);
            let elapsed = started.elapsed();
            assert_eq!(decoded, run);
            assert!(
                elapsed < std::time::Duration::from_secs(1),
                "{unit:?} x 1 MiB took {elapsed:?}"
            );
        }
        let doc = format!("<Predicate>{}</Predicate>", "a & b ".repeat(1 << 17));
        let started = std::time::Instant::now();
        let node = XmlNode::parse(&doc).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(node.text.len(), "a & b ".len() * (1 << 17) - 1);
    }
}
