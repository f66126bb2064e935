//! The request envelopes of the narration and catalog endpoints, and
//! the error bodies answering malformed ones, read and written here once
//! for the replica [`Router`](crate::Router) and the cluster coordinator.
//!
//! Envelopes are read with [`JsonReader`] straight off the body, with no
//! `JsonValue` tree: `?style=` first, then UTF-8, then the envelope; a
//! syntax error anywhere is reported before any shape error; a later
//! duplicate key wins; a string entry is decoded once, borrowed when it
//! holds no escape. Every `Err` is the finished `400`, so a coordinator
//! running the same reader before it routes answers each malformed
//! request with exactly the replica's status and bytes.

use crate::http::{Request, Response};
use lantern_core::{LanternError, PlanFormat, RenderStyle};
use lantern_text::json::{write_number, write_string, JsonError, JsonReader};
use std::borrow::Cow;
use std::ops::Range;

const NOT_UTF8: &str = "request body is not valid UTF-8";

/// Append the error body `{"error": {"kind", "message", "status"}}`,
/// led by `"alt_index"` for a `/narrate/diff/batch` item.
fn write_error(out: &mut String, kind: &str, message: &str, status: u16, alt_index: Option<usize>) {
    out.push('{');
    if let Some(index) = alt_index {
        out.push_str("\"alt_index\":");
        write_number(out, index as f64);
        out.push(',');
    }
    out.push_str("\"error\":{\"kind\":");
    write_string(out, kind);
    out.push_str(",\"message\":");
    write_string(out, message);
    out.push_str(",\"status\":");
    write_number(out, f64::from(status));
    out.push_str("}}");
}

/// Append the error body for a narration failure, under its own kind
/// and status, led by `"alt_index"` for a `/narrate/diff/batch` item.
pub fn write_lantern_error(out: &mut String, err: &LanternError, alt_index: Option<usize>) {
    write_error(
        out,
        err.kind(),
        &err.to_string(),
        err.http_status(),
        alt_index,
    );
}

/// The error body for a failure that never reached the translator
/// (routing and HTTP protocol errors).
pub fn error_body_raw(kind: &str, message: &str, status: u16) -> String {
    let mut out = String::new();
    write_error(&mut out, kind, message, status, None);
    out
}

/// A complete HTTP error response for a narration failure.
pub fn error_response(err: &LanternError) -> Response {
    let mut body = String::new();
    write_lantern_error(&mut body, err, None);
    Response::json(err.http_status(), body)
}

/// A complete HTTP error response for a failure that never reached the
/// translator: [`error_body_raw`] under `status`.
pub fn json_error(kind: &str, message: &str, status: u16) -> Response {
    Response::json(status, error_body_raw(kind, message, status))
}

fn parse_error(message: &str) -> Response {
    json_error("parse", message, 400)
}

/// One entry of an array of plan documents: its bytes in the body, and
/// its document, or the per-item error a non-string entry gets.
#[derive(Debug)]
pub struct Entry<'a> {
    /// The entry's byte range in the request body.
    pub span: Range<usize>,
    /// The decoded document.
    pub doc: Result<Cow<'a, str>, LanternError>,
}

/// A narration request as its route reads it: the `?style=` override,
/// the body, and the documents the body carries (`/narrate`'s body is
/// its document).
#[derive(Debug)]
pub struct Envelope<'a, D> {
    /// The `?style=` override.
    pub style: Option<RenderStyle>,
    /// The request body.
    pub body: &'a str,
    /// The documents read out of the body.
    pub docs: D,
}

/// The documents of a diff envelope: the reference plan and the
/// alternative (`/narrate/diff`) or alternatives (`/narrate/diff/batch`).
#[derive(Debug)]
pub struct Diff<'a, A> {
    /// The reference plan document.
    pub base: Cow<'a, str>,
    /// The alternative(s).
    pub alt: A,
}

/// Per-request style override from `?style=`. A value outside the known
/// set is the client's mistake: a `400`, not a translator error.
fn style(req: &Request) -> Result<Option<RenderStyle>, Response> {
    let Some(raw) = req.query_param("style") else {
        return Ok(None);
    };
    // Query values arrive percent-decoded, so an encoded trailing space
    // (`?style=bulleted%20` or `?style=bulleted+`) shows up here as
    // whitespace: forgive it rather than 400ing.
    match raw.trim() {
        "numbered" => Ok(Some(RenderStyle::Numbered)),
        "bulleted" => Ok(Some(RenderStyle::Bulleted)),
        "paragraph" => Ok(Some(RenderStyle::Paragraph)),
        other => Err(json_error(
            "style",
            &format!("unknown style {other:?} (expected numbered, bulleted, or paragraph)"),
            400,
        )),
    }
}

/// The body as UTF-8, else the `parse` 400.
pub fn body_text(req: &Request) -> Result<&str, Response> {
    req.body_utf8().ok_or_else(|| parse_error(NOT_UTF8))
}

/// Read `POST /narrate`. A body that is not UTF-8 answers as the plan
/// parse error it would have become.
pub fn narrate(req: &Request) -> Result<Envelope<'_, ()>, Response> {
    let style = style(req)?;
    let body = req.body_utf8().ok_or_else(|| {
        error_response(&LanternError::Parse {
            format: PlanFormat::PgJson,
            message: NOT_UTF8.into(),
        })
    })?;
    Ok(Envelope {
        style,
        body,
        docs: (),
    })
}

/// Read `POST /narrate/batch`.
pub fn batch(req: &Request) -> Result<Envelope<'_, Vec<Entry<'_>>>, Response> {
    let style = style(req)?;
    let body = body_text(req)?;
    let items = document(body, array_or_skip)
        .map_err(|e| parse_error(&format!("batch body is not JSON: {e}")))?;
    match items {
        // An empty batch is a client mistake (usually a broken harness):
        // a clear 400 instead of an empty 200 the caller would silently
        // zip against its inputs.
        Some(items) if items.is_empty() => Err(parse_error(
            "batch body must be a non-empty JSON array of plan document strings",
        )),
        Some(items) => Ok(Envelope {
            style,
            body,
            docs: plan_entries(items, "batch entries must be plan document strings"),
        }),
        None => Err(parse_error(
            "batch body must be a JSON array of plan document strings",
        )),
    }
}

/// Read `POST /narrate/diff`.
pub fn diff(req: &Request) -> Result<Envelope<'_, Diff<'_, Cow<'_, str>>>, Response> {
    diff_envelope(req, "alt", string_or_skip, |alt| {
        alt.ok_or_else(|| parse_error("\"alt\" must be a plan document string"))
    })
}

/// Read `POST /narrate/diff/batch`.
pub fn diff_batch(req: &Request) -> Result<Envelope<'_, Diff<'_, Vec<Entry<'_>>>>, Response> {
    diff_envelope(req, "alts", array_or_skip, |alts| match alts {
        Some(alts) if alts.is_empty() => Err(parse_error(
            "\"alts\" must be a non-empty JSON array of plan document strings",
        )),
        Some(alts) => Ok(plan_entries(
            alts,
            "\"alts\" entries must be plan document strings",
        )),
        None => Err(parse_error(
            "\"alts\" must be a JSON array of plan document strings",
        )),
    })
}

/// A diff envelope: its string `"base"`, and its `alt_key` value as
/// `read_alt` reads it and `check_alt` accepts it.
fn diff_envelope<'a, A, B>(
    req: &'a Request,
    alt_key: &str,
    read_alt: impl Fn(&mut JsonReader<'a>) -> Result<A, JsonError>,
    check_alt: impl FnOnce(A) -> Result<B, Response>,
) -> Result<Envelope<'a, Diff<'a, B>>, Response> {
    let style = style(req)?;
    let body = body_text(req)?;
    let mut base = None;
    let mut alt = None;
    document(body, |r| {
        members(r, |key, r| {
            if key == "base" {
                base = string_or_skip(r)?;
            } else if key == alt_key {
                alt = Some(read_alt(r)?);
            } else {
                r.skip_value()?;
            }
            Ok(())
        })
    })
    .map_err(|e| parse_error(&format!("diff body is not JSON: {e}")))?;
    let (Some(base), Some(alt)) = (base, alt) else {
        return Err(parse_error(&format!(
            "diff body must be an object with string \"base\" and {alt_key:?} keys"
        )));
    };
    let alt = check_alt(alt)?;
    Ok(Envelope {
        style,
        body,
        docs: Diff { base, alt },
    })
}

/// Read a replica's `POST /catalog/apply`, `{"from_seq": N, "statements":
/// [...]}`: `statements[i]` carries sequence number `N + i`, the JSON
/// number `N` cast to `u64` (saturating).
pub fn catalog_apply(req: &Request) -> Result<(u64, Vec<String>), Response> {
    let body = body_text(req)?;
    let mut from_seq = None;
    let mut statements = None;
    document(body, |r| {
        members(r, |key, r| {
            match key {
                "from_seq" => from_seq = number_or_skip(r)?,
                "statements" => statements = array_or_skip(r)?,
                _ => r.skip_value()?,
            }
            Ok(())
        })
    })
    .map_err(|e| parse_error(&format!("catalog body is not JSON: {e}")))?;
    let from_seq =
        from_seq.ok_or_else(|| parse_error("catalog body must carry a numeric \"from_seq\""))?;
    let statements = statements
        .ok_or_else(|| parse_error("catalog body must carry a \"statements\" array"))?
        .into_iter()
        .map(|(_, text)| text.map(Cow::into_owned))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| parse_error("\"statements\" entries must be POOL statement strings"))?;
    Ok((from_seq as u64, statements))
}

/// The `POST /catalog/apply` envelope a coordinator sends its replicas:
/// `statements` from sequence number `from_seq`.
pub fn write_catalog_apply(from_seq: u64, statements: &[impl AsRef<str>]) -> String {
    let mut out = String::from("{\"from_seq\":");
    write_number(&mut out, from_seq as f64);
    out.push_str(",\"statements\":[");
    for (i, statement) in statements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, statement.as_ref());
    }
    out.push_str("]}");
    out
}

/// `applied_seq` and `version` from a replica's `GET /catalog` or
/// `POST /catalog/apply` answer; `None` without a numeric `applied_seq`,
/// and `version` 0 when it has none.
pub fn catalog_answer(body: &str) -> Option<(u64, u64)> {
    let number = |key| member(body, key).and_then(|raw| raw.parse::<f64>().ok());
    let seq = number("applied_seq")?;
    Some((seq as u64, number("version").unwrap_or(0.0) as u64))
}

/// The raw bytes of the last `key` member of the JSON object `body`;
/// `None` when `body` is not a valid JSON object or has no such member.
pub fn member<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let mut found = None;
    document(body, |r| {
        members(r, |k, r| {
            let start = r.offset();
            r.skip_value()?;
            if k == key {
                found = Some(start..r.offset());
            }
            Ok(())
        })
    })
    .ok()?;
    found.map(|span| &body[span])
}

/// Read the one value of `body` with `read`, then require its end.
fn document<'a, T>(
    body: &'a str,
    read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut reader = JsonReader::new(body);
    let value = read(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Hand each member of the object at the reader to `member`, which reads
/// its value; any other value is validated and has no members.
fn members<'a>(
    r: &mut JsonReader<'a>,
    mut member: impl FnMut(&str, &mut JsonReader<'a>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if r.peek() != Some(b'{') {
        return r.skip_value();
    }
    let mut key = r.begin_object()?;
    while let Some(k) = key {
        member(&k, r)?;
        key = r.next_key()?;
    }
    Ok(())
}

/// The string at the reader, decoded; any other value is validated and
/// read as `None`.
fn string_or_skip<'a>(r: &mut JsonReader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if r.peek() == Some(b'"') {
        return r.string().map(Some);
    }
    r.skip_value().map(|()| None)
}

/// The number at the reader; any other value is validated and read as
/// `None`.
fn number_or_skip(r: &mut JsonReader<'_>) -> Result<Option<f64>, JsonError> {
    if matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
        return r.number().map(Some);
    }
    r.skip_value().map(|()| None)
}

/// One array item: its byte range, and its text when it is a string.
type Item<'a> = (Range<usize>, Option<Cow<'a, str>>);

/// The items of the array at the reader; any other value is validated
/// and read as `None`.
fn array_or_skip<'a>(r: &mut JsonReader<'a>) -> Result<Option<Vec<Item<'a>>>, JsonError> {
    if r.peek() != Some(b'[') {
        return r.skip_value().map(|()| None);
    }
    let mut items = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        let start = r.offset();
        let text = string_or_skip(r)?;
        items.push((start..r.offset(), text));
        more = r.next_item()?;
    }
    Ok(Some(items))
}

/// Array items as plan-document entries: a non-string item becomes the
/// per-item parse error `message`.
fn plan_entries<'a>(items: Vec<Item<'a>>, message: &str) -> Vec<Entry<'a>> {
    items
        .into_iter()
        .map(|(span, text)| Entry {
            span,
            doc: text.ok_or_else(|| LanternError::Parse {
                format: PlanFormat::PgJson,
                message: message.into(),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_lead_with_alt_index_and_sort_inner_keys() {
        let mut out = String::new();
        write_error(&mut out, "parse", "a \"b\"", 400, Some(3));
        assert_eq!(
            out,
            r#"{"alt_index":3,"error":{"kind":"parse","message":"a \"b\"","status":400}}"#
        );
        assert_eq!(
            error_body_raw("http", "no route", 404),
            r#"{"error":{"kind":"http","message":"no route","status":404}}"#
        );
    }

    #[test]
    fn catalog_envelopes_round_trip_and_answers_read_the_last_numbers() {
        let body = write_catalog_apply(7, &["SHOW VERSION", "say \"hi\""]);
        assert_eq!(
            body,
            r#"{"from_seq":7,"statements":["SHOW VERSION","say \"hi\""]}"#
        );
        let req = Request {
            method: "POST".into(),
            path: "/catalog/apply".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.into_bytes(),
            keep_alive: true,
        };
        assert_eq!(
            catalog_apply(&req).unwrap(),
            (7, vec!["SHOW VERSION".into(), "say \"hi\"".into()])
        );
        assert_eq!(
            catalog_answer(r#"{"applied_seq":2,"version":9,"applied_seq":3}"#),
            Some((3, 9))
        );
        assert_eq!(catalog_answer(r#"{"applied_seq":"2"}"#), None);
        assert_eq!(catalog_answer(r#"{"applied_seq":2}"#), Some((2, 0)));
        assert_eq!(catalog_answer(r#"{"applied_seq":2} x"#), None);
        assert_eq!(
            member(r#"{"error": {"k": [1]} }"#, "error"),
            Some(r#"{"k": [1]}"#)
        );
        assert_eq!(member("[1]", "error"), None);
    }
}
