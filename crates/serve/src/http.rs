//! Minimal HTTP/1.1 message support: exactly the subset the narration
//! service needs (request line + headers + `Content-Length` bodies,
//! keep-alive, plain-status responses). [`parse_request`] reads
//! pipelined requests straight out of a connection's byte buffer, one
//! at a time, and [`encode_response`] appends responses to one.
//!
//! This is deliberately not a general HTTP implementation. Chunked
//! transfer encoding, continuation lines, trailers, and HTTP/2 are all
//! rejected with explicit statuses rather than half-supported.

/// Cap on the request line + header block, defending the worker pool
/// against unbounded header streams.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the wire (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Query parameters in order of appearance. Keys and values are
    /// percent-decoded (`%XX` escapes and `+`-as-space), so
    /// `?style=bulleted%20` and `?style=bulleted+` both read back as
    /// `"bulleted "`.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` when it isn't valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request head was rejected. Each variant maps to the HTTP
/// status the server answers with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line or header block → `400`.
    Malformed(String),
    /// Head grew beyond [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Body advertised more than the configured cap → `413`.
    BodyTooLarge { advertised: usize, limit: usize },
    /// `POST` without a `Content-Length` → `411`.
    LengthRequired,
    /// `Transfer-Encoding` (chunked uploads) is not supported → `501`.
    UnsupportedTransferEncoding,
}

impl RequestError {
    /// The status code the server answers with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::BodyTooLarge { .. } => 413,
            RequestError::LengthRequired => 411,
            RequestError::UnsupportedTransferEncoding => 501,
        }
    }

    /// Human-readable diagnostic for the error body.
    pub fn message(&self) -> String {
        match self {
            RequestError::Malformed(m) => m.clone(),
            RequestError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RequestError::BodyTooLarge { advertised, limit } => {
                format!("request body of {advertised} bytes exceeds the {limit}-byte limit")
            }
            RequestError::LengthRequired => "POST requires a Content-Length header".into(),
            RequestError::UnsupportedTransferEncoding => {
                "Transfer-Encoding is not supported; send a Content-Length body".into()
            }
        }
    }
}

/// What [`parse_request`] makes of the bytes a connection has
/// accumulated so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Not enough bytes for a verdict on the first request yet.
    Incomplete,
    /// The first request, which occupied the first `usize` bytes of the
    /// buffer (head and body); pipelined bytes after it are untouched.
    Done(Request, usize),
    /// The first request's head is rejected: answer
    /// [`RequestError::status`] and close the connection.
    Failed(RequestError),
}

/// Parse the first request out of `buf`, the bytes read off one
/// connection so far.
///
/// `max_body_bytes` bounds the accepted `Content-Length`. Every check
/// runs as soon as the head is complete: a head the parser rejects
/// (oversized advertised body and `Transfer-Encoding` included) fails
/// without waiting for body bytes that will never be honoured, and more
/// than [`MAX_HEAD_BYTES`] without a head terminator fails with `431`.
pub fn parse_request(buf: &[u8], max_body_bytes: usize) -> Parsed {
    // The head ends at the first blank line (`\r\n\r\n`, or `\n\n` from
    // bare-LF peers); one that ends past the cap is as bad as none.
    let scan = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let head_end = (0..scan.len()).find(|&i| {
        scan[i] == b'\n' && (scan[..i].ends_with(b"\n") || scan[..i].ends_with(b"\r\n\r"))
    });
    let Some(head_end) = head_end.map(|i| i + 1) else {
        return if buf.len() > MAX_HEAD_BYTES {
            Parsed::Failed(RequestError::HeadTooLarge)
        } else {
            Parsed::Incomplete
        };
    };
    match parse_head(&buf[..head_end], max_body_bytes) {
        Err(err) => Parsed::Failed(err),
        Ok((_, body_len)) if buf.len() < head_end + body_len => Parsed::Incomplete,
        Ok((mut request, body_len)) => {
            request.body = buf[head_end..head_end + body_len].to_vec();
            Parsed::Done(request, head_end + body_len)
        }
    }
}

/// Validate a complete head (terminator included) into a body-less
/// [`Request`] plus the body length it announces.
fn parse_head(head: &[u8], max_body_bytes: usize) -> Result<(Request, usize), RequestError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.0 defaults to close; 1.1 defaults to keep-alive.
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(RequestError::UnsupportedTransferEncoding);
    }

    // Request-smuggling guard: duplicate Content-Length headers that
    // *disagree* are ambiguous — two parsers picking different body
    // boundaries is exactly how smuggled requests hide behind
    // intermediaries — so they are rejected outright. Identical
    // repeats are tolerated (RFC 9110 §8.6 allows folding them).
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let parsed = v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("invalid Content-Length {v:?}")))?;
        match content_length {
            None => content_length = Some(parsed),
            Some(prev) if prev != parsed => {
                return Err(RequestError::Malformed(format!(
                    "conflicting Content-Length headers ({prev} vs {parsed})"
                )))
            }
            Some(_) => {}
        }
    }
    let body_len = match (method, content_length) {
        (_, Some(n)) if n > max_body_bytes => {
            return Err(RequestError::BodyTooLarge {
                advertised: n,
                limit: max_body_bytes,
            })
        }
        (_, Some(n)) => n,
        ("POST" | "PUT" | "PATCH", None) => return Err(RequestError::LengthRequired),
        (_, None) => 0,
    };

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (decode_query_component(k), decode_query_component(v)),
            None => (decode_query_component(pair), String::new()),
        })
        .collect();

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body: Vec::new(),
        keep_alive,
    };
    Ok((request, body_len))
}

/// Percent-decode one `application/x-www-form-urlencoded` query
/// component: `+` decodes to a space and `%XX` to a byte. Invalid
/// escapes pass through literally (lenient, like most servers), and a
/// decode that is not valid UTF-8 falls back to the raw component.
fn decode_query_component(raw: &str) -> String {
    fn hex(b: Option<&u8>) -> Option<u8> {
        (*b? as char).to_digit(16).map(|d| d as u8)
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| raw.to_string())
}

/// An HTTP response about to be written to the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (reason phrase derived via [`status_reason`]).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the fixed `Content-Type`/`Content-Length`/
    /// `Connection` set (e.g. `Retry-After` on a load-shed `503`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with the given status, content-typed as
    /// the Prometheus text exposition format (which is plain UTF-8
    /// text, versioned via the media-type parameter).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First extra-header value with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Ensure the response carries the request-ID header exactly once.
    /// An already-present ID (e.g. echoed by a replica the request was
    /// forwarded to) wins — the ID must stay stable across hops.
    pub fn with_request_id(self, id: &str) -> Self {
        if self.header(REQUEST_ID_HEADER).is_some() {
            self
        } else {
            self.with_header(REQUEST_ID_HEADER, id)
        }
    }
}

/// The header that carries a request's ID from ingress to replica and
/// back to the client.
pub const REQUEST_ID_HEADER: &str = "x-lantern-request-id";

/// Canonical reason phrase for the statuses the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `response` into `out`, flagging whether the connection
/// stays open. Head and body land in one buffer so the response goes
/// out in a single write — one TCP segment when it fits; two small
/// writes would hand Nagle's algorithm a reason to stall the body
/// behind a delayed ACK.
pub fn encode_response(out: &mut Vec<u8>, response: &Response, keep_alive: bool) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    out.reserve(head.len() + response.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&response.body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rand::rngs::StdRng;
    use proptest::rand::Rng;

    /// The verdict on the first request in `raw`, which must hold one.
    fn parse(raw: &str) -> Result<Request, RequestError> {
        match parse_request(raw.as_bytes(), 1024) {
            Parsed::Done(req, _) => Ok(req),
            Parsed::Failed(err) => Err(err),
            Parsed::Incomplete => panic!("no verdict on {raw:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /narrate?style=bulleted&x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/narrate");
        assert_eq!(req.query_param("style"), Some("bulleted"));
        assert_eq!(req.query_param("x"), Some(""));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let req =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.body_utf8(), Some("body"));
        assert!(!req.keep_alive);
        assert_eq!(req.header("content-length"), Some("4"));
        assert_eq!(req.header("Content-Length"), Some("4"));
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let err =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nbody")
                .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.message().contains("conflicting Content-Length"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        let req =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.body_utf8(), Some("body"));
    }

    #[test]
    fn conflicting_content_length_beats_invalid_second_value() {
        // One valid + one unparseable value is still malformed.
        let err =
            parse("POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: nope\r\n\r\nbody")
                .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn query_params_are_percent_decoded() {
        let req = parse(
            "GET /narrate?style=bulleted%20&q=a%2Bb&plus=one+two HTTP/1.1\r\nHost: a\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.query_param("style"), Some("bulleted "));
        assert_eq!(req.query_param("q"), Some("a+b"));
        assert_eq!(req.query_param("plus"), Some("one two"));
    }

    #[test]
    fn encoded_query_keys_decode_too() {
        let req = parse("GET /x?no%63ache=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("nocache"), Some("1"));
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        let req = parse("GET /x?a=100%&b=%zz&c=%4 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("a"), Some("100%"));
        assert_eq!(req.query_param("b"), Some("%zz"));
        assert_eq!(req.query_param("c"), Some("%4"));
    }

    #[test]
    fn http_10_defaults_to_close() {
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn empty_or_headless_buffers_are_incomplete() {
        for raw in ["", "\n", "GET /x HTTP/1.1\r\n", "GET /x HTTP/1.1\r\n\r"] {
            assert_eq!(
                parse_request(raw.as_bytes(), 1024),
                Parsed::Incomplete,
                "{raw:?}"
            );
        }
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} → {err:?}");
        }
        let non_utf8 = b"GET /\xff HTTP/1.1\r\n\r\n";
        let Parsed::Failed(err) = parse_request(non_utf8, 1024) else {
            panic!("non-UTF-8 head must fail");
        };
        assert_eq!(err.message(), "request head is not UTF-8");
    }

    #[test]
    fn post_without_length_is_411_and_chunked_is_501() {
        assert_eq!(
            parse("POST /narrate HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            411
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            501
        );
    }

    #[test]
    fn transfer_encoding_with_a_length_fails_before_the_body_arrives() {
        // The head alone decides: a 501 does not wait for the 100 body
        // bytes the Content-Length announces.
        let head = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 100\r\n\r\n";
        assert_eq!(
            parse_request(head, 1024),
            Parsed::Failed(RequestError::UnsupportedTransferEncoding)
        );
    }

    #[test]
    fn oversized_body_is_413() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("2048"), "{}", err.message());
    }

    #[test]
    fn oversized_head_is_431() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&huge).unwrap_err().status(), 431);
    }

    #[test]
    fn response_wire_form_is_exact() {
        let mut out = Vec::new();
        encode_response(&mut out, &Response::json(200, r#"{"ok":true}"#), true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        let resp = Response::json(503, r#"{"err":1}"#).with_header("Retry-After", "1");
        encode_response(&mut out, &resp, false);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"err\":1}"), "{text}");
    }

    #[test]
    fn frame_scanner_finds_request_boundaries() {
        let full = b"POST /narrate HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every strict prefix is incomplete; the exact request completes.
        for cut in 0..full.len() {
            assert_eq!(
                parse_request(&full[..cut], 1024),
                Parsed::Incomplete,
                "cut at {cut}"
            );
        }
        let Parsed::Done(first, consumed) = parse_request(full, 1024) else {
            panic!("complete request");
        };
        assert_eq!((first.body_utf8(), consumed), (Some("body"), full.len()));
        // A pipelined second request does not move the first boundary.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(parse_request(&two, 1024), Parsed::Done(first, full.len()));
        // Bare-LF terminators end a head too.
        let lf = b"GET /healthz HTTP/1.1\nHost: a\n\n";
        assert!(matches!(parse_request(lf, 1024), Parsed::Done(_, n) if n == lf.len()));
    }

    #[test]
    fn frame_scanner_does_not_wait_for_unhonoured_bytes() {
        // Oversized advertised body: 413 from the head, before any body
        // byte arrives.
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert_eq!(
            parse_request(big, 1024),
            Parsed::Failed(RequestError::BodyTooLarge {
                advertised: 9999,
                limit: 1024
            })
        );
        // Head overflow without a terminator fails once past the cap,
        // and not a byte before.
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(
            parse_request(&huge[..MAX_HEAD_BYTES], 1024),
            Parsed::Incomplete
        );
        assert_eq!(
            parse_request(&huge, 1024),
            Parsed::Failed(RequestError::HeadTooLarge)
        );
        // A terminator past the cap is no better, body pending or not.
        let late = format!(
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(
            parse_request(late.as_bytes(), 1024),
            Parsed::Failed(RequestError::HeadTooLarge)
        );
    }

    #[test]
    fn two_requests_on_one_connection() {
        let mut buf = b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n".to_vec();
        for path in ["/healthz", "/stats"] {
            let Parsed::Done(req, consumed) = parse_request(&buf, 1024) else {
                panic!("request for {path}");
            };
            assert_eq!(req.path, path);
            buf.drain(..consumed);
        }
        assert!(buf.is_empty());
        assert_eq!(parse_request(&buf, 1024), Parsed::Incomplete);
    }

    /// Feed `chunks` into one connection buffer the way the event core
    /// does — parse after every chunk until no verdict is left — and
    /// collect each request or error. A failure ends the connection.
    fn feed(chunks: &[&[u8]]) -> Vec<Result<Request, RequestError>> {
        let mut buf = Vec::new();
        let mut verdicts = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            loop {
                match parse_request(&buf, 1024) {
                    Parsed::Incomplete => break,
                    Parsed::Done(req, consumed) => {
                        buf.drain(..consumed);
                        verdicts.push(Ok(req));
                    }
                    Parsed::Failed(err) => {
                        verdicts.push(Err(err));
                        return verdicts;
                    }
                }
            }
        }
        verdicts
    }

    fn pick(rng: &mut StdRng, alphabet: &[u8]) -> u8 {
        alphabet[rng.gen_range(0..alphabet.len())]
    }

    /// A seeded pipelined stream: mostly well-formed requests (bodies
    /// that contain blank lines, bare-LF heads, escapes, HTTP/1.0), with
    /// an occasional head each check rejects.
    fn pipelined_stream(rng: &mut StdRng) -> Vec<u8> {
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let body: Vec<u8> = (0..rng.gen_range(0..48usize))
                .map(|_| pick(rng, b"ab{}\":\r\n \xff"))
                .collect();
            let eol = if rng.gen_bool(0.2) { "\n" } else { "\r\n" };
            let head = match rng.gen_range(0..12u32) {
                0 => format!("GET /healthz?a=%41&b=c+d HTTP/1.1{eol}Host: x{eol}"),
                1 => format!("GET /stats HTTP/1.0{eol}Connection: keep-alive{eol}"),
                2 => format!(
                    "POST /narrate HTTP/1.1{eol}Content-Length: {0}{eol}Content-Length: {0}{eol}",
                    body.len()
                ),
                3 => format!("POST /x HTTP/1.1{eol}Transfer-Encoding: chunked{eol}"),
                4 => format!("POST /x HTTP/1.1{eol}Content-Length: 4{eol}Content-Length: 5{eol}"),
                5 => format!("POST /x HTTP/1.1{eol}Content-Length: 4096{eol}"),
                6 => format!("POST /x HTTP/1.1{eol}"),
                7 => format!("NOT-HTTP{eol}"),
                8 if rng.gen_bool(0.25) => format!(
                    "GET /x HTTP/1.1{eol}X-Pad: {}{eol}",
                    "p".repeat(MAX_HEAD_BYTES)
                ),
                _ => format!(
                    "POST /narrate/batch?style=bulleted HTTP/1.1{eol}Content-Length: {}{eol}",
                    body.len()
                ),
            };
            stream.extend_from_slice(head.as_bytes());
            stream.extend_from_slice(eol.as_bytes());
            stream.extend_from_slice(&body);
        }
        stream
    }

    /// `stream` cut at up to 32 random points.
    fn random_chunks<'a>(stream: &'a [u8], rng: &mut StdRng) -> Vec<&'a [u8]> {
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..32usize))
            .map(|_| rng.gen_range(0..=stream.len()))
            .collect();
        cuts.sort_unstable();
        let mut chunks = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            chunks.push(&stream[start..cut]);
            start = cut;
        }
        chunks
    }

    proptest! {
        #[test]
        fn chunked_feeding_yields_what_whole_feeding_does(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = pipelined_stream(&mut rng);
            let whole = feed(&[stream.as_slice()]);
            prop_assert!(!whole.is_empty());
            prop_assert_eq!(feed(&random_chunks(&stream, &mut rng)), whole);
        }

        #[test]
        fn mutated_streams_never_panic_and_still_split_cleanly(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = pipelined_stream(&mut rng);
            for _ in 0..rng.gen_range(1..12usize) {
                let at = rng.gen_range(0..stream.len());
                let byte = pick(&mut rng, b"\r\n: 0123456789\xff\x00");
                match rng.gen_range(0..3u32) {
                    0 => stream[at] = byte,
                    1 => stream.insert(at, byte),
                    _ => {
                        stream.remove(at);
                        if stream.is_empty() {
                            break;
                        }
                    }
                }
            }
            let whole = feed(&[stream.as_slice()]);
            prop_assert_eq!(feed(&random_chunks(&stream, &mut rng)), whole);
        }
    }
}
