//! A minimal blocking HTTP/1.1 client, just big enough to exercise the
//! server from tests, examples, and benches without `curl` — one
//! keep-alive connection, `Content-Length` bodies only.
//!
//! The client doubles as the cluster coordinator's forwarding leg, so
//! failures are classified ([`ClientError`]): a connect that never
//! completes, a replica that accepts but never answers, a connection
//! that dies mid-exchange, and a malformed response are different
//! decisions for a failover policy (retry the ring successor vs give
//! up), where a bare `io::Error` would flatten them all into "broken".

use lantern_text::json::{JsonError, JsonValue};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body as UTF-8 text.
    pub body: String,
}

impl ClientResponse {
    /// Parse the body as JSON.
    pub fn json(&self) -> Result<JsonValue, JsonError> {
        JsonValue::parse(&self.body)
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What went wrong with a client exchange, coarse enough to drive a
/// retry/failover decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientErrorKind {
    /// The TCP connect failed or timed out — nothing is listening (or
    /// reachable) at the address.
    Connect,
    /// A read or write ran into the configured timeout: the peer
    /// accepted the connection (or the request) but stopped making
    /// progress. The request may or may not have been processed.
    Timeout,
    /// The connection closed before a complete response arrived (clean
    /// EOF or reset). Typical of a server killed mid-exchange, or a
    /// stale pooled keep-alive connection.
    Closed,
    /// The peer answered, but not with parseable HTTP.
    Protocol,
    /// Any other I/O failure.
    Io,
}

impl ClientErrorKind {
    /// Whether an idempotent request that failed this way is worth
    /// retrying elsewhere (on another replica, or on a fresh
    /// connection). `Protocol` is not: the peer is answering, just not
    /// speaking HTTP — a different connection won't change that.
    pub fn is_retriable(self) -> bool {
        !matches!(self, ClientErrorKind::Protocol)
    }
}

/// A classified client failure: the [`ClientErrorKind`] plus the
/// underlying `io::Error`.
#[derive(Debug)]
pub struct ClientError {
    /// Failure class, for failover decisions.
    pub kind: ClientErrorKind,
    source: io::Error,
}

impl ClientError {
    fn new(kind: ClientErrorKind, source: io::Error) -> Self {
        ClientError { kind, source }
    }

    fn protocol(message: impl Into<String>) -> Self {
        ClientError::new(ClientErrorKind::Protocol, io::Error::other(message.into()))
    }

    /// Classify an `io::Error` from a read/write on an established
    /// connection. Timeouts surface as `WouldBlock` or `TimedOut`
    /// depending on platform; both mean "no progress before the
    /// deadline".
    fn from_io(source: io::Error) -> Self {
        let kind = match source.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientErrorKind::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => ClientErrorKind::Closed,
            _ => ClientErrorKind::Io,
        };
        ClientError::new(kind, source)
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ClientErrorKind::Connect => "connect failed",
            ClientErrorKind::Timeout => "timed out",
            ClientErrorKind::Closed => "connection closed",
            ClientErrorKind::Protocol => "malformed response",
            ClientErrorKind::Io => "i/o error",
        };
        write!(f, "{kind}: {}", self.source)
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<ClientError> for io::Error {
    fn from(err: ClientError) -> io::Error {
        io::Error::new(err.source.kind(), err.to_string())
    }
}

/// Connection tuning for [`HttpClient::connect_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on TCP connect. `None` leaves it to the OS (which can be
    /// minutes against a blackholed address).
    pub connect_timeout: Option<Duration>,
    /// Bound on each read while waiting for a response. `None` blocks
    /// indefinitely — a dead-but-accepting peer then hangs the caller,
    /// so anything that needs to fail over should set it.
    pub read_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            // The historical defaults of `HttpClient::connect`: OS
            // connect behavior, generous read bound so a wedged test
            // fails instead of hanging.
            connect_timeout: None,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// One keep-alive connection to a narration server.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Every call answers a [`ClientError`], classified for retry and
/// failover decisions; `?` converts it into an `io::Error` where a
/// caller wants one.
impl HttpClient {
    /// Connect, with a generous request timeout so a wedged test fails
    /// instead of hanging.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<HttpClient, ClientError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ClientError::new(ClientErrorKind::Connect, e))?;
        Self::from_stream(stream, &ClientConfig::default())
    }

    /// Connect to one concrete address under explicit timeouts. This is
    /// the entry point failover code wants: a refused or blackholed
    /// replica comes back as [`ClientErrorKind::Connect`] within
    /// `config.connect_timeout` instead of hanging.
    pub fn connect_with(
        addr: SocketAddr,
        config: &ClientConfig,
    ) -> Result<HttpClient, ClientError> {
        let stream = match config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout),
            None => TcpStream::connect(addr),
        }
        .map_err(|e| ClientError::new(ClientErrorKind::Connect, e))?;
        Self::from_stream(stream, config)
    }

    fn from_stream(stream: TcpStream, config: &ClientConfig) -> Result<HttpClient, ClientError> {
        stream
            .set_read_timeout(config.read_timeout)
            .and_then(|()| stream.set_nodelay(true))
            .map_err(ClientError::from_io)?;
        let writer = stream.try_clone().map_err(ClientError::from_io)?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, None)
    }

    /// `POST path` with a body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", path, Some(body))
    }

    /// Issue one request on the connection and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        self.try_request_with(method, path, &[], body)
    }

    /// [`HttpClient::request`] with extra request headers — the
    /// coordinator's forwarding leg uses this to propagate
    /// `x-lantern-request-id` to the replica it routes to.
    pub fn try_request_with(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        self.write_request(method, path, headers, body)?;
        self.read_response()
    }

    fn write_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<(), ClientError> {
        let body = body.unwrap_or("");
        // One write for head + body (see `http::encode_response` for
        // the Nagle rationale).
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: lantern\r\n");
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        use std::fmt::Write as _;
        let _ = write!(head, "Content-Length: {}\r\n\r\n", body.len());
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        self.writer
            .write_all(&wire)
            .and_then(|()| self.writer.flush())
            .map_err(ClientError::from_io)
    }

    /// Read the next response off the connection.
    fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {
                return Err(ClientError::new(
                    ClientErrorKind::Closed,
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a response arrived",
                    ),
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(ClientError::from_io(e)),
        }
        // "HTTP/1.1 200 OK"
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ClientError::protocol(format!("malformed status line {line:?}")))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(ClientError::new(
                        ClientErrorKind::Closed,
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed inside the response head",
                        ),
                    ))
                }
                Ok(_) => {}
                Err(e) => return Err(ClientError::from_io(e)),
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value
                        .parse()
                        .map_err(|_| ClientError::protocol("bad Content-Length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(ClientError::from_io)?;
        let body = String::from_utf8(body)
            .map_err(|_| ClientError::protocol("response body is not UTF-8"))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A replica that accepts and then goes silent must fail the caller
    /// with `Timeout` inside the configured bound — not hang it. This
    /// is the contract the coordinator's failover is built on.
    #[test]
    fn stalled_peer_times_out_with_classified_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            // Accept, read nothing, answer nothing, hold the socket
            // open until the client gives up.
            let (sock, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(sock);
        });
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_millis(250)),
            read_timeout: Some(Duration::from_millis(100)),
        };
        let mut client = HttpClient::connect_with(addr, &config).unwrap();
        let started = std::time::Instant::now();
        let err = client.request("GET", "/healthz", None).unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Timeout, "{err}");
        assert!(err.kind.is_retriable());
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "timeout must bound the wait: {:?}",
            started.elapsed()
        );
        stall.join().unwrap();
    }

    #[test]
    fn refused_connect_classifies_as_connect_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_millis(250)),
            ..ClientConfig::default()
        };
        let err = HttpClient::connect_with(addr, &config).unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Connect, "{err}");
        assert!(err.kind.is_retriable());
        // The io::Error conversion keeps the classification readable.
        let io_err: io::Error = err.into();
        assert!(io_err.to_string().contains("connect failed"), "{io_err}");
    }

    #[test]
    fn mid_response_close_classifies_as_closed_and_garbage_as_protocol() {
        for (wire, expected) in [
            // Head starts, then the peer dies.
            (
                &b"HTTP/1.1 200 OK\r\nContent-Le"[..],
                ClientErrorKind::Closed,
            ),
            // Complete head promising more body than is sent.
            (
                &b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"[..],
                ClientErrorKind::Closed,
            ),
            // Not HTTP at all.
            (&b"SMTP ready\r\n"[..], ClientErrorKind::Protocol),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut sock, _) = listener.accept().unwrap();
                sock.write_all(wire).unwrap();
                // Closing the socket is the fault being injected.
            });
            let mut client = HttpClient::connect_with(addr, &ClientConfig::default()).unwrap();
            let err = client.request("GET", "/", None).unwrap_err();
            assert_eq!(err.kind, expected, "wire {wire:?}: {err}");
            server.join().unwrap();
        }
        assert!(!ClientErrorKind::Protocol.is_retriable());
    }
}
