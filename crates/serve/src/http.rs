//! A minimal, defensive HTTP/1.1 subset — just enough wire protocol to
//! carry recognition requests and responses, hardened against the
//! hostile byte streams the chaos harness throws at it.
//!
//! The parser is incremental and bounded everywhere: header bytes are
//! capped, the body is read to an exact declared `Content-Length`
//! (bounded by [`HttpLimits::max_body`]), every read is cut off by the
//! caller-supplied [`Deadline`], and each failure is a typed
//! [`HttpError`] the server maps to a precise status code.
//!
//! Connections persist: [`ConnectionReader`] owns the socket's read
//! side, buffers, and carries bytes read past the current body over to
//! the next request — pipelined requests are re-framed, never treated
//! as protocol errors. Framing is strict where reuse makes laxity
//! dangerous: duplicate `Content-Length` headers and `Transfer-Encoding`
//! (unimplemented here) are both hard 400s, because first-match framing
//! on a reused connection is exactly the request-smuggling shape.
//! No routing, no chunked encoding.

use crate::robust::Deadline;
use std::io::{Read, Write};
use std::time::Duration;

/// Transport bounds for one connection.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum accepted `Content-Length`; beyond it the request is a
    /// 413 before any body byte is read.
    pub max_body: usize,
    /// Maximum header-section bytes before the request is malformed.
    pub max_header_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        // 2 MiB fits any plausible segmented crop (a full 256x256 RGBF32
        // crop is 768 KiB); headers never legitimately reach 8 KiB.
        HttpLimits { max_body: 2 << 20, max_header_bytes: 8 << 10 }
    }
}

/// Typed transport failures, each with its own HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Unparseable request head (400).
    Malformed(&'static str),
    /// Declared body larger than [`HttpLimits::max_body`] (413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The client went quiet before delivering what it declared (408).
    Timeout,
    /// The client disconnected mid-request.
    Disconnected,
    /// Any other socket error.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "declared body of {declared} bytes exceeds the {max}-byte limit")
            }
            HttpError::Timeout => write!(f, "client did not deliver the request in time"),
            HttpError::Disconnected => write!(f, "client disconnected mid-request"),
            HttpError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, verbatim, query string included.
    pub path: String,
    /// Lower-cased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// What the client asked for, framing-wise: `true` for HTTP/1.1
    /// unless `Connection: close`, `false` for HTTP/1.0 unless
    /// `Connection: keep-alive`. The server may still close earlier
    /// (limits, errors, shutdown).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// One response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type", "application/json".into())],
            body: body.into(),
        }
    }

    /// The standard error body: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let quoted =
            serde_json::to_string(&message.to_string()).unwrap_or_else(|_| "\"error\"".to_string());
        Response::json(status, format!("{{\"error\":{quoted}}}"))
    }
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// What one bounded read observed.
enum ReadEvent {
    /// `n` fresh bytes.
    Data(usize),
    /// Orderly EOF from the peer.
    Eof,
    /// The socket's read timeout elapsed with nothing to read.
    TimedOut,
}

/// One read, with timeout-ish kinds surfaced as [`ReadEvent::TimedOut`]
/// so the caller can decide whether the budget is actually spent.
fn read_event<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadEvent, HttpError> {
    loop {
        match r.read(buf) {
            Ok(0) => return Ok(ReadEvent::Eof),
            Ok(n) => return Ok(ReadEvent::Data(n)),
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    return Ok(ReadEvent::TimedOut)
                }
                std::io::ErrorKind::Interrupted => continue,
                kind => return Err(HttpError::Io(kind)),
            },
        }
    }
}

/// A connection's read side: the socket plus every byte read past the
/// request most recently parsed.
///
/// HTTP/1.1 clients may pipeline: the read that completes request N's
/// body is allowed to also deliver request N+1 (or half of it). Those
/// bytes belong to the *next* call of [`ConnectionReader::next_request`],
/// so they are carried here instead of being condemned as "more body
/// bytes than Content-Length" the way the PR 7 one-shot parser did.
pub struct ConnectionReader<R> {
    inner: R,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
}

impl<R: Read> ConnectionReader<R> {
    /// Wrap a connection's read side.
    pub fn new(inner: R) -> Self {
        ConnectionReader { inner, buf: Vec::new() }
    }

    /// The wrapped reader, e.g. to write a response on a duplex socket.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Unwrap, dropping any buffered bytes.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Read the next request off the connection.
    ///
    /// * `Ok(Some(req))` — a complete request, framed by its own
    ///   `Content-Length`; surplus bytes stay buffered for the next call.
    /// * `Ok(None)` — the connection went quiescent before any byte of
    ///   a next request arrived: orderly EOF, `idle` expiry, or
    ///   `cancel_idle` returning true (server drain). Close the socket;
    ///   there is nobody to answer.
    /// * `Err(_)` — a typed failure *mid-request*; the server answers
    ///   it and closes, because the framing can no longer be trusted.
    ///
    /// Once the first byte of a request exists, the whole request
    /// (head and body) must arrive within `budget` — that budget, not
    /// the per-read socket timeout, is what stops the slow-loris client
    /// dribbling one byte per interval forever.
    pub fn next_request(
        &mut self,
        limits: &HttpLimits,
        idle: &Deadline,
        budget: Duration,
        cancel_idle: &dyn Fn() -> bool,
    ) -> Result<Option<Request>, HttpError> {
        let mut chunk = [0u8; 1024];
        // Idle phase: nothing of the next request has arrived yet.
        while self.buf.is_empty() {
            if cancel_idle() || idle.expired() {
                return Ok(None);
            }
            match read_event(&mut self.inner, &mut chunk)? {
                ReadEvent::Eof => return Ok(None),
                ReadEvent::TimedOut => continue,
                ReadEvent::Data(n) => self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            }
        }

        // Request phase: the budget clock runs from the first byte.
        let deadline = Deadline::after(budget);
        // Head: accumulate until the blank line, bounded in bytes and
        // time. `scanned` is how far the terminator search has already
        // looked, so each fresh chunk costs one pass over its own bytes
        // (plus a 3-byte overlap), not a rescan of the whole head.
        let mut scanned = 0usize;
        let split = loop {
            if let Some(pos) = find_head_end(&self.buf, scanned) {
                break pos;
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > limits.max_header_bytes {
                return Err(HttpError::Malformed("header section too large"));
            }
            if deadline.expired() {
                return Err(HttpError::Timeout);
            }
            match read_event(&mut self.inner, &mut chunk)? {
                ReadEvent::Eof => return Err(HttpError::Disconnected),
                ReadEvent::TimedOut => continue,
                ReadEvent::Data(n) => self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            }
        };

        // Detach the head; everything after the terminator stays in
        // `self.buf` as (the start of) the body and beyond.
        let mut rest = self.buf.split_off((split + 4).min(self.buf.len()));
        std::mem::swap(&mut self.buf, &mut rest);
        let mut head = rest;
        head.truncate(split);

        let parsed = parse_head(&head)?;
        let content_length = parsed.content_length;
        if content_length > limits.max_body {
            return Err(HttpError::BodyTooLarge { declared: content_length, max: limits.max_body });
        }

        // Body: take exactly `content_length` bytes; anything beyond is
        // the next pipelined request and stays buffered.
        while self.buf.len() < content_length {
            if deadline.expired() {
                return Err(HttpError::Timeout);
            }
            match read_event(&mut self.inner, &mut chunk)? {
                ReadEvent::Eof => return Err(HttpError::Disconnected),
                ReadEvent::TimedOut => continue,
                ReadEvent::Data(n) => self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            }
        }
        let mut body = std::mem::take(&mut self.buf);
        self.buf = body.split_off(content_length.min(body.len()));

        Ok(Some(Request {
            method: parsed.method,
            path: parsed.path,
            headers: parsed.headers,
            body,
            keep_alive: parsed.keep_alive,
        }))
    }
}

/// The parsed request head, before the body is framed.
struct Head {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
}

/// Parse the head bytes (request line + headers, no terminator) and
/// resolve the framing headers strictly.
fn parse_head(head_bytes: &[u8]) -> Result<Head, HttpError> {
    let head_str = std::str::from_utf8(head_bytes)
        .map_err(|_| HttpError::Malformed("non-UTF-8 request head"))?;
    let mut lines = head_str.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_string();
    let path = parts.next().ok_or(HttpError::Malformed("request line has no path"))?.to_string();
    let version = parts.next().ok_or(HttpError::Malformed("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let http_11_or_later = version != "HTTP/1.0";

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        // A field name is a token: whitespace before the colon (or a
        // folded continuation line) must be a 400 (RFC 9112 §5.1), not
        // trimmed into a name another parser would not see.
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(HttpError::Malformed("whitespace in a header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Framing must be unambiguous on a reusable connection: a request
    // whose length two parsers could disagree on is the smuggling
    // primitive. Duplicate Content-Length (even with identical values)
    // and Transfer-Encoding (not implemented here) are both rejected
    // outright instead of resolved by first-match.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Malformed("Transfer-Encoding is not supported"));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match lengths.next() {
        None => 0,
        Some((_, v)) => {
            if lengths.next().is_some() {
                return Err(HttpError::Malformed("duplicate Content-Length"));
            }
            // Digits only: `usize::from_str` also accepts a leading `+`.
            v.parse::<usize>()
                .ok()
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or(HttpError::Malformed("unparseable Content-Length"))?
        }
    };

    // Connection is a comma-separated token list; only the two framing
    // tokens matter here.
    let conn = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    let has_token = |t: &str| conn.split(',').any(|tok| tok.trim() == t);
    let keep_alive = if http_11_or_later { !has_token("close") } else { has_token("keep-alive") };

    Ok(Head { method, path, headers, content_length, keep_alive })
}

/// Byte offset of the `\r\n\r\n` head terminator at or after
/// `from.saturating_sub(3)` — the caller passes how far previous scans
/// got so the search never re-reads old bytes.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf.get(start..)?.windows(4).position(|w| w == b"\r\n\r\n").map(|p| start + p)
}

/// Serialise `resp` as an HTTP/1.1 response. `keep_alive` picks the
/// `Connection` header: `keep-alive` promises the server will read
/// another request on this socket, `close` that it will not.
pub fn write_response<W: Write>(
    w: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(resp.body.len() + 256);
    out.extend_from_slice(
        format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status)).as_bytes(),
    );
    for (name, value) in &resp.headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n", resp.body.len()).as_bytes());
    if keep_alive {
        out.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
    } else {
        out.extend_from_slice(b"Connection: close\r\n\r\n");
    }
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn deadline() -> Deadline {
        Deadline::after(Duration::from_secs(5))
    }

    /// Read one request from a one-shot stream: a [`ConnectionReader`]
    /// that treats quiescence as a disconnect and discards any pipelined
    /// surplus.
    fn read_request<R: Read>(
        r: &mut R,
        limits: &HttpLimits,
        read_deadline: &Deadline,
    ) -> Result<Request, HttpError> {
        let mut reader = ConnectionReader::new(r);
        reader
            .next_request(limits, read_deadline, read_deadline.remaining(), &|| false)?
            .ok_or(HttpError::Disconnected)
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut std::io::Cursor::new(raw.to_vec()), &HttpLimits::default(), &deadline())
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /recognize HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/recognize");
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let raw = b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nX-Taor-Test-Delay-Ms: 9\r\n\r\nok";
        let req = parse(raw).unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(req.header("x-taor-test-delay-ms"), Some("9"));
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let close_11 = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close_11.keep_alive);
        let tokens = parse(b"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n").unwrap();
        assert!(!tokens.keep_alive, "close is recognised inside a token list");
        let plain_10 = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!plain_10.keep_alive, "HTTP/1.0 defaults to close");
        let ka_10 = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(ka_10.keep_alive);
    }

    #[test]
    fn typed_errors_for_malformed_heads() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(b"GET\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(b"GET / SPDY/9\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // A signed length, whitespace before the colon and a folded
        // header line (RFC 9112 §6.3, §5.1, §5.2).
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            b"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nHost: x\r\n Content-Length: 5\r\n\r\nhello",
        ] {
            assert!(matches!(parse(raw), Err(HttpError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected_not_first_matched() {
        // Differing values: the classic smuggling shape.
        let differing = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(differing), Err(HttpError::Malformed("duplicate Content-Length")));
        // Identical values: still ambiguous framing, still a 400.
        let identical = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(identical), Err(HttpError::Malformed("duplicate Content-Length")));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(raw), Err(HttpError::Malformed("Transfer-Encoding is not supported")));
    }

    #[test]
    fn zero_content_length_post_parses_with_an_empty_body() {
        let req = parse(b"POST /recognize HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_declaration_rejected_before_reading_the_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::BodyTooLarge { declared: 99999999, .. })));
    }

    #[test]
    fn truncated_body_is_a_disconnect() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert_eq!(parse(raw), Err(HttpError::Disconnected));
    }

    #[test]
    fn pipelined_requests_are_reframed_not_errors() {
        // Two complete requests delivered in one stream: the bytes past
        // the first body are the second request, not a protocol error.
        let raw = b"POST /recognize HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
                    GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let mut reader = ConnectionReader::new(&mut cursor);
        let limits = HttpLimits::default();
        let idle = deadline();
        let first = reader
            .next_request(&limits, &idle, Duration::from_secs(5), &|| false)
            .unwrap()
            .unwrap();
        assert_eq!(first.body, b"hello");
        assert!(!reader.buf.is_empty(), "the second request is carried over");
        let second = reader
            .next_request(&limits, &idle, Duration::from_secs(5), &|| false)
            .unwrap()
            .unwrap();
        assert_eq!((second.method.as_str(), second.path.as_str()), ("GET", "/healthz"));
        assert!(second.body.is_empty());
        // Stream exhausted: the connection is quiescent, not broken.
        let end = reader.next_request(&limits, &idle, Duration::from_secs(5), &|| false).unwrap();
        assert!(end.is_none());
    }

    #[test]
    fn cancel_idle_refuses_a_new_request() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let mut reader = ConnectionReader::new(&mut cursor);
        let got = reader
            .next_request(&HttpLimits::default(), &deadline(), Duration::from_secs(5), &|| true)
            .unwrap();
        assert!(got.is_none(), "a draining server reads no new request");
    }

    /// Slow-loris-sized head: a near-cap header section delivered one
    /// byte per read must still parse (and in O(total), not O(total²) —
    /// the terminator scan tracks an offset instead of rescanning).
    #[test]
    fn one_byte_reads_of_a_near_cap_head_still_parse() {
        struct OneByte(std::io::Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = buf.len().min(1);
                self.0.read(&mut buf[..take])
            }
        }
        let limits = HttpLimits::default();
        let mut raw = b"POST /recognize HTTP/1.1\r\nContent-Length: 2\r\n".to_vec();
        let mut pad = 0usize;
        while raw.len() + 64 < limits.max_header_bytes {
            raw.extend_from_slice(format!("X-Pad-{pad}: {}\r\n", "y".repeat(40)).as_bytes());
            pad += 1;
        }
        raw.extend_from_slice(b"\r\nok");
        let head_len = raw.len() - 2;
        assert!(head_len > limits.max_header_bytes / 2, "test must exercise a large head");
        let req = read_request(&mut OneByte(std::io::Cursor::new(raw)), &limits, &deadline())
            .expect("near-cap head parses");
        assert_eq!(req.body, b"ok");
        assert!(req.headers.len() > 100);
    }

    #[test]
    fn expired_deadline_times_out_an_incomplete_request() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\n".to_vec();
        struct Stall(std::io::Cursor<Vec<u8>>);
        impl Read for Stall {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.read(buf)?;
                if n == 0 {
                    // A live-but-silent client: each read "times out".
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                Ok(n)
            }
        }
        let mut stall = Stall(std::io::Cursor::new(raw));
        let mut reader = ConnectionReader::new(&mut stall);
        // Request bytes arrive instantly; the zero budget then expires
        // with the body incomplete.
        let res =
            reader.next_request(&HttpLimits::default(), &deadline(), Duration::ZERO, &|| false);
        assert_eq!(res, Err(HttpError::Timeout));
    }

    #[test]
    fn response_roundtrips_with_length_and_connection() {
        let resp = Response::json(200, "{\"ok\":true}");
        let mut out = Vec::new();
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close\r\n"));
    }

    #[test]
    fn error_body_is_json() {
        let resp = Response::error(429, "queue full");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, b"{\"error\":\"queue full\"}");
    }
}
