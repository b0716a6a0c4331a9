//! Client-side fault injectors: every way a robot's flaky uplink can
//! mistreat the server, packaged for the server's integration tests
//! (`tests/{chaos,determinism,service}.rs` include this file as their
//! `chaos` module).
//!
//! Each injector opens a raw TCP connection and misbehaves in one
//! specific way — truncated bodies, oversized declarations, slow-loris
//! dribbles, mid-request disconnects — then reports what the server
//! did. The contract under chaos is always the same: the server
//! answers *something typed* (or observes the disconnect), never
//! panics, and keeps answering well-formed requests afterwards.
//! Well-formed traffic goes through the one test client,
//! [`PersistentClient`], which frames every response by its
//! `Content-Length`.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a chaos client observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The server answered with this status code.
    Responded(u16),
    /// The connection closed without a parseable response (fine for
    /// clients that hung up first).
    ConnectionClosed,
    /// A socket error on the client side.
    IoError(String),
}

/// Parse `HTTP/1.1 <code> ...` out of a raw response.
pub fn parse_status(raw: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(raw).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if !parts.next()?.starts_with("HTTP/1.") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// Body bytes after the blank line, if any.
pub fn parse_body(raw: &[u8]) -> Vec<u8> {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| raw.get(i + 4..).unwrap_or(&[]).to_vec())
        .unwrap_or_default()
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

fn read_to_end(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// A client that keeps one connection open across requests — the
/// counterpart of the server's keep-alive path, used by the reuse and
/// pipelining tests and, one request per connection, by [`post`] and
/// [`get`].
///
/// Responses are framed by their `Content-Length` (never by EOF), so
/// several can be read back-to-back off one socket in order.
pub struct PersistentClient {
    stream: TcpStream,
    /// Response bytes read past the last parsed response.
    buf: Vec<u8>,
}

impl PersistentClient {
    /// Open a connection to reuse.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(PersistentClient { stream: connect(addr)?, buf: Vec::new() })
    }

    /// Write raw request bytes without reading anything — the
    /// pipelining primitive.
    pub fn send_raw(&mut self, raw: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(raw)?;
        self.stream.flush()
    }

    /// Serialise a request for this connection; `close` asks the server
    /// to end the connection after answering.
    pub fn request_bytes(
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
        close: bool,
    ) -> Vec<u8> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: taor\r\n");
        if !body.is_empty() || method == "POST" {
            raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        for (name, value) in extra_headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        if close {
            raw.push_str("Connection: close\r\n");
        }
        raw.push_str("\r\n");
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    /// One request-response exchange on the reused connection.
    pub fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.send_raw(&Self::request_bytes(method, path, body, &[], close))?;
        self.read_response()
    }

    /// POST a wire crop to `/recognize` on the reused connection.
    pub fn post_crop(&mut self, crop: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.roundtrip("POST", "/recognize", crop, false)
    }

    /// Read exactly one `Content-Length`-framed response; surplus bytes
    /// (the next pipelined response) stay buffered.
    pub fn read_response(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let (status, _, body) = self.read_response_head()?;
        Ok((status, body))
    }

    /// [`Self::read_response`] that also returns the response head: the
    /// status line and header lines, without the blank line.
    pub fn read_response_head(&mut self) -> std::io::Result<(u16, String, Vec<u8>)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        // Head: accumulate until the blank line.
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
        };
        let rest = self.buf.split_off(head_end + 4);
        let mut head = std::mem::replace(&mut self.buf, rest);
        head.truncate(head_end);
        let head_text = String::from_utf8(head).map_err(|_| bad("non-UTF-8 head"))?;
        let status = parse_status(head_text.as_bytes()).ok_or_else(|| bad("no status line"))?;
        let content_length: usize = head_text
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim())
            })
            .ok_or_else(|| bad("response without Content-Length"))?
            .parse()
            .map_err(|_| bad("unparseable Content-Length"))?;
        // Body: exact bytes; surplus stays for the next response.
        while self.buf.len() < content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
        }
        let mut body = std::mem::take(&mut self.buf);
        self.buf = body.split_off(content_length.min(body.len()));
        Ok((status, head_text, body))
    }

    /// Has the server closed the connection? Waits up to two seconds
    /// for the close to land. Call it at quiescence (no response
    /// outstanding): a `false` may also mean unread bytes arrived.
    pub fn server_closed(&mut self) -> bool {
        // taor-lint: allow(err::swallowed-result) — probing a socket
        // that may already be closed; a failed timeout tweak just makes
        // the probe block longer.
        let _ = self.stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut probe = [0u8; 1];
        let closed = matches!(self.stream.read(&mut probe), Ok(0));
        // taor-lint: allow(err::swallowed-result) — restoring the long
        // timeout, same best-effort basis as above.
        let _ = self.stream.set_read_timeout(Some(Duration::from_secs(30)));
        closed
    }
}

/// Pipelined burst: `n` requests written in one `write`, answered in
/// order off the same socket. Returns each response's status, or the
/// error that cut the burst short.
pub fn pipelined_burst(addr: SocketAddr, n: usize) -> std::io::Result<Vec<u16>> {
    let mut client = PersistentClient::connect(addr)?;
    let mut burst = Vec::new();
    for i in 0..n {
        let close = i + 1 == n;
        burst.extend_from_slice(&PersistentClient::request_bytes(
            "GET",
            "/healthz",
            &[],
            &[],
            close,
        ));
    }
    client.send_raw(&burst)?;
    (0..n).map(|_| client.read_response().map(|(status, _)| status)).collect()
}

/// Half a request head, then silence with the socket held open — the
/// patient cousin of the slow-loris. The server's read budget must
/// answer 408 (or close), never leave the connection thread parked.
pub fn half_request_then_idle(addr: SocketAddr, idle: Duration) -> ChaosOutcome {
    let run = || -> std::io::Result<Vec<u8>> {
        let mut stream = connect(addr)?;
        stream.write_all(b"POST /recognize HTTP/1.1\r\nHost: taor\r\nContent-Le")?;
        stream.flush()?;
        std::thread::sleep(idle);
        read_to_end(&mut stream)
    };
    outcome_of(run())
}

/// Smuggling-shaped framing: two conflicting `Content-Length` headers,
/// with a second request hidden where the larger length would put it.
/// A safe server answers 400 and closes — the hidden request must never
/// be parsed, let alone answered.
pub fn smuggled_framing(addr: SocketAddr) -> (ChaosOutcome, bool) {
    let run = || -> std::io::Result<(ChaosOutcome, bool)> {
        let mut client = PersistentClient::connect(addr)?;
        client.send_raw(
            b"POST /recognize HTTP/1.1\r\nHost: taor\r\n\
              Content-Length: 4\r\nContent-Length: 52\r\n\r\n\
              AAAAGET /healthz HTTP/1.1\r\nHost: smuggled\r\n\r\n",
        )?;
        let outcome = match client.read_response() {
            Ok((status, _)) => ChaosOutcome::Responded(status),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => ChaosOutcome::ConnectionClosed,
            Err(e) => return Ok((ChaosOutcome::IoError(e.to_string()), false)),
        };
        // If a second response ever arrives, the hidden request was
        // served: the smuggle landed.
        let smuggle_answered = client.read_response().is_ok();
        Ok((outcome, smuggle_answered))
    };
    match run() {
        Ok(pair) => pair,
        Err(e) => (ChaosOutcome::IoError(e.to_string()), false),
    }
}

/// POST `body` to `path` with optional extra headers, on a fresh
/// connection that asks the server to close after answering.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut client = PersistentClient::connect(addr)?;
    client.send_raw(&PersistentClient::request_bytes("POST", path, body, extra_headers, true))?;
    client.read_response()
}

/// POST a wire crop to `/recognize`.
pub fn post_crop(addr: SocketAddr, crop: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    post(addr, "/recognize", crop, &[])
}

/// GET a path (for `/healthz`) on a fresh connection, as [`post`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    PersistentClient::connect(addr)?.roundtrip("GET", path, &[], true)
}

/// What a raw response (or the socket error in its place) amounts to:
/// no status line means the server closed without answering.
fn outcome_of(res: std::io::Result<Vec<u8>>) -> ChaosOutcome {
    match res {
        Ok(raw) => {
            parse_status(&raw).map_or(ChaosOutcome::ConnectionClosed, ChaosOutcome::Responded)
        }
        Err(e) => ChaosOutcome::IoError(e.to_string()),
    }
}

/// Declare a large body, deliver a fraction, then half-close. The
/// server must answer 400 (truncated) rather than hang or panic.
pub fn truncated_body(addr: SocketAddr) -> ChaosOutcome {
    let run = || -> std::io::Result<Vec<u8>> {
        let mut stream = connect(addr)?;
        stream
            .write_all(b"POST /recognize HTTP/1.1\r\nHost: taor\r\nContent-Length: 1000\r\n\r\n")?;
        stream.write_all(&[0u8; 10])?;
        stream.flush()?;
        // Half-close: the server sees EOF mid-body.
        stream.shutdown(std::net::Shutdown::Write)?;
        read_to_end(&mut stream)
    };
    outcome_of(run())
}

/// Declare a body over the server's cap. Must be 413 before any body
/// byte is transferred.
pub fn oversized_declaration(addr: SocketAddr, over: usize) -> ChaosOutcome {
    let run = || -> std::io::Result<Vec<u8>> {
        let mut stream = connect(addr)?;
        stream.write_all(
            format!("POST /recognize HTTP/1.1\r\nHost: taor\r\nContent-Length: {over}\r\n\r\n")
                .as_bytes(),
        )?;
        stream.flush()?;
        read_to_end(&mut stream)
    };
    outcome_of(run())
}

/// Dribble the request one small chunk at a time with `gap` pauses —
/// the classic slow-loris. The server's read budget must cut it off
/// with 408 (or a close), never an unbounded stall.
pub fn slow_loris(addr: SocketAddr, chunks: usize, gap: Duration) -> ChaosOutcome {
    let run = || -> std::io::Result<Vec<u8>> {
        let mut stream = connect(addr)?;
        for _ in 0..chunks {
            stream.write_all(b"X-Pad: y\r\n")?;
            stream.flush()?;
            std::thread::sleep(gap);
        }
        // Never sends the request line or the blank line.
        read_to_end(&mut stream)
    };
    outcome_of(run())
}

/// Write half a request head and hang up. The server must treat the
/// disconnect as that client's problem and move on.
pub fn disconnect_mid_request(addr: SocketAddr) -> ChaosOutcome {
    let run = || -> std::io::Result<()> {
        let mut stream = connect(addr)?;
        stream.write_all(b"POST /recogni")?;
        stream.flush()?;
        drop(stream);
        Ok(())
    };
    match run() {
        Ok(()) => ChaosOutcome::ConnectionClosed,
        Err(e) => ChaosOutcome::IoError(e.to_string()),
    }
}
