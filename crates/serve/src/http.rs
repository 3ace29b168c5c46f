//! HTTP/1.1 plumbing for the evaluation service: persistent
//! connections, pipelining, and exact-length responses.
//!
//! The server side is built around [`ConnBuffer`], a per-connection
//! read buffer that parses any number of request heads out of whatever
//! the socket delivers — several requests pipelined into one TCP
//! segment, or one request head split across many reads. Responses
//! carry an exact `Content-Length` and an explicit `Connection:
//! keep-alive`/`close`, so a client can read back-to-back responses off
//! one connection without sniffing for EOF.
//!
//! The client side mirrors it: [`ClientConn`] holds one keep-alive
//! connection, supports pipelined sends, and parses `Content-Length`
//! framed responses. [`get`] remains the one-shot `Connection: close`
//! convenience used by tests and cold paths.
//!
//! Query strings decode `%XX` escapes and `+` as space. A malformed
//! request head parses to [`ParseError::Malformed`] — the server
//! answers `400` and, because the bad head was still fully consumed,
//! keeps the connection and parses the next pipelined request. Only a
//! head that never terminates within [`MAX_HEAD_BYTES`] is fatal
//! ([`ParseError::TooLarge`], answered `431`, connection closed — with
//! no head boundary there is nothing to resynchronize on).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum accepted header section, bytes. A head that has not
/// terminated within this bound is rejected with `431` — the service's
/// real requests are tiny.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request: method, decoded path, decoded query parameters
/// in arrival order, and the headers that matter for connection
/// management and proxying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`).
    pub method: String,
    /// Path without the query string (`/eval`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string.
    pub query: Vec<(String, String)>,
    /// The request target exactly as received (path + raw query) — what
    /// a proxy forwards upstream verbatim.
    pub raw_target: String,
    /// Header names (lowercased) and trimmed values, arrival order.
    pub headers: Vec<(String, String)>,
    /// Whether the peer asked this connection to close after the
    /// response (`Connection: close`, or HTTP/1.0 without
    /// `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a buffered head failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The head was complete but malformed; it has been consumed from
    /// the buffer, so the connection can answer `400` and carry on.
    Malformed(String),
    /// The head grew past [`MAX_HEAD_BYTES`] without terminating;
    /// answer `431` and close — there is no boundary to recover at.
    TooLarge,
}

/// Decodes `%XX` escapes and `+` (space). Invalid escapes pass through
/// literally — the service's identifiers never contain `%` anyway.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                match std::str::from_utf8(&bytes[i + 1..i + 3])
                    .ok()
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                {
                    Some(v) => {
                        out.push(v);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Index one past the blank line ending the head starting at `from`,
/// accepting both `\r\n\r\n` and bare `\n\n` line endings.
fn head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        // A newline followed by an (optionally `\r`-prefixed) newline
        // terminates the head.
        if buf.get(i + 1) == Some(&b'\n') {
            return Some(i + 2);
        }
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some(i + 3);
        }
        i += 1;
    }
    None
}

/// Parses one complete head (request line + headers, no body).
fn parse_head(head: &str) -> Result<Request, ParseError> {
    let malformed = |what: &str| ParseError::Malformed(what.to_owned());
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(|| malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| malformed("empty request line"))?;
    let target = parts.next().ok_or_else(|| malformed("missing target"))?;
    let version = parts.next().ok_or_else(|| malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed("not HTTP/1.x"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let close = match connection.as_deref() {
        Some("close") => true,
        Some(v) if v.contains("keep-alive") => false,
        _ => version != "HTTP/1.1",
    };
    // The service's endpoints carry no bodies; a request that announces
    // one would desynchronize the head parser, so reject it outright.
    if let Some((_, v)) = headers.iter().find(|(k, _)| k == "content-length") {
        if v.parse::<u64>().map_or(true, |n| n > 0) {
            return Err(malformed("request bodies are not accepted"));
        }
    }
    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_raw
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_uppercase(),
        path: percent_decode(path),
        query,
        raw_target: target.to_owned(),
        headers,
        close,
    })
}

/// A per-connection read buffer: bytes arrive in whatever chunks the
/// socket delivers, complete request heads parse out one at a time.
#[derive(Debug, Default)]
pub struct ConnBuffer {
    buf: Vec<u8>,
    /// Start of the first unparsed byte in `buf`.
    start: usize,
}

impl ConnBuffer {
    /// An empty buffer for a fresh connection.
    pub fn new() -> ConnBuffer {
        ConnBuffer::default()
    }

    /// Reads more bytes from `stream` into the buffer. `Ok(0)` is EOF.
    pub fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        // Reclaim fully parsed bytes before growing.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Unparsed bytes currently buffered — nonzero after a parse means
    /// more pipelined requests may already be waiting.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Attempts to parse the next request head out of the buffer.
    /// `Ok(None)` means incomplete: call [`ConnBuffer::fill`] and retry.
    /// A [`ParseError::Malformed`] head has still been consumed, so the
    /// caller can answer `400` and keep parsing.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let pending = &self.buf[self.start..];
        // Tolerate stray blank lines between pipelined requests.
        let skip = pending
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        self.start += skip;
        let pending = &self.buf[self.start..];
        if pending.is_empty() {
            return Ok(None);
        }
        let Some(end) = head_end(pending, 0) else {
            if pending.len() >= MAX_HEAD_BYTES {
                return Err(ParseError::TooLarge);
            }
            return Ok(None);
        };
        let head = String::from_utf8_lossy(&pending[..end]).into_owned();
        self.start += end;
        parse_head(&head).map(Some)
    }
}

/// Parses exactly one request from `stream` (blocking until the head
/// completes). The convenience form for single-shot paths: the accept
/// thread's shed-with-503 answer, and unit tests.
pub fn read_request(stream: &mut impl Read) -> std::io::Result<Request> {
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut buf = ConnBuffer::new();
    loop {
        match buf.next_request() {
            Ok(Some(request)) => return Ok(request),
            Ok(None) => {
                if buf.fill(stream)? == 0 {
                    return Err(invalid("truncated request head".into()));
                }
            }
            Err(ParseError::Malformed(what)) => {
                return Err(invalid(format!("malformed request: {what}")))
            }
            Err(ParseError::TooLarge) => return Err(invalid("request head too large".into())),
        }
    }
}

/// Reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete response with an exact `Content-Length` and an
/// explicit connection disposition. Pipelined responses are written
/// back-to-back into one buffer and flushed together.
pub fn respond_conn(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    respond_conn_ext(stream, status, content_type, body, keep_alive, &[])
}

/// [`respond_conn`] with extra response headers (the tracing layer's
/// span-export header). With an empty `extra` the wire bytes are
/// identical to [`respond_conn`]'s, by construction — the extra lines
/// are spliced in before the blank line and nothing else changes.
pub fn respond_conn_ext(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra: &[(String, String)],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "\r\n{body}")?;
    stream.flush()
}

/// Writes one complete `Connection: close` response.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_conn(stream, status, content_type, body, false)
}

/// Writes one `GET` request; `keep_alive` selects the connection
/// disposition, `headers` adds extra `Name: value` lines (the cluster's
/// hop marker). Does not flush — callers pipeline several requests and
/// flush once.
pub fn write_get_conn(
    stream: &mut impl Write,
    target: &str,
    keep_alive: bool,
    headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n")?;
    for (name, value) in headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "Connection: {connection}\r\n\r\n")
}

/// Writes and flushes one minimal `Connection: close` `GET`.
pub fn write_get(stream: &mut impl Write, target: &str) -> std::io::Result<()> {
    write_get_conn(stream, target, false, &[])?;
    stream.flush()
}

/// One parsed response off a keep-alive connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
    /// Header names (lowercased) and trimmed values, arrival order.
    pub headers: Vec<(String, String)>,
    /// The exact `Content-Length` body.
    pub body: String,
}

impl Response {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A client-side keep-alive connection: send one or many pipelined
/// `GET`s, then read the same number of `Content-Length`-framed
/// responses back in order. Generic over the byte stream so the
/// response decoder can be driven from memory.
#[derive(Debug)]
pub struct ClientConn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
    start: usize,
}

impl ClientConn {
    /// Connects with sane loopback timeouts and `TCP_NODELAY`, so a
    /// small request is not held back waiting for the previous
    /// response's delayed ACK.
    pub fn connect(addr: SocketAddr) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(ClientConn {
            stream,
            buf: Vec::new(),
            start: 0,
        })
    }
}

impl<S: Read + Write> ClientConn<S> {
    /// Wraps an already-connected stream (a pooled upstream).
    pub fn from_stream(stream: S) -> ClientConn<S> {
        ClientConn {
            stream,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Queues one keep-alive `GET` without flushing; follow with more
    /// sends to pipeline, then [`ClientConn::flush`].
    pub fn send(&mut self, target: &str, headers: &[(&str, &str)]) -> std::io::Result<()> {
        write_get_conn(&mut self.stream, target, true, headers)
    }

    /// Flushes queued requests to the wire.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }

    /// Reads one complete response (head + exact-length body). A head
    /// that has not terminated within [`MAX_HEAD_BYTES`] is an
    /// `InvalidData` error, like a truncated response.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let malformed =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        // Buffer until the head terminates.
        let end = loop {
            let pending = &self.buf[self.start..];
            match head_end(pending, 0) {
                Some(end) if end <= MAX_HEAD_BYTES => break end,
                None if pending.len() < MAX_HEAD_BYTES => {}
                _ => return Err(malformed("response head too large")),
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(malformed("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[self.start..self.start + end]).into_owned();
        self.start += end;
        let mut lines = head.lines();
        let status_line = lines.next().ok_or_else(|| malformed("empty response"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut content_length: Option<usize> = None;
        let mut close = false;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "connection" {
                close = value.eq_ignore_ascii_case("close");
            }
            headers.push((name, value.to_owned()));
        }
        let len = content_length.ok_or_else(|| malformed("response without Content-Length"))?;
        // Buffer until the whole body is in.
        while self.buf.len() - self.start < len {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(malformed("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[self.start..self.start + len]).into_owned();
        self.start += len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Response {
            status,
            close,
            headers,
            body,
        })
    }

    /// One request-response round trip on the persistent connection.
    pub fn get(&mut self, target: &str) -> std::io::Result<(u16, String)> {
        self.send(target, &[])?;
        self.flush()?;
        let response = self.recv()?;
        Ok((response.status, response.body))
    }
}

/// One blocking loopback GET: connect, request, read to EOF. Returns
/// `(status, body)`. The close-per-request client half used by tests
/// and the serve benchmark's baseline load generator.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    write_get(&mut stream, target)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let body = raw
        .split("\r\n\r\n")
        .nth(1)
        .ok_or_else(malformed)?
        .to_owned();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> std::io::Result<Request> {
        read_request(&mut raw.as_bytes())
    }

    #[test]
    fn parses_path_query_and_method() {
        let r = parse("GET /eval?workload=tonto&tech=Jan_S HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/eval");
        assert_eq!(r.raw_target, "/eval?workload=tonto&tech=Jan_S");
        assert_eq!(r.param("workload"), Some("tonto"));
        assert_eq!(r.param("tech"), Some("Jan_S"));
        assert_eq!(r.param("absent"), None);
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn decodes_percent_escapes_and_plus() {
        let r = parse("GET /x?a=b%20c&d=e+f&bad=%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.param("a"), Some("b c"));
        assert_eq!(r.param("d"), Some("e f"));
        assert_eq!(r.param("bad"), Some("%zz"), "invalid escape passes through");
    }

    #[test]
    fn connection_disposition_follows_version_and_header() {
        assert!(!parse("GET / HTTP/1.1\r\n\r\n").unwrap().close);
        assert!(
            parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        assert!(parse("\r\n\r\n").is_err());
        assert!(parse("GET /x\r\n\r\n").is_err(), "missing version");
        assert!(parse("GET /x SMTP/1.0\r\n\r\n").is_err(), "wrong protocol");
        assert!(
            parse("GET /x HTTP/1.1\r\nHost: y\r\n").is_err(),
            "no blank line"
        );
        assert!(
            parse("GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").is_err(),
            "bodies are rejected"
        );
    }

    #[test]
    fn conn_buffer_parses_pipelined_requests_from_one_segment() {
        let mut buf = ConnBuffer::new();
        let raw =
            "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\nGET /c HTTP/1.1\r\n\r\n";
        assert_eq!(buf.fill(&mut raw.as_bytes()).unwrap(), raw.len());
        let paths: Vec<String> =
            std::iter::from_fn(|| buf.next_request().unwrap().map(|r| r.path)).collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert_eq!(buf.buffered(), 0);
    }

    #[test]
    fn conn_buffer_handles_heads_split_across_reads() {
        let mut buf = ConnBuffer::new();
        let part1 = "GET /eval?work";
        let part2 = "load=tonto HTTP/1.1\r\nHo";
        let part3 = "st: x\r\n\r\n";
        buf.fill(&mut part1.as_bytes()).unwrap();
        assert!(buf.next_request().unwrap().is_none(), "head incomplete");
        buf.fill(&mut part2.as_bytes()).unwrap();
        assert!(buf.next_request().unwrap().is_none(), "still incomplete");
        buf.fill(&mut part3.as_bytes()).unwrap();
        let r = buf.next_request().unwrap().expect("complete now");
        assert_eq!(r.path, "/eval");
        assert_eq!(r.param("workload"), Some("tonto"));
    }

    #[test]
    fn conn_buffer_consumes_malformed_heads_and_recovers() {
        let mut buf = ConnBuffer::new();
        let raw = "BOGUS\r\n\r\nGET /ok HTTP/1.1\r\n\r\n";
        buf.fill(&mut raw.as_bytes()).unwrap();
        assert!(matches!(buf.next_request(), Err(ParseError::Malformed(_))));
        // The bad head was consumed; the next pipelined request parses.
        let r = buf
            .next_request()
            .unwrap()
            .expect("request after the bad one");
        assert_eq!(r.path, "/ok");
    }

    #[test]
    fn conn_buffer_rejects_unterminated_oversized_heads() {
        let mut buf = ConnBuffer::new();
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        buf.fill(&mut huge.as_bytes()).unwrap();
        while buf.buffered() < MAX_HEAD_BYTES {
            if buf.fill(&mut huge.as_bytes()).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(buf.next_request(), Err(ParseError::TooLarge));
    }

    #[test]
    fn response_carries_exact_content_length() {
        let mut out = Vec::new();
        respond(&mut out, 200, "application/json", "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        respond(&mut out, 429, "text/plain", "busy").unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("429 Too Many Requests"));
        let mut out = Vec::new();
        respond_conn(&mut out, 200, "text/plain", "ok", true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }

    /// Seeded nonzero bytes to XOR in (splitmix64), so a failure
    /// reproduces.
    fn flips() -> impl FnMut() -> u8 {
        let mut state = 0x5EED_u64;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % 255 + 1) as u8
        }
    }

    /// Every prefix of `valid`, then `valid` with each byte flipped once.
    fn damaged(valid: &[u8]) -> impl Iterator<Item = (bool, Vec<u8>)> + '_ {
        let mut flip = flips();
        let cuts = (0..=valid.len()).map(|cut| (true, valid[..cut].to_vec()));
        cuts.chain((0..valid.len()).map(move |i| {
            let mut bytes = valid.to_vec();
            bytes[i] ^= flip();
            (false, bytes)
        }))
    }

    /// Every request a server connection would parse out of `input`.
    fn requests_in(input: &[u8]) -> Vec<Request> {
        let mut buf = ConnBuffer::new();
        let mut reader = input;
        while buf.fill(&mut reader).unwrap() > 0 {}
        let mut out = Vec::new();
        loop {
            match buf.next_request() {
                Ok(Some(request)) => out.push(request),
                Err(ParseError::Malformed(_)) => {}
                Ok(None) | Err(ParseError::TooLarge) => return out,
            }
        }
    }

    fn pair_bytes(pairs: &[(String, String)]) -> usize {
        pairs.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Decoded bytes a request holds. Each field is a lossily decoded
    /// slice of the head (at most 3 bytes out per byte in), and the
    /// target shows up twice: raw, and as path plus query.
    fn request_bytes(r: &Request) -> usize {
        r.method.len()
            + r.path.len()
            + r.raw_target.len()
            + pair_bytes(&r.query)
            + pair_bytes(&r.headers)
    }

    #[test]
    fn conn_buffer_is_total_on_truncated_and_mutated_streams() {
        let mut valid = Vec::new();
        write_get_conn(&mut valid, "/row?workload=tonto&accesses=6000", true, &[]).unwrap();
        write_get_conn(
            &mut valid,
            "/eval?tech=Jan%5FS&x=a+b",
            true,
            &[("x-nvmllc-hop", "1")],
        )
        .unwrap();
        valid.extend_from_slice(b"\r\nGET /healthz HTTP/1.0\nConnection: keep-alive\n\n");
        write_get_conn(&mut valid, "/statsz", false, &[]).unwrap();
        let full = requests_in(&valid);
        let targets: Vec<&str> = full.iter().map(|r| r.raw_target.as_str()).collect();
        assert_eq!(
            targets,
            [
                "/row?workload=tonto&accesses=6000",
                "/eval?tech=Jan%5FS&x=a+b",
                "/healthz",
                "/statsz"
            ]
        );
        assert_eq!(full[1].param("tech"), Some("Jan_S"));
        assert_eq!(full[1].header("x-nvmllc-hop"), Some("1"));
        assert_eq!(
            full.iter().map(|r| r.close).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        for (truncated, input) in damaged(&valid) {
            let parsed = requests_in(&input);
            let bytes: usize = parsed.iter().map(request_bytes).sum();
            assert!(bytes <= 6 * input.len(), "{bytes} bytes from {input:?}");
            assert!(
                parsed.len() <= input.len(),
                "{} requests from {input:?}",
                parsed.len()
            );
            if truncated {
                assert_eq!(parsed, full[..parsed.len()], "a prefix parses to a prefix");
            }
        }
    }

    /// Every response a client connection reads out of `input`, up to the
    /// first error.
    fn responses_in(input: &[u8]) -> Vec<Response> {
        let mut conn = ClientConn::from_stream(std::io::Cursor::new(input.to_vec()));
        std::iter::from_fn(|| conn.recv().ok()).collect()
    }

    #[test]
    fn client_recv_is_total_on_truncated_and_mutated_streams() {
        let spans = vec![(
            "x-nvmllc-trace-spans".to_owned(),
            "node=shard-1;a,1,0,0,5".to_owned(),
        )];
        let mut valid = Vec::new();
        respond_conn_ext(
            &mut valid,
            200,
            "application/json",
            "{\"ipc\":1.5}",
            true,
            &spans,
        )
        .unwrap();
        respond_conn(&mut valid, 404, "text/plain", "", true).unwrap();
        respond_conn(&mut valid, 200, "text/plain", "a\r\n\r\nb \u{e9}", true).unwrap();
        respond_conn(&mut valid, 503, "application/json", "{}", false).unwrap();
        let full = responses_in(&valid);
        let shape: Vec<(u16, bool, &str)> = full
            .iter()
            .map(|r| (r.status, r.close, r.body.as_str()))
            .collect();
        assert_eq!(
            shape,
            [
                (200, false, "{\"ipc\":1.5}"),
                (404, false, ""),
                (200, false, "a\r\n\r\nb \u{e9}"),
                (503, true, "{}"),
            ]
        );
        assert_eq!(
            full[0].header("x-nvmllc-trace-spans"),
            Some(spans[0].1.as_str())
        );
        for (truncated, input) in damaged(&valid) {
            let read = responses_in(&input);
            let bytes: usize = read
                .iter()
                .map(|r| r.body.len() + pair_bytes(&r.headers))
                .sum();
            assert!(bytes <= 3 * input.len(), "{bytes} bytes from {input:?}");
            assert!(
                read.len() <= input.len(),
                "{} responses from {input:?}",
                read.len()
            );
            if truncated {
                assert_eq!(read, full[..read.len()], "a prefix reads as a prefix");
            }
        }
    }

    #[test]
    fn client_recv_rejects_an_oversized_head_without_buffering_it() {
        for terminated in [false, true] {
            let mut input = format!(
                "HTTP/1.1 200 OK\r\nX-Pad: {}\r\n",
                "y".repeat(4 * MAX_HEAD_BYTES)
            );
            if terminated {
                input.push_str("Content-Length: 0\r\n\r\n");
            }
            let mut conn = ClientConn::from_stream(std::io::Cursor::new(input.into_bytes()));
            let err = conn.recv().expect_err("oversized head");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("too large"), "{err}");
            assert!(
                conn.buf.len() < MAX_HEAD_BYTES + 4096,
                "buffered {}",
                conn.buf.len()
            );
        }
    }

    #[test]
    fn status_431_has_its_reason_phrase() {
        let mut out = Vec::new();
        respond(&mut out, 431, "text/plain", "too big").unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"));
    }
}
