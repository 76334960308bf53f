//! A hand-rolled minimal HTTP/1.1 subset: enough to parse the request
//! line, headers, and query string of the endpoints the server exposes,
//! and to write well-formed responses. Consistent with the workspace's
//! vendored-shim policy, it takes no dependencies and implements only
//! what the serving layer needs:
//!
//! * `GET`/`POST` request lines, `\r\n` line endings, header block
//!   terminated by an empty line, and a `Content-Length`-delimited body
//!   (capped at [`MAX_BODY_BYTES`] -- `/v1/query` posts DSL text;
//!   chunked transfer encoding is rejected, not silently misread);
//! * percent-decoding of path and query components (decoded *before*
//!   any path-safety check, so `%2e%2e%2f` cannot smuggle a `..`);
//! * `Connection: close` responses with `Content-Length`, so clients
//!   never have to guess where a body ends.
//!
//! Every parse failure is a typed [`HttpError`]; the connection worker
//! maps it to a `400` and keeps serving -- a malformed request must
//! never take a worker down.

use std::io::{self, BufRead, Write};

/// Longest request head (request line + headers) accepted, in bytes,
/// line terminators included. Anything longer is a `400`: the endpoints
/// take short query strings, so an oversized head is garbage or abuse.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Longest request body accepted, in bytes. Query texts are a few
/// hundred bytes; anything bigger is garbage or abuse.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// The request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only queries.
    Get,
    /// Admin actions (`/admin/drain`).
    Post,
}

/// A parsed request: method, decoded path, decoded query parameters,
/// and headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The percent-decoded path (no query string).
    pub path: String,
    /// Query parameters in arrival order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers in arrival order, names lowercased, values trimmed.
    /// Only consulted for content negotiation (`Accept` on
    /// `/v1/metrics`); routing never depends on them.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length`-delimited, UTF-8). Empty for
    /// bodyless requests; only `POST /v1/query` consumes one.
    pub body: String,
}

impl Request {
    /// The first value of query parameter `name`, if present.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request was syntactically invalid; the detail is safe to echo.
    BadRequest(String),
    /// The peer closed before a full head arrived.
    Disconnected,
    /// The socket's read timeout fired before a full head arrived: a
    /// slow-loris client (or a stalled network) held the connection
    /// open without sending a request. Distinguished from
    /// [`HttpError::Disconnected`] so the server can count it
    /// (`serve.timeout`) -- a fleet of these is an attack signature,
    /// while disconnects are everyday noise.
    TimedOut,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            HttpError::Disconnected => f.write_str("peer disconnected"),
            HttpError::TimedOut => f.write_str("idle read timed out"),
        }
    }
}

/// Reads and parses one request head from `stream`.
///
/// # Errors
///
/// [`HttpError::BadRequest`] for malformed or oversized heads,
/// [`HttpError::Disconnected`] when the peer goes away first,
/// [`HttpError::TimedOut`] when the socket's read timeout expires on an
/// idle connection (the slow-loris guard).
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    // Head bytes still allowed, line terminators included.
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(stream, &mut budget)?;
    // Drain headers up to the blank line so the parse position is
    // deterministic whatever the client sent; keep them for content
    // negotiation.
    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header line".into()));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut req = parse_request_line(&request_line)?;
    req.headers = headers;
    req.body = read_body(stream, &req)?;
    Ok(req)
}

/// Reads the `Content-Length`-delimited body, if the head announced
/// one. Chunked transfer encoding is refused outright -- pretending to
/// understand it would desynchronize the connection.
fn read_body(stream: &mut impl BufRead, req: &Request) -> Result<String, HttpError> {
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }
    let Some(raw_len) = req.header("content-length") else {
        return Ok(String::new());
    };
    let len: usize = raw_len
        .parse()
        .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {raw_len:?}")))?;
    if len > MAX_BODY_BYTES {
        return Err(HttpError::BadRequest(format!(
            "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let available = match stream.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HttpError::TimedOut);
            }
            Err(_) => return Err(HttpError::Disconnected),
        };
        if available.is_empty() {
            return Err(HttpError::Disconnected);
        }
        let take = available.len().min(len - filled);
        body[filled..filled + take].copy_from_slice(&available[..take]);
        stream.consume(take);
        filled += take;
    }
    String::from_utf8(body).map_err(|_| HttpError::BadRequest("body is not UTF-8".into()))
}

/// Reads one `\r\n`-terminated line (tolerating bare `\n`), without the
/// terminator, taking each byte it consumes from the head's `budget`.
fn read_line(stream: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        let available = match stream.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Both kinds mean "read timeout fired", depending on
                // platform; either way the peer sat idle too long.
                return Err(HttpError::TimedOut);
            }
            Err(_) => return Err(HttpError::Disconnected),
        };
        if available.is_empty() {
            return Err(HttpError::Disconnected);
        }
        if *budget == 0 {
            return Err(HttpError::BadRequest("request head too large".into()));
        }
        *budget -= 1;
        byte[0] = available[0];
        stream.consume(1);
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return String::from_utf8(buf)
                .map_err(|_| HttpError::BadRequest("head is not UTF-8".into()));
        }
        buf.push(byte[0]);
    }
}

fn parse_request_line(line: &str) -> Result<Request, HttpError> {
    let mut parts = line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(other) if !other.is_empty() => {
            return Err(HttpError::BadRequest(format!("unsupported method {other:?}")))
        }
        _ => return Err(HttpError::BadRequest("empty request line".into())),
    };
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::BadRequest("missing HTTP version".into())),
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest("target must be absolute".into()));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in path".into()))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k)
                .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in query".into()))?;
            let v = percent_decode(v)
                .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in query".into()))?;
            query.push((k, v));
        }
    }
    Ok(Request {
        method,
        path,
        query,
        headers: Vec::new(),
        body: String::new(),
    })
}

/// Percent-decodes a URI component (`+` also decodes to space, as
/// browsers send for query strings). `None` on truncated or non-hex
/// escapes or non-UTF-8 results.
#[must_use]
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response ready to serialize: status, content type, body, and the
/// optional backpressure hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds, sent with `503` sheds so well-behaved
    /// clients back off instead of hammering.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A `200` JSON response.
    #[must_use]
    pub fn ok_json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A `200` plain-text response.
    #[must_use]
    pub fn ok_text(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A typed JSON error body: `{"error": <code>, "detail": <detail>}`.
    #[must_use]
    pub fn error(status: u16, code: &str, detail: &str) -> Self {
        let mut body = String::with_capacity(48 + detail.len());
        body.push_str("{\"error\":");
        lhr_obs::push_json_string(&mut body, code);
        body.push_str(",\"detail\":");
        lhr_obs::push_json_string(&mut body, detail);
        body.push_str("}\n");
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// The `503` admission-control shed, with its `Retry-After` hint.
    #[must_use]
    pub fn overloaded(detail: &str, retry_after: u32) -> Self {
        let mut r = Self::error(503, "overloaded", detail);
        r.retry_after = Some(retry_after);
        r
    }

    /// The standard reason phrase for the status.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            408 => "Request Timeout",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes the response (status line, headers, body) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the caller counts them and moves on --
    /// a client that hung up mid-response is its own problem.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str("\r\n");
        // One write, one TCP segment: a separate body write behind an
        // unacked head segment parks on Nagle until the peer's delayed
        // ACK fires -- ~10ms of pure protocol latency per response.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let r = parse("GET /v1/cell?chip=i7-45&workload=jess HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/v1/cell");
        assert_eq!(r.param("chip"), Some("i7-45"));
        assert_eq!(r.param("workload"), Some("jess"));
        assert_eq!(r.param("absent"), None);
    }

    #[test]
    fn headers_are_captured_case_insensitively() {
        let r = parse(
            "GET /v1/metrics HTTP/1.1\r\nHost: x\r\nAccept: text/plain; version=0.0.4\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.header("accept"), Some("text/plain; version=0.0.4"));
        assert_eq!(r.header("ACCEPT"), Some("text/plain; version=0.0.4"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("absent"), None);
    }

    #[test]
    fn decodes_percent_escapes_and_plus() {
        let r = parse("GET /v1/cell?config=4C2T%402.7&note=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.param("config"), Some("4C2T@2.7"));
        assert_eq!(r.param("note"), Some("a b"));
        assert_eq!(percent_decode("%2e%2e%2f"), Some("../".to_owned()));
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%2"), None);
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        assert!(matches!(parse("GARBAGE\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("DELETE /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET /x\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(parse(""), Err(HttpError::Disconnected)));
    }

    #[test]
    fn bodies_follow_content_length() {
        let r = parse(
            "POST /v1/query HTTP/1.1\r\nContent-Length: 17\r\n\r\nfilter chip == \"x\"",
        )
        .unwrap();
        // Exactly 17 bytes are consumed, no more.
        assert_eq!(r.body, "filter chip == \"x");
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.body, "");
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(&format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // A body cut short by a hangup is a disconnect, not a hang.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn oversized_heads_are_rejected_not_buffered_forever() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nPadding: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn responses_carry_length_and_retry_after() {
        let mut out = Vec::new();
        Response::overloaded("queue full", 2).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("\"error\":\"overloaded\""));
        let body_len = text.split("\r\n\r\n").nth(1).unwrap().len();
        assert!(text.contains(&format!("Content-Length: {body_len}\r\n")));
    }
}
