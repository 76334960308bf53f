//! Fuzzes the request parser, `lhr_serve::http::read_request`, over
//! in-memory streams.
//!
//! Inputs are structured requests (a request line, headers and a body
//! built from parts) and token soup (HTTP-shaped fragments, CR and LF
//! runs, colons, percent escapes, non-UTF-8 bytes and oversize lines),
//! each also cut off at every offset. The properties:
//!
//! - every input yields a `Request` or a typed `HttpError`, never a
//!   panic; a `Cursor` never times out, so the error is `BadRequest` or
//!   `Disconnected`;
//! - a well-formed request parses to the parts it was built from, and
//!   every proper prefix of it is `Disconnected`;
//! - a head longer than `MAX_HEAD_BYTES` is `BadRequest`, however it is
//!   made long and whatever follows it.

use std::io::Cursor;

use proptest::prelude::*;

use lhr_serve::http::{read_request, HttpError, Method, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};

/// SplitMix64, for drawing an input's parts from one sampled seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Parses `bytes` as one request.
fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut Cursor::new(bytes))
}

/// Parses `bytes` and checks the outcome is one an in-memory stream
/// can give.
fn parse_typed(bytes: &[u8]) -> Result<Request, HttpError> {
    let got = parse(bytes);
    assert!(
        !matches!(got, Err(HttpError::TimedOut)),
        "a cursor cannot time out: {:?}",
        String::from_utf8_lossy(bytes)
    );
    got
}

/// Fragments token soup is made of.
const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b"DELETE",
    b"get",
    b" ",
    b"  ",
    b"\t",
    b"/",
    b"/v1/cell",
    b"/v1/query",
    b"noslash",
    b"?",
    b"&",
    b"=",
    b"%",
    b"%2",
    b"%zz",
    b"%41",
    b"%ff",
    b"%c3%a9",
    b"+",
    b"#",
    b"HTTP/1.1",
    b"HTTP/1.0",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b"\r\n\r\n",
    b"\n\n",
    b"\r\r\n",
    b":",
    b"::",
    b": ",
    b"Host",
    b"Accept: text/plain",
    b"Content-Length",
    b"Content-Length: 5",
    b"Content-Length: 0",
    b"Content-Length: -1",
    b"Content-Length: 18446744073709551616",
    b"Transfer-Encoding: chunked",
    b"Transfer-Encoding: identity",
    b"\xff",
    b"\xc3",
    b"\xc3\xa9",
    b"\xe2\x82",
    b"\0",
    b"chip=i7-45",
    b"workload=jess",
    b"x",
];

/// A run of `n` bytes of `b`.
fn run(b: u8, n: usize) -> Vec<u8> {
    vec![b; n]
}

/// Token soup: up to 80 fragments, sometimes with a line near
/// `MAX_HEAD_BYTES` long.
fn soup(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..g.below(80) {
        if g.below(40) == 0 {
            let n = MAX_HEAD_BYTES - 2 + g.below(5);
            out.extend(run(*g.pick(b"a: \r"), n));
        } else {
            let token = g.pick(TOKENS);
            out.extend_from_slice(token);
        }
    }
    out
}

/// Percent-encodes every byte that is not unreserved, so the decoder
/// gives `s` back.
fn encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'/' => {
                char::from(b).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// Printable text, UTF-8 beyond ASCII included, up to `max` characters.
fn text(g: &mut Gen, max: usize) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', '-', '.', ' ', '/', '?', '&', '=', '%', '+', ':', 'é', '€',
    ];
    (0..g.below(max + 1)).map(|_| *g.pick(CHARS)).collect()
}

/// A well-formed request built from parts, its bytes, and the request
/// those bytes must parse to.
fn structured(g: &mut Gen) -> (Vec<u8>, Request) {
    let method = *g.pick(&[Method::Get, Method::Post]);
    let path = format!("/{}", text(g, 12));
    let query: Vec<(String, String)> = (0..g.below(4))
        .map(|_| (format!("k{}", text(g, 6)), text(g, 8)))
        .collect();
    let mut headers: Vec<(String, String)> = (0..g.below(4))
        .map(|i| (format!("x-h{i}"), text(g, 10).trim().to_owned()))
        .collect();
    let body = if g.below(2) == 0 {
        text(g, 40)
    } else {
        String::new()
    };
    if !body.is_empty() || g.below(2) == 0 {
        headers.push(("content-length".to_owned(), body.len().to_string()));
    }
    let mut wire = format!(
        "{} {}",
        if method == Method::Get { "GET" } else { "POST" },
        encode(&path)
    );
    for (i, (k, v)) in query.iter().enumerate() {
        wire.push(if i == 0 { '?' } else { '&' });
        wire.push_str(&format!("{}={}", encode(k), encode(v)));
    }
    wire.push_str(" HTTP/1.1\r\n");
    for (k, v) in &headers {
        // Names go out in mixed case; the parser lowercases them.
        let name: String = k
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        wire.push_str(&format!("{name}:  {v} \r\n"));
    }
    wire.push_str("\r\n");
    wire.push_str(&body);
    let want = Request {
        method,
        path,
        query,
        headers,
        body,
    };
    (wire.into_bytes(), want)
}

/// A complete head longer than `MAX_HEAD_BYTES`, made long one of four
/// ways, followed by up to 64 bytes of anything.
fn oversize_head(g: &mut Gen) -> Vec<u8> {
    let over = MAX_HEAD_BYTES + 1 + g.below(64);
    let mut head = match g.below(4) {
        // One long request line.
        0 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(over)).into_bytes(),
        // One long header line.
        1 => format!("GET / HTTP/1.1\r\nPad: {}\r\n\r\n", "b".repeat(over)).into_bytes(),
        // Many short header lines.
        2 => {
            let mut h = b"GET / HTTP/1.1\r\n".to_vec();
            for i in 0..=over / 24 {
                h.extend(format!("X-Pad-{i:05}: cccccccccc\r\n").into_bytes());
            }
            h.extend(b"\r\n");
            h
        }
        // A long line of soup: no newline before the limit.
        _ => {
            let mut h = run(*g.pick(b"a: \r\xff"), over);
            h.extend(b"\r\n\r\n");
            h
        }
    };
    for _ in 0..g.below(65) {
        head.push(g.next() as u8);
    }
    head
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn token_soup_and_every_prefix_of_it_parse_or_fail_typed(seed in any::<u64>()) {
        let bytes = soup(&mut Gen(seed));
        if bytes.len() <= 4096 {
            for cut in 0..=bytes.len() {
                let _ = parse_typed(&bytes[..cut]);
            }
        } else {
            let mut g = Gen(seed ^ 1);
            for _ in 0..64 {
                let _ = parse_typed(&bytes[..g.below(bytes.len() + 1)]);
            }
            let _ = parse_typed(&bytes);
        }
    }

    #[test]
    fn a_well_formed_request_parses_to_its_parts_and_its_prefixes_disconnect(
        seed in any::<u64>(),
    ) {
        let (bytes, want) = structured(&mut Gen(seed));
        prop_assert_eq!(parse_typed(&bytes), Ok(want));
        for cut in 0..bytes.len() {
            prop_assert_eq!(parse_typed(&bytes[..cut]), Err(HttpError::Disconnected));
        }
    }

    #[test]
    fn an_oversize_head_is_a_bad_request(seed in any::<u64>()) {
        let bytes = oversize_head(&mut Gen(seed));
        prop_assert!(
            matches!(parse_typed(&bytes), Err(HttpError::BadRequest(_))),
            "{:?}",
            parse(&bytes)
        );
    }

    #[test]
    fn a_structured_request_with_one_byte_replaced_parses_or_fails_typed(
        seed in any::<u64>(),
        byte in any::<u8>(),
        at in 0usize..4096,
    ) {
        let (mut bytes, _) = structured(&mut Gen(seed));
        let i = at % bytes.len();
        bytes[i] = byte;
        let _ = parse_typed(&bytes);
    }
}

#[test]
fn bodies_at_and_past_the_limit() {
    let head = |len: usize| format!("POST /v1/query HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
    let mut at_limit = head(MAX_BODY_BYTES).into_bytes();
    at_limit.extend(run(b'q', MAX_BODY_BYTES));
    assert_eq!(
        parse_typed(&at_limit).map(|r| r.body.len()),
        Ok(MAX_BODY_BYTES)
    );
    let past = head(MAX_BODY_BYTES + 1);
    assert!(matches!(
        parse_typed(past.as_bytes()),
        Err(HttpError::BadRequest(_))
    ));
    let mut not_utf8 = head(2).into_bytes();
    not_utf8.extend(b"\xff\xfe");
    assert!(matches!(
        parse_typed(&not_utf8),
        Err(HttpError::BadRequest(_))
    ));
}
