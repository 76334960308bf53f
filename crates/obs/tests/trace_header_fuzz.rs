//! Fuzzes the trace-context header parser,
//! `lhr_obs::context::parse_trace_header`, which the server and the
//! router run on every request that carries `x-lhr-trace`.
//!
//! Inputs are token soup (hex digits in both cases, dashes, whitespace,
//! multi-byte characters, empty fields) and rendered headers with one
//! character replaced, or cut at every offset. The properties:
//!
//! - the parser never panics;
//! - it returns `Some` exactly for `00-<32 hex>-<16 hex>-<2 hex>` after
//!   trimming, with a nonzero trace, and then the parsed fields (an
//!   independent reader of that grammar is the oracle);
//! - `render_trace_header(t, p, f)` with `t != 0` parses back to
//!   `(t, p, f)`;
//! - an accepted input re-renders to its trimmed, lowercased self.

use proptest::prelude::*;

use lhr_obs::context::{parse_trace_header, render_trace_header};

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

    fn trace(&mut self) -> u128 {
        u128::from(self.next()) << 64 | u128::from(self.next())
    }
}

/// The oracle: reads `00-<32 hex>-<16 hex>-<2 hex>` after trimming,
/// field by field at fixed offsets, and accepts a nonzero trace only.
fn oracle(value: &str) -> Option<(u128, u64, u8)> {
    let v = value.trim().as_bytes();
    let hex = |range: std::ops::Range<usize>| {
        v[range.clone()]
            .iter()
            .all(u8::is_ascii_hexdigit)
            .then(|| std::str::from_utf8(&v[range]).expect("ASCII"))
    };
    if v.len() != 55 || &v[..3] != b"00-" || v[35] != b'-' || v[52] != b'-' {
        return None;
    }
    let trace = u128::from_str_radix(hex(3..35)?, 16).expect("32 hex digits");
    let parent = u64::from_str_radix(hex(36..52)?, 16).expect("16 hex digits");
    let flags = u8::from_str_radix(hex(53..55)?, 16).expect("2 hex digits");
    (trace != 0).then_some((trace, parent, flags))
}

/// Parses `value` and checks every property against the oracle.
fn check(value: &str) {
    let got = parse_trace_header(value);
    assert_eq!(got, oracle(value), "{value:?}");
    if let Some((trace, parent, flags)) = got {
        assert_eq!(
            render_trace_header(trace, parent, flags),
            value.trim().to_ascii_lowercase(),
            "an accepted header re-renders to itself: {value:?}"
        );
    }
}

/// Fragments token soup is made of.
const TOKENS: &[&str] = &[
    "0",
    "00",
    "01",
    "7",
    "9",
    "a",
    "f",
    "A",
    "F",
    "ff",
    "FF",
    "Ab",
    "c0ffee",
    "DEADbeef",
    "g",
    "G",
    "x",
    "0x",
    "+",
    "-",
    "--",
    "",
    " ",
    "\t",
    "\r\n",
    "\u{a0}",
    "\u{2003}",
    "é",
    "€",
    "😀",
    "٣",
    "０",
    "-00-",
    "00-",
    "-01",
    "0123456789abcdef0123456789ABCDEF",
    "0000000000000000",
    "00000000000000000000000000000000",
    "fedcba9876543210",
];

/// Token soup: up to 12 tokens, often dash-joined into four fields.
fn soup(g: &mut Gen) -> String {
    let n = g.below(13);
    let joined = g.below(2) == 0;
    let mut out = String::new();
    for i in 0..n {
        if joined && i > 0 && i % 3 == 0 {
            out.push('-');
        }
        out.push_str(TOKENS[g.below(TOKENS.len())]);
    }
    out
}

/// A rendered header, sometimes with an all-zero trace, in either case,
/// with optional whitespace around it.
fn rendered(g: &mut Gen) -> String {
    let trace = if g.below(8) == 0 { 0 } else { g.trace() };
    let mut header = render_trace_header(trace, g.next(), g.next() as u8);
    if g.below(2) == 0 {
        header = header.to_ascii_uppercase();
    }
    let pad = [" ", "\t", "\n", "\u{a0}", ""];
    format!("{}{header}{}", g.pick(&pad), g.pick(&pad))
}

/// Characters a mutation puts in place of one character.
const REPLACEMENTS: &[char] = &[
    '0', 'a', 'F', 'g', 'G', '-', ' ', '\t', '+', 'x', '\0', 'é', '€', '😀', '٣', '０',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_parses_only_the_grammar(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let input = soup(&mut g);
        check(&input);
        // Every cut of it too, on character boundaries.
        for (at, _) in input.char_indices() {
            check(&input[..at]);
            check(&input[at..]);
        }
    }

    #[test]
    fn rendered_headers_parse_back(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (trace, parent, flags) = (g.trace() | 1, g.next(), g.next() as u8);
        let header = render_trace_header(trace, parent, flags);
        prop_assert_eq!(parse_trace_header(&header), Some((trace, parent, flags)));
        check(&header);
        check(&rendered(&mut g));
    }

    #[test]
    fn rendered_headers_with_one_character_replaced_or_cut(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let header = rendered(&mut g);
        let chars: Vec<char> = header.chars().collect();
        for i in 0..chars.len() {
            let mut mutated = chars.clone();
            mutated[i] = *g.pick(REPLACEMENTS);
            check(&mutated.iter().collect::<String>());
            mutated.remove(i);
            check(&mutated.iter().collect::<String>());
            check(&chars[..i].iter().collect::<String>());
            check(&chars[i..].iter().collect::<String>());
        }
    }
}

#[test]
fn edge_cases() {
    for (input, want) in [
        ("", None),
        ("00---", None),
        (
            "00-00000000000000000000000000000000-0000000000000000-00",
            None,
        ),
        (
            "00-00000000000000000000000000000001-0000000000000000-00",
            Some((1, 0, 0)),
        ),
        (
            " \t00-FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF-ffffffffffffffff-FF\r\n",
            Some((u128::MAX, u64::MAX, 0xff)),
        ),
        // A plus sign that `from_str_radix` alone would accept.
        (
            "00-+0000000000000000000000000000001-0000000000000000-00",
            None,
        ),
        // A version other than 00, and a fifth field.
        (
            "01-00000000000000000000000000000001-0000000000000000-00",
            None,
        ),
        (
            "00-00000000000000000000000000000001-0000000000000000-00-00",
            None,
        ),
        // Full-width digits are not ASCII hex.
        (
            "00-0000000000000000000000000000000１-0000000000000000-00",
            None,
        ),
    ] {
        assert_eq!(parse_trace_header(input), want, "{input:?}");
        check(input);
    }
}
