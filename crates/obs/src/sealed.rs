//! Sealed lines: the one on-disk record format under every durable file
//! in the workspace, and the crash-safe whole-file write.
//!
//! A sealed line is a JSON object whose last member `"crc"` holds the
//! FNV-1a 64 checksum (16 lowercase hex digits) of everything before it:
//!
//! ```text
//! {"k":v,...,"crc":"<16 hex>"}
//! ```
//!
//! The campaign journal (`lhr_core::journal`), the cell store's column
//! segments and dictionary, and the span store all persist records this
//! way. A line torn by a crash, or damaged on disk, fails [`open_line`]
//! and its reader skips it; nothing before it is lost.
//!
//! Bodies are written with [`push_json_string`](crate::push_json_string)
//! and [`push_json_number`](crate::push_json_number) and read back with
//! the field readers here ([`json_str`], [`json_f64`], [`json_u64`],
//! [`json_array`]), which invert them exactly: a shortest-form `f64`
//! re-parses to the identical bits, and a `u64` is parsed as an integer
//! (span ids exceed 2^53, so a trip through `f64` would round them).
//! The readers locate the first `"key":` in the text; they are not a
//! general JSON parser.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// The member that closes every sealed line.
const CRC_KEY: &str = ",\"crc\":\"";

/// FNV-1a 64 over `bytes`: the checksum of a sealed line, and the
/// workspace's content checksum for artifacts.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Seals a record body (an object literal that opens with `{` and omits
/// its closing brace) by appending the checksum member and the brace.
#[must_use]
pub fn seal_line(mut body: String) -> String {
    let crc = fnv64(body.as_bytes());
    let _ = write!(body, "{CRC_KEY}{crc:016x}\"}}");
    body
}

/// Verifies a sealed line and returns its body (everything before
/// `,"crc":`). Returns `None` for a torn or damaged line, including a
/// checksum not spelled exactly as [`seal_line`] spells it.
#[must_use]
pub fn open_line(line: &str) -> Option<&str> {
    let at = line.rfind(CRC_KEY)?;
    let (body, tail) = line.split_at(at);
    let hex = tail.strip_prefix(CRC_KEY)?.strip_suffix("\"}")?;
    let canonical = hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let crc = u64::from_str_radix(hex, 16).ok()?;
    (canonical && fnv64(body.as_bytes()) == crc).then_some(body)
}

/// The text after the first `"key":` in `body`.
fn after_key<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    body.find(&needle).map(|i| &body[i + needle.len()..])
}

/// The scalar token after `"key":`, up to the next `,`, `}` or `]`,
/// trimmed.
fn scalar<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(body, key)?;
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Reads the string value of `"key":"..."`, undoing the RFC 8259
/// escapes: the inverse of [`push_json_string`](crate::push_json_string).
/// It also accepts the escaped solidus `\/`, which that writer never
/// emits.
#[must_use]
pub fn json_str(body: &str, key: &str) -> Option<String> {
    let rest = after_key(body, key)?.trim_start().strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Reads the number value of `"key":N` as an `f64`.
#[must_use]
pub fn json_f64(body: &str, key: &str) -> Option<f64> {
    scalar(body, key)?.parse().ok()
}

/// Reads the integer value of `"key":N` as a `u64`, exactly.
#[must_use]
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    scalar(body, key)?.parse().ok()
}

/// Reads the flat `[..]` array after `"key":` into its raw, untrimmed
/// element texts (an empty array gives no elements). Elements must not
/// contain `,` or `]`.
#[must_use]
pub fn json_array<'a>(body: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let rest = after_key(body, key)?.strip_prefix('[')?;
    let inner = &rest[..rest.find(']')?];
    if inner.is_empty() {
        return Some(Vec::new());
    }
    Some(inner.split(',').collect())
}

/// Reads a sealed-line file as lines, for the caller to [`open_line`]
/// one by one. Bytes that are not UTF-8 (bit rot) become U+FFFD, so only
/// the damaged line fails its checksum; a missing file has no lines.
///
/// # Errors
///
/// Any I/O error other than the file not existing.
pub fn read_lines(path: &Path) -> io::Result<Vec<String>> {
    let mut bytes = Vec::new();
    match fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::to_owned)
        .collect())
}

/// Writes `bytes` to `path` atomically: a hidden temp file in the same
/// directory, `sync_all`, rename, then a directory fsync to persist the
/// rename. A crash at any instant leaves either the old complete file
/// or the new complete file, never a torn one.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming; on
/// error the destination is untouched and the temp file is removed
/// best-effort.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_hooked(path, bytes, |_| Ok(()))
}

/// [`write_atomic`] with a fault hook run between the temp-file fsync
/// and the rename -- the unit tests' stand-in for a crash at the worst
/// possible instant.
fn write_atomic_hooked(
    path: &Path,
    bytes: &[u8],
    before_rename: impl FnOnce(&Path) -> io::Result<()>,
) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        before_rename(&tmp)?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Persist the rename: fsync the containing directory. Failure here
    // is not fatal to correctness of the visible file, so best-effort.
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{push_json_number, push_json_string};
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lhr-sealed-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"table4"), fnv64(b"table4"));
        assert_ne!(fnv64(b"table4"), fnv64(b"table5"));
    }

    #[test]
    fn sealed_lines_round_trip_and_reject_tampering() {
        let line = seal_line("{\"r\":3,\"n\":2,\"v\":[1,2]".to_owned());
        assert!(line.ends_with("\"}"));
        let body = open_line(&line).expect("clean line verifies");
        assert_eq!(json_u64(body, "r"), Some(3));
        assert_eq!(json_array(body, "v"), Some(vec!["1", "2"]));
        // Any single-byte flip in the body must fail verification.
        let mut evil = line.clone().into_bytes();
        evil[2] ^= 1;
        assert!(open_line(std::str::from_utf8(&evil).unwrap()).is_none());
        // A torn prefix must fail too.
        for cut in 0..line.len() {
            assert!(open_line(&line[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut body = String::from("{\"s\":");
        push_json_string(&mut body, "a\"b\\c\nd\te\u{1}");
        let line = seal_line(body);
        let opened = open_line(&line).unwrap();
        assert_eq!(json_str(opened, "s").unwrap(), "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn lossy_reader_costs_only_the_damaged_line() {
        let path = scratch("lossy.jsonl");
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(seal_line(format!("{{\"i\":{i}")).as_bytes());
            bytes.push(b'\n');
        }
        // Bit rot: set the high bit of a byte inside the second record.
        let mid = bytes.iter().position(|&b| b == b'\n').unwrap() + 3;
        bytes[mid] |= 0x80;
        fs::write(&path, &bytes).unwrap();
        let lines = read_lines(&path).unwrap();
        let ids: Vec<Option<u64>> = lines
            .iter()
            .map(|l| open_line(l).and_then(|b| json_u64(b, "i")))
            .collect();
        assert_eq!(ids, [Some(0), None, Some(2)]);
        assert!(read_lines(&scratch("absent.jsonl")).unwrap().is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let path = scratch("replace.txt");
        write_atomic(&path, b"first version\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version\n");
        write_atomic(&path, b"second version\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second version\n");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn simulated_crash_before_rename_leaves_the_old_file_intact() {
        let path = scratch("crash.txt");
        write_atomic(&path, b"the good data\n").unwrap();
        // The new write dies after the temp file hit disk but before the
        // rename: the destination must still hold the old bytes, and the
        // temp must not linger.
        let err = write_atomic_hooked(&path, b"half-written garbage", |tmp| {
            assert!(tmp.exists(), "temp file exists at the crash point");
            Err(io::Error::other("power cut"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "power cut");
        assert_eq!(
            fs::read(&path).unwrap(),
            b"the good data\n",
            "old artifact survives a mid-write crash"
        );
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("crash.txt.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp litter: {leftovers:?}");
        fs::remove_file(&path).ok();
    }

    /// Characters a string property draws from: JSON's escapes, control
    /// characters, and multi-byte UTF-8.
    const PALETTE: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '\u{2028}', '🦀',
    ];

    fn sealed_string(s: &str) -> String {
        let mut body = String::from("{\"k\":");
        push_json_string(&mut body, s);
        body.push_str(",\"after\":1");
        seal_line(body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any string survives push_json_string, seal, open and json_str.
        #[test]
        fn strings_round_trip(picks in proptest::collection::vec(0usize..16, 0..40)) {
            let s: String = picks.iter().map(|&i| PALETTE[i]).collect();
            let line = sealed_string(&s);
            let body = open_line(&line).expect("fresh seal verifies");
            prop_assert_eq!(json_str(body, "k"), Some(s));
        }

        /// Every u64, including those above 2^53, reads back exactly.
        #[test]
        fn u64s_round_trip(x in any::<u64>(), small in 0u64..1 << 53) {
            for v in [x, small, small + (1 << 53) + 1, u64::MAX] {
                let line = seal_line(format!("{{\"id\":{v},\"n\":0"));
                prop_assert_eq!(json_u64(open_line(&line).unwrap(), "id"), Some(v));
            }
        }

        /// Every finite f64 written by push_json_number reads back with
        /// identical bits.
        #[test]
        fn f64s_round_trip_bit_exactly(bits in any::<u64>(), y in any::<f64>()) {
            for v in [f64::from_bits(bits), y, -0.0, f64::MIN_POSITIVE / 8.0, f64::MAX] {
                if !v.is_finite() {
                    continue;
                }
                let mut body = String::from("{\"x\":");
                push_json_number(&mut body, v);
                let line = seal_line(body);
                let back = json_f64(open_line(&line).unwrap(), "x").expect("number parses");
                prop_assert_eq!(back.to_bits(), v.to_bits());
            }
        }

        /// Every strict prefix and every single-byte substitution of a
        /// sealed line fails open_line.
        #[test]
        fn prefixes_and_substitutions_fail(
            picks in proptest::collection::vec(0usize..16, 0..12),
            sub in 1u16..256,
        ) {
            let s: String = picks.iter().map(|&i| PALETTE[i]).collect();
            let line = sealed_string(&s);
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                let prefix = String::from_utf8_lossy(&bytes[..cut]);
                prop_assert!(open_line(&prefix).is_none(), "prefix of {} bytes", cut);
            }
            for at in 0..bytes.len() {
                let mut evil = bytes.to_vec();
                evil[at] ^= u8::try_from(sub).expect("1..256 fits a byte");
                let evil = String::from_utf8_lossy(&evil);
                prop_assert!(open_line(&evil).is_none(), "byte {} ^ {:#x}", at, sub);
            }
        }
    }

    #[test]
    fn escaped_solidus_is_accepted() {
        assert_eq!(json_str("{\"p\":\"a\\/b\"", "p").as_deref(), Some("a/b"));
    }
}
