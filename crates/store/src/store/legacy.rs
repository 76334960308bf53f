//! The per-column layout that stores used before the batch log, read
//! only to migrate it.
//!
//! ```text
//! store/
//!   strings.jsonl     {"i":<id>,"s":"<text>","crc":"<16 hex>"}
//!   col_chip.jsonl    {"r":<start row>,"n":<rows>,"v":[...],"crc":"..."}
//!   col_clock.jsonl   ...one file per schema column...
//! ```
//!
//! Its recovery rules: the dictionary's valid contiguous prefix, each
//! column's prefix of sealed contiguous batches whose string ids resolve,
//! and of those rows the prefix every column holds (an interrupted
//! multi-file append leaves some columns one batch ahead).

use std::io;
use std::path::{Path, PathBuf};

use lhr_obs::sealed::{json_array, json_str, json_u64, open_line, read_lines};

use super::{empty_cols, Batch, ColumnData, SCHEMA};

/// Every file of the layout: the dictionary, then one per column.
fn files(dir: &Path) -> impl Iterator<Item = PathBuf> + '_ {
    std::iter::once(dir.join("strings.jsonl")).chain(
        SCHEMA
            .iter()
            .map(move |c| dir.join(format!("col_{}.jsonl", c.name))),
    )
}

/// Reads a per-column store under its recovery rules, as one batch from
/// row 0 that carries the whole dictionary and every appended row,
/// superseded versions included. `None` when `dir` holds none of its
/// files.
pub(super) fn load(dir: &Path) -> io::Result<Option<Batch>> {
    if !files(dir).any(|path| path.exists()) {
        return Ok(None);
    }
    let mut strings: Vec<String> = Vec::new();
    for line in read_lines(&dir.join("strings.jsonl"))? {
        let parsed = open_line(&line).and_then(|body| {
            let id = json_u64(body, "i")?;
            let s = json_str(body, "s")?;
            (id == strings.len() as u64).then_some(s)
        });
        match parsed {
            Some(s) => strings.push(s),
            None => break,
        }
    }
    let mut cols = empty_cols();
    for (path, data) in files(dir).skip(1).zip(&mut cols) {
        for line in read_lines(&path)? {
            if !parse_batch(&line, data, strings.len()) {
                break;
            }
        }
    }
    let usable = cols.iter().map(ColumnData::len).min().unwrap_or(0);
    for data in &mut cols {
        data.truncate(usable);
    }
    Ok(Some(Batch {
        start: 0,
        strings,
        cols,
    }))
}

/// Deletes whatever files of the layout `dir` holds. A directory that
/// holds none is not written to, so a read-only store still opens.
pub(super) fn remove(dir: &Path) -> io::Result<()> {
    for path in files(dir).filter(|path| path.exists()) {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

/// Appends one sealed column line to `data`; `false` (and `data`
/// untouched) unless it is intact, contiguous and self-consistent.
fn parse_batch(line: &str, data: &mut ColumnData, dict_len: usize) -> bool {
    let Some(body) = open_line(line) else {
        return false;
    };
    let (Some(r), Some(n), Some(values)) = (
        json_u64(body, "r"),
        json_u64(body, "n"),
        json_array(body, "v"),
    ) else {
        return false;
    };
    if r as usize != data.len() || n as usize != values.len() {
        return false;
    }
    // A dangling dictionary reference poisons the whole batch.
    let start = data.len();
    let intact = values
        .iter()
        .all(|token| data.push_token(token, dict_len).is_some());
    if !intact {
        data.truncate(start);
    }
    intact
}
