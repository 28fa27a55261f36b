//! A minimal TOML-subset parser producing a `serde::Value` tree, so that
//! sweep specs can be written as TOML without a crates.io dependency.
//!
//! Supported subset (everything `examples/sweep_grid.toml` documents):
//!
//! * `#` comments, blank lines;
//! * `key = value` with bare or dotted keys;
//! * `[table]` and `[[array-of-tables]]` headers (dotted allowed);
//! * values: basic `"strings"`, booleans, integers, floats, inline arrays
//!   `[a, b, ...]` (multi-line allowed), and inline tables `{ k = v }`.
//!
//! Unsupported TOML (literal strings, datetimes, multi-line strings) is
//! rejected with a line-numbered error rather than misparsed.

use serde::{Error, Value};

/// Parses the TOML subset into a value tree.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut root = Vec::new();
    // Path of the table currently receiving `key = value` lines, and
    // whether that path ends inside an array-of-tables element.
    let mut current_path: Vec<String> = Vec::new();

    let logical_lines = join_multiline(input)?;
    for (lineno, line) in logical_lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let header = header
                .strip_suffix("]]")
                .ok_or_else(|| err(lineno, "unterminated [[header]]"))?;
            let path = split_key(header.trim());
            push_array_table(&mut root, &path).map_err(|e| err(lineno, &e))?;
            current_path = path;
        } else if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated [header]"))?;
            let path = split_key(header.trim());
            ensure_table(&mut root, &path).map_err(|e| err(lineno, &e))?;
            current_path = path;
        } else {
            let (key, raw) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            let mut path = current_path.clone();
            path.extend(split_key(key.trim()));
            let value = parse_value(raw.trim()).map_err(|e| err(lineno, &e))?;
            insert(&mut root, &path, value).map_err(|e| err(lineno, &e))?;
        }
    }
    Ok(Value::Object(root))
}

fn err(lineno: usize, msg: &str) -> Error {
    Error::custom(format!("TOML line {lineno}: {msg}"))
}

/// Joins physical lines so that arrays/inline tables may span lines:
/// a logical line is complete when brackets/braces balance outside strings.
fn join_multiline(input: &str) -> Result<Vec<(usize, String)>, Error> {
    let mut out = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    let mut depth = 0i32;
    for (i, raw) in input.lines().enumerate() {
        let line = strip_comment(raw);
        if pending.is_empty() {
            pending_start = i + 1;
        } else {
            pending.push(' ');
        }
        pending.push_str(line.trim_end());
        depth += bracket_balance(line)
            .map_err(|e| Error::custom(format!("TOML line {}: {e}", i + 1)))?;
        if depth < 0 {
            return Err(Error::custom(format!(
                "TOML line {}: unbalanced closing bracket",
                i + 1
            )));
        }
        if depth == 0 {
            if !pending.trim().is_empty() {
                out.push((pending_start, std::mem::take(&mut pending)));
            } else {
                pending.clear();
            }
        }
    }
    if depth != 0 {
        return Err(Error::custom("TOML: unterminated array or inline table"));
    }
    Ok(out)
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_balance(line: &str) -> Result<i32, String> {
    let mut depth = 0i32;
    let mut in_string = false;
    for c in line.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' | '{' if !in_string => depth += 1,
            ']' | '}' if !in_string => depth -= 1,
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    Ok(depth)
}

fn split_key(key: &str) -> Vec<String> {
    key.split('.').map(|s| s.trim().to_string()).collect()
}

type Obj = Vec<(String, Value)>;

fn dig<'a>(root: &'a mut Obj, path: &[String]) -> Result<&'a mut Obj, String> {
    let mut cur = root;
    for part in path {
        if !cur.iter().any(|(k, _)| k == part) {
            cur.push((part.clone(), Value::Object(Vec::new())));
        }
        let slot = cur
            .iter_mut()
            .find(|(k, _)| k == part)
            .map(|(_, v)| v)
            .unwrap();
        cur = match slot {
            Value::Object(o) => o,
            // Descend into the latest element of an array of tables.
            Value::Array(items) => match items.last_mut() {
                Some(Value::Object(o)) => o,
                _ => return Err(format!("`{part}` is not a table")),
            },
            _ => return Err(format!("`{part}` is not a table")),
        };
    }
    Ok(cur)
}

fn ensure_table(root: &mut Obj, path: &[String]) -> Result<(), String> {
    dig(root, path).map(|_| ())
}

fn push_array_table(root: &mut Obj, path: &[String]) -> Result<(), String> {
    let (last, parents) = path.split_last().ok_or("empty [[header]]")?;
    let parent = dig(root, parents)?;
    if !parent.iter().any(|(k, _)| k == last) {
        parent.push((last.clone(), Value::Array(Vec::new())));
    }
    match parent.iter_mut().find(|(k, _)| k == last).map(|(_, v)| v) {
        Some(Value::Array(items)) => {
            items.push(Value::Object(Vec::new()));
            Ok(())
        }
        _ => Err(format!("`{last}` is not an array of tables")),
    }
}

fn insert(root: &mut Obj, path: &[String], value: Value) -> Result<(), String> {
    let (last, parents) = path.split_last().ok_or("empty key")?;
    let parent = dig(root, parents)?;
    if parent.iter().any(|(k, _)| k == last) {
        return Err(format!("duplicate key `{last}`"));
    }
    parent.push((last.clone(), value));
    Ok(())
}

fn parse_value(raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("missing value".into());
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let inner = rest.strip_suffix('"').ok_or("unterminated string value")?;
        if inner.contains('"') {
            return Err("embedded quotes are not supported".into());
        }
        return Ok(Value::Str(unescape(inner)?));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let inner = rest.strip_suffix(']').ok_or("unterminated array value")?;
        let mut items = Vec::new();
        for piece in split_top_level(inner) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_value(piece)?);
        }
        return Ok(Value::Array(items));
    }
    if let Some(rest) = raw.strip_prefix('{') {
        let inner = rest.strip_suffix('}').ok_or("unterminated inline table")?;
        let mut entries = Vec::new();
        for piece in split_top_level(inner) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let (k, v) = piece
                .split_once('=')
                .ok_or("expected `key = value` in inline table")?;
            entries.push((k.trim().to_string(), parse_value(v.trim())?));
        }
        return Ok(Value::Object(entries));
    }
    // Numbers; TOML allows `_` separators.
    let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
    if !cleaned.contains(['.', 'e', 'E']) {
        if let Ok(n) = cleaned.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = cleaned.parse::<i64>() {
            return Ok(Value::I64(n));
        }
    }
    cleaned
        .parse::<f64>()
        .map(Value::F64)
        .map_err(|_| format!("cannot parse value `{raw}`"))
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            other => return Err(format!("unsupported escape `\\{other:?}`")),
        }
    }
    Ok(out)
}

/// Splits on top-level commas (outside nested brackets/braces/strings).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut pieces = Vec::new();
    let mut depth = 0i32;
    let mut in_string = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' | '{' if !in_string => depth += 1,
            ']' | '}' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                pieces.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&s[start..]);
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value under `key` in the table `v`.
    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        let entries = v.as_object().expect("a table");
        &entries.iter().find(|(k, _)| k == key).expect("the key").1
    }

    #[test]
    fn parses_the_documented_subset() {
        let toml = r#"
# a sweep
name = "demo"
seed = 42
tasks = [100, 1_000]
algorithms = ["all"]

[limits]
max = 1.5  # inline comment

[[platforms]]
kind = "class"
class = "het"
count = 3

[[platforms]]
kind = "explicit"
c = [0.1, 0.2]
p = [
    1.0,
    2.0,
]

[[arrivals]]
kind = "stream"
load = 0.9
"#;
        let v = parse(toml).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(field(&v, "name").as_str(), Some("demo"));
        assert_eq!(*field(&v, "seed"), Value::U64(42));
        assert_eq!(
            *field(&v, "tasks"),
            Value::Array(vec![Value::U64(100), Value::U64(1000)])
        );
        let platforms = field(&v, "platforms").as_array().unwrap();
        assert_eq!(platforms.len(), 2);
        assert_eq!(
            field(&platforms[1], "p"),
            &Value::Array(vec![Value::F64(1.0), Value::F64(2.0)])
        );
        let limits = field(&v, "limits");
        assert_eq!(*field(limits, "max"), Value::F64(1.5));
        assert_eq!(obj.len(), 7);
    }

    #[test]
    fn inline_tables_and_negatives() {
        let v = parse("point = { x = -1, y = 2.5 }\nflag = false").unwrap();
        let point = field(&v, "point");
        assert_eq!(*field(point, "x"), Value::I64(-1));
        assert_eq!(*field(point, "y"), Value::F64(2.5));
        assert_eq!(*field(&v, "flag"), Value::Bool(false));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("key").is_err());
        assert!(parse("k = [1, 2").is_err());
        assert!(parse("k = \"unterminated").is_err());
        assert!(parse("k = 1\nk = 2").is_err());
        assert!(parse("[t\nk = 1").is_err());
    }
}
