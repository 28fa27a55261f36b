//! Mutation fuzzing of the trace reader: a file near a valid trace either
//! replays cleanly or ends with a located error, never panics, and reads
//! exactly as the line reader `TraceSource` replaced would read it.
//!
//! Each case applies one to three mutations to an input: flip or delete a
//! byte, truncate at any byte, duplicate, swap or drop a line, insert a
//! column (CSV) or a key (JSONL), insert a whitespace or control byte as a
//! line of its own or at a line's start (blank or not, opening and pulling
//! must agree), or cut a line short before its terminator (`\n` or
//! `\r\n`), a torn write followed by more data. The inputs are the
//! committed fixtures `examples/replay_trace.csv` and
//! `examples/replay_trace.jsonl`, and two generated traces with CRLF
//! lines, blank and whitespace-only lines, and padded cells and values.
//! The generated CSV spans more than four read buffers and holds one line
//! longer than the 16 KiB read buffer. The mutant is written to a file, so
//! invalid UTF-8 reaches the reader, then opened and replayed. The
//! properties:
//!
//! * `open` returns `Ok`, or a `TraceError` that names the file;
//! * draining never panics;
//! * a drain that ends with no `error()` yielded exactly `len()` records,
//!   each with a finite, non-negative, non-decreasing release and finite,
//!   positive sizes;
//! * a drain that ends with an error names `file:line`, and never says
//!   the file changed after `open` (opening and pulling agree on it);
//! * the reader agrees with [`reference`], a copy of the line reader it
//!   replaced (`read_until`, then `\r`/`\n` popped, the same blank rule,
//!   and CSV cells split, trimmed and parsed): on `open`, `len()` and
//!   `dropped()` or the error text; on every pull of two passes, the
//!   record's bits or the error text.
//!
//! Cases come from the vendored proptest's fixed per-test seed, in a
//! bounded number.

use mss_workload::{TaskSource, TraceSource};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One mutation: an operation (`0..9`) and its operands, reduced modulo
/// the mutant's current size when applied.
type Mutation = (u8, usize, usize, u8);

/// The read buffer `TraceSource` refills, for sizing the generated traces.
const READ_BUF: usize = 16 * 1024;

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    std::fs::read(path).expect("read fixture")
}

/// A generated trace of `records` records: CRLF on two lines in three, a
/// blank or whitespace-only line before every seventh record, and cells
/// or values padded with spaces and tabs. In a CSV trace the middle
/// record is padded past the read buffer, and few lines start with a
/// space, so a reader that loses a line's first byte changes a record.
fn generated(csv: bool, records: usize) -> Vec<u8> {
    let mut text = String::new();
    if csv {
        text.push_str(" release,size_c ,\tsize_p\r\n");
    }
    for i in 0..records {
        match i % 7 {
            3 => text.push_str("\r\n"),
            5 => text.push_str(" \t \n"),
            _ => {}
        }
        let release = i as f64 * 0.25;
        let c = 1.0 + (i % 7) as f64 / 64.0;
        let p = 1.0 - (i % 5) as f64 / 32.0;
        let pad = match i {
            _ if csv && i == records / 2 => " ".repeat(READ_BUF + 4000),
            _ => ["", " ", "\t ", "  "][i % 4].to_string(),
        };
        if csv {
            let lead = if i % 11 == 0 { " " } else { "" };
            write!(text, "{lead}{release}{pad},{c}{pad}, {p}\t").unwrap();
        } else {
            write!(
                text,
                "{{\"release\":{pad}{release}, \"size_c\": {c},\"size_p\":{p}{pad}}}"
            )
            .unwrap();
        }
        text.push_str(if i % 3 == 0 { "\n" } else { "\r\n" });
    }
    text.into_bytes()
}

/// The generated CSV trace: more than four read buffers.
fn generated_csv() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let trace = generated(true, 2_000);
        assert!(trace.len() > 4 * READ_BUF, "{} bytes", trace.len());
        trace
    })
}

/// The generated JSONL trace: its CRLF lines, cut short, show a kept `\r`
/// in the byte offsets of JSON errors.
fn generated_jsonl() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| generated(false, 120))
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..9, 0usize..1 << 20, 0usize..1 << 20, 1u8..=255), 1..4)
}

fn mutate(mut bytes: Vec<u8>, (op, a, b, byte): Mutation) -> Vec<u8> {
    match op {
        0 if !bytes.is_empty() => {
            let i = a % bytes.len();
            bytes[i] ^= byte;
        }
        1 if !bytes.is_empty() => {
            bytes.remove(a % bytes.len());
        }
        2 => bytes.truncate(a % (bytes.len() + 1)),
        3..=8 => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let (i, j) = (a % lines.len(), b % lines.len());
            match op {
                3 => lines.insert(j, lines[i].clone()),
                4 => lines.swap(i, j),
                5 => drop(lines.remove(i)),
                6 => insert_field(&mut lines[i], byte),
                7 => {
                    let space = b" \t\r\x0b\x0c"[usize::from(byte) % 5];
                    if b % 2 == 0 {
                        lines.insert(i, vec![space]);
                    } else {
                        lines[i].insert(0, space);
                    }
                }
                _ => {
                    let line = &mut lines[i];
                    let cr = line.last() == Some(&b'\r');
                    let content = line.len() - usize::from(cr);
                    line.drain(b % (content + 1)..content);
                }
            }
            bytes = lines.join(&b'\n');
        }
        _ => {}
    }
    bytes
}

/// Inserts a column into a CSV line, or an unknown or a repeated key into
/// a JSONL line.
fn insert_field(line: &mut Vec<u8>, byte: u8) {
    match line.iter().position(|&c| c == b'{') {
        Some(open) => {
            let key: &[u8] = if byte.is_multiple_of(2) {
                b"\"extra\": 1, "
            } else {
                b"\"size_c\": 2.0, "
            };
            line.splice(open + 1..open + 1, key.iter().copied());
        }
        None => line.extend_from_slice(b",0.5"),
    }
}

/// `error` names `path` followed by `:` and a line number.
fn names_a_line(error: &str, path: &Path) -> bool {
    let file = format!("{}:", path.display());
    error
        .match_indices(&file)
        .any(|(at, _)| error[at + file.len()..].starts_with(|c: char| c.is_ascii_digit()))
}

/// Opens and drains the trace at `path`, checking the property.
fn open_and_drain(path: &Path) -> Result<(), TestCaseError> {
    let mut source = match TraceSource::open(path) {
        Ok(source) => source,
        Err(e) => {
            prop_assert!(
                e.0.contains(&path.display().to_string()),
                "open error does not name the file: {}",
                e
            );
            return Ok(());
        }
    };
    let mut pulled = 0usize;
    let mut last = 0.0f64;
    while let Some(task) = source.next_task() {
        let release = task.release.as_f64();
        prop_assert!(
            release.is_finite() && release >= last,
            "release {} after {}",
            release,
            last
        );
        prop_assert!(
            task.size_c.is_finite() && task.size_c > 0.0,
            "size_c {}",
            task.size_c
        );
        prop_assert!(
            task.size_p.is_finite() && task.size_p > 0.0,
            "size_p {}",
            task.size_p
        );
        last = release;
        pulled += 1;
        prop_assert!(
            pulled <= source.len(),
            "more records than the {} counted",
            source.len()
        );
    }
    match source.error() {
        None => prop_assert_eq!(pulled, source.len()),
        Some(e) => {
            prop_assert!(names_a_line(e, path), "unlocated error: {}", e);
            // The file did not change: opening and pulling agree on it.
            prop_assert!(!e.contains("the file changed"), "{}", e);
        }
    }
    Ok(())
}

/// A record's bits: release, `size_c`, `size_p`.
type Bits = [u64; 3];

/// What a reader makes of a trace: an open error, or the counts at open
/// and, for each of two passes, the records pulled and the error that
/// ended the pass.
#[derive(Debug, PartialEq)]
enum Outcome {
    OpenError(String),
    Opened {
        len: usize,
        dropped: usize,
        passes: Vec<(Vec<Bits>, Option<String>)>,
    },
}

/// Opens the trace at `path` and replays it twice.
fn replay(path: &Path) -> Outcome {
    let mut source = match TraceSource::open(path) {
        Ok(source) => source,
        Err(e) => return Outcome::OpenError(e.0),
    };
    let passes = (0..2)
        .map(|_| {
            source.reset();
            let records = std::iter::from_fn(|| source.next_task())
                .map(|t| [t.release.as_f64(), t.size_c, t.size_p].map(f64::to_bits))
                .collect();
            (records, source.error().map(str::to_owned))
        })
        .collect();
    Outcome::Opened {
        len: source.len(),
        dropped: source.dropped(),
        passes,
    }
}

/// The fields of a trace record, in canonical order.
const FIELDS: [&str; 3] = ["release", "size_c", "size_p"];

/// One JSONL record, as the reader's derived record.
#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct JsonlRecord {
    release: f64,
    size_c: f64,
    size_p: f64,
}

/// The line reader `TraceSource` replaced, as the reference: `read_until`
/// into a line, `\r`/`\n` popped, blank lines of ASCII whitespace skipped,
/// and each record line parsed by today's rules. A reference pass reads
/// the lines `open` counted, so it is the same for both passes of an
/// unchanged file.
fn reference(path: &Path) -> Outcome {
    let location = path.display().to_string();
    let csv = path.extension().is_some_and(|e| e == "csv");
    let mut reader = BufReader::new(std::fs::File::open(path).expect("open mutant"));
    let mut lines = Vec::new();
    let mut line_no = 0;
    loop {
        let mut line = Vec::new();
        if reader.read_until(b'\n', &mut line).expect("read mutant") == 0 {
            break;
        }
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        line_no += 1;
        if !line.iter().all(u8::is_ascii_whitespace) {
            lines.push((line_no, line));
        }
    }
    let located = |no: usize, msg: String| format!("{msg} in {location}:{no}");
    let mut records = &lines[..];
    let mut columns = [0, 1, 2];
    if csv {
        let Some(((no, header), rest)) = lines.split_first() else {
            return Outcome::OpenError(format!(
                "empty trace {location}: a CSV trace needs a `release,size_c,size_p` header"
            ));
        };
        match reference_header(header) {
            Ok(read) => columns = read,
            Err(msg) => return Outcome::OpenError(located(*no, msg)),
        }
        records = rest;
    }
    let parse = |line: &[u8], last: &mut f64| reference_record(line, csv, &columns, last);
    let mut dropped = 0;
    if let Some((no, line)) = records.last() {
        match parse(line, &mut { f64::NEG_INFINITY }) {
            Err(msg) => return Outcome::OpenError(located(*no, msg)),
            Ok(Err(_)) => dropped = 1,
            Ok(Ok(_)) => {}
        }
    }
    let len = records.len() - dropped;
    let mut pulled = Vec::new();
    let mut error = None;
    let mut last = f64::NEG_INFINITY;
    for (no, line) in &records[..len] {
        match parse(line, &mut last) {
            Ok(Ok(bits)) => pulled.push(bits),
            Ok(Err(detail)) => {
                error = Some(located(
                    *no,
                    format!(
                        "malformed record ({detail}) followed by more data \
                         — only a torn final line is recoverable"
                    ),
                ));
                break;
            }
            Err(msg) => {
                error = Some(located(*no, msg));
                break;
            }
        }
    }
    let pass = (pulled, error);
    Outcome::Opened {
        len,
        dropped,
        passes: vec![pass.clone(), pass],
    }
}

/// Today's CSV header rule: the column of each field, or the unlocated
/// error.
fn reference_header(line: &[u8]) -> Result<[usize; 3], String> {
    let line = std::str::from_utf8(line).map_err(|_| "the header is not valid UTF-8")?;
    let mut columns = [0; 3];
    let mut seen = [false; 3];
    for (n, name) in line.split(',').map(str::trim).enumerate() {
        let Some(field) = FIELDS.iter().position(|&f| f == name) else {
            return Err(format!(
                "unknown column `{name}` (allowed: {}) — unknown columns are rejected so \
                 typos cannot silently degrade to defaults",
                FIELDS.join(", ")
            ));
        };
        if seen[field] {
            return Err(format!("duplicate column `{name}`"));
        }
        seen[field] = true;
        columns[n] = field;
    }
    match seen.iter().position(|&s| !s) {
        Some(i) => Err(format!(
            "missing column `{}` (required: {})",
            FIELDS[i],
            FIELDS.join(", ")
        )),
        None => Ok(columns),
    }
}

/// Today's record rule: `Ok(Ok(bits))` for a record, `Ok(Err(detail))`
/// for a malformed line, `Err` for a schema, value or sortedness error
/// (unlocated). `last` is the sortedness watermark.
fn reference_record(
    line: &[u8],
    csv: bool,
    columns: &[usize; 3],
    last: &mut f64,
) -> Result<Result<Bits, String>, String> {
    let Ok(line) = std::str::from_utf8(line) else {
        return Ok(Err("not valid UTF-8".into()));
    };
    let [release, size_c, size_p] = if csv {
        let cells = line.split(',').count();
        if cells != FIELDS.len() {
            return Ok(Err(format!(
                "expected {} comma-separated values, got {cells}",
                FIELDS.len()
            )));
        }
        let mut fields = [0.0; 3];
        for (cell, &field) in line.split(',').map(str::trim).zip(columns) {
            match cell.parse::<f64>() {
                Ok(v) => fields[field] = v,
                Err(_) => return Ok(Err(format!("`{cell}` is not a number"))),
            }
        }
        fields
    } else {
        let value = match serde_json::parse_value(line) {
            Ok(v) => v,
            Err(e) => return Ok(Err(format!("invalid JSON: {e}"))),
        };
        let r: JsonlRecord = serde::Deserialize::from_value(&value).map_err(|e| e.to_string())?;
        [r.release, r.size_c, r.size_p]
    };
    if !release.is_finite() || release < 0.0 {
        return Err(format!("release {release} must be finite and non-negative"));
    }
    if !(size_c.is_finite() && size_c > 0.0 && size_p.is_finite() && size_p > 0.0) {
        return Err(format!(
            "task sizes ({size_c}, {size_p}) must be finite and positive"
        ));
    }
    if release < *last {
        return Err(format!(
            "decreasing release {release} after {last} — a trace is replayed as the release \
             order, so releases must be non-decreasing"
        ));
    }
    *last = release;
    Ok(Ok([release, size_c, size_p].map(f64::to_bits)))
}

/// Writes `input` mutated by `mutations` to a file named `name` and checks
/// the properties on it; a panic fails the case with the mutations.
fn check(name: &str, input: &[u8], mutations: &[Mutation]) -> Result<(), TestCaseError> {
    let bytes = mutations.iter().fold(input.to_vec(), |b, &m| mutate(b, m));
    let path: PathBuf =
        std::env::temp_dir().join(format!("mss-trace-fuzz-{}-{name}", std::process::id()));
    std::fs::write(&path, &bytes).expect("write mutant");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        open_and_drain(&path)?;
        let (read, expected) = (replay(&path), reference(&path));
        prop_assert!(
            read == expected,
            "the reader and the reference disagree on {:?}:\n{}",
            mutations,
            first_difference(&read, &expected)
        );
        Ok(())
    }));
    let _ = std::fs::remove_file(&path);
    match outcome {
        Ok(result) => result,
        Err(_) => Err(TestCaseError::fail(format!(
            "panicked on {mutations:?}: {:?}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(4096)])
        ))),
    }
}

/// Where two outcomes differ, without printing every record: each
/// outcome's counts and errors, and the first record they disagree on.
fn first_difference(read: &Outcome, expected: &Outcome) -> String {
    let summary = |outcome: &Outcome| match outcome {
        Outcome::OpenError(e) => format!("open error {e:?}"),
        Outcome::Opened {
            len,
            dropped,
            passes,
        } => {
            let passes: Vec<_> = passes.iter().map(|(r, e)| (r.len(), e)).collect();
            format!("len {len}, dropped {dropped}, passes {passes:?}")
        }
    };
    let records = |outcome: &Outcome| match outcome {
        Outcome::OpenError(_) => Vec::new(),
        Outcome::Opened { passes, .. } => passes.iter().flat_map(|(r, _)| r.clone()).collect(),
    };
    let (got, want) = (records(read), records(expected));
    let first = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
    format!(
        "read: {}\nreference: {}\nfirst differing record {first:?}: {:?} against {:?}",
        summary(read),
        summary(expected),
        first.and_then(|i| got.get(i)),
        first.and_then(|i| want.get(i)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_csv_traces_replay_or_fail_located(mutations in mutations()) {
        check("replay_trace.csv", &fixture("replay_trace.csv"), &mutations)?;
    }

    #[test]
    fn mutated_jsonl_traces_replay_or_fail_located(mutations in mutations()) {
        check("replay_trace.jsonl", &fixture("replay_trace.jsonl"), &mutations)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn mutated_generated_csv_reads_as_the_reference(mutations in mutations()) {
        check("generated.csv", generated_csv(), &mutations)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn mutated_generated_jsonl_reads_as_the_reference(mutations in mutations()) {
        check("generated.jsonl", generated_jsonl(), &mutations)?;
    }
}
