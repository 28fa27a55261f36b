//! Mutation fuzzing of the trace reader: a file near a valid trace either
//! replays cleanly or ends with a located error, and never panics.
//!
//! Each case applies one to three mutations to a committed fixture,
//! `examples/replay_trace.csv` or `examples/replay_trace.jsonl`: flip or
//! delete a byte, truncate at any byte, duplicate, swap or drop a line,
//! insert a column (CSV) or a key (JSONL), or insert a whitespace or
//! control byte as a line of its own or at a line's start (blank or not,
//! opening and pulling must agree). The mutant is written to a file, so
//! invalid UTF-8 reaches the reader, then opened and drained.
//! The property:
//!
//! * `open` returns `Ok`, or a `TraceError` that names the file;
//! * draining never panics;
//! * a drain that ends with no `error()` yielded exactly `len()` records,
//!   each with a finite, non-negative, non-decreasing release and finite,
//!   positive sizes;
//! * a drain that ends with an error names `file:line`, and never says
//!   the file changed after `open` (opening and pulling agree on it).
//!
//! Cases come from the vendored proptest's fixed per-test seed, in a
//! bounded number.

use mss_workload::{TaskSource, TraceSource};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One mutation: an operation (`0..8`) and its operands, reduced modulo
/// the mutant's current size when applied.
type Mutation = (u8, usize, usize, u8);

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    std::fs::read(path).expect("read fixture")
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..8, 0usize..4096, 0usize..4096, 1u8..=255), 1..4)
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
        3..=7 => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let (i, j) = (a % lines.len(), b % lines.len());
            match op {
                3 => lines.insert(j, lines[i].clone()),
                4 => lines.swap(i, j),
                5 => drop(lines.remove(i)),
                6 => insert_field(&mut lines[i], byte),
                _ => {
                    let space = b" \t\r\x0b\x0c"[usize::from(byte) % 5];
                    if b % 2 == 0 {
                        lines.insert(i, vec![space]);
                    } else {
                        lines[i].insert(0, space);
                    }
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

/// Writes `fixture` mutated by `mutations` to a file named after it and
/// checks the property on it; a panic fails the case with the mutant.
fn check(name: &str, mutations: &[Mutation]) -> Result<(), TestCaseError> {
    let bytes = mutations.iter().fold(fixture(name), |b, &m| mutate(b, m));
    let path: PathBuf =
        std::env::temp_dir().join(format!("mss-trace-fuzz-{}-{name}", std::process::id()));
    std::fs::write(&path, &bytes).expect("write mutant");
    let outcome = catch_unwind(AssertUnwindSafe(|| open_and_drain(&path)));
    let _ = std::fs::remove_file(&path);
    match outcome {
        Ok(result) => result,
        Err(_) => Err(TestCaseError::fail(format!(
            "panicked on {mutations:?}: {:?}",
            String::from_utf8_lossy(&bytes)
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_csv_traces_replay_or_fail_located(mutations in mutations()) {
        check("replay_trace.csv", &mutations)?;
    }

    #[test]
    fn mutated_jsonl_traces_replay_or_fail_located(mutations in mutations()) {
        check("replay_trace.jsonl", &mutations)?;
    }
}
