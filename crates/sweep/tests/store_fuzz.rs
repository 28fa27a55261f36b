//! Mutation fuzzing of the result-store loader: a shard near one the
//! writer wrote loads exactly what the derived reader reads from it, line
//! by line, and loading never panics.
//!
//! The seed shard holds the lines `StoreWriter::push` writes for a cell
//! in the scalar frame, a cell with a telemetry payload, and an abort.
//! Each case applies one to three mutations to it: flip, delete or insert
//! a byte; truncate at any byte; duplicate or swap lines; reorder a
//! line's keys, at the top level or inside `metrics`; insert whitespace;
//! or replace a number with `-0`, `01`, `1e400`, `NaN`, `inf`, `+1` or
//! `.5`. The mutant is written to a shard file, so invalid UTF-8 reaches
//! `load`. The property:
//!
//! * `load` never panics;
//! * it loads what the reference loads: every line that is UTF-8 and not
//!   blank, read by the derived `Deserialize` of the stored line's schema,
//!   last line winning per key, a completed cell needing a finite
//!   makespan, and every other line counted as dropped. Same keys, same
//!   bits, same `dropped`;
//! * an unmutated line that is its key's last readable line loads the
//!   record that was pushed.
//!
//! The vendored grammar rejects `NaN`, `inf`, `+1` and `.5`, which
//! `str::parse::<f64>` accepts, and reads the integer token `-0` as +0.0,
//! so a loader that read the scalar frame's numbers with a bare
//! `str::parse` would fail here.
//!
//! Cases come from the vendored proptest's fixed per-test seed, in a
//! bounded number.

use mss_obs::{RunHistograms, RunMetrics};
use mss_sweep::{AbortKind, CellError, CellMetrics, CellRunMetrics, ResultStore};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::Value;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One mutation: an operation (`0..9`) and its operands, reduced modulo
/// the mutant's current size when applied.
type Mutation = (u8, usize, usize, u8);

type Outcome = Result<CellMetrics, CellError>;

/// The stored line's schema, read by its derived `Deserialize`.
#[derive(serde::Deserialize)]
struct Line {
    key: String,
    metrics: Option<CellMetrics>,
    abort: Option<CellError>,
}

/// The numbers a replacement writes, each one the two readers could
/// disagree on.
const NUMBERS: [&str; 7] = ["-0", "01", "1e400", "NaN", "inf", "+1", ".5"];

/// The seed records: a completed cell in the scalar frame, one with a
/// telemetry payload, and an abort. The keys share shard 0.
fn seed_records() -> Vec<(String, Outcome)> {
    let scalar = CellMetrics {
        makespan: 12.0625,
        max_flow: 0.1,
        sum_flow: 1e-3,
        lb_makespan: 7.0,
        ratio_makespan: 12.0625 / 7.0,
        run_metrics: None,
    };
    let mut hists = RunHistograms::default();
    for v in [3.5, 0.25, 1e-9] {
        hists.flow.observe(v);
        hists.compute.observe(v / 2.0);
    }
    let payload = CellMetrics {
        run_metrics: Some(CellRunMetrics::from_run(&RunMetrics {
            tasks: 3,
            duration: 12.0625,
            hists,
            busy_secs: vec![3.75, 2.0],
            blocked_secs: vec![0.5, 0.0],
            idle_secs: vec![7.8125, 1e-300],
            recv_secs: vec![0.5, 0.25],
            queue_depth_secs: 1.25,
            queue_max: 2,
        })),
        ..scalar.clone()
    };
    let abort = CellError {
        kind: AbortKind::BudgetExhausted,
        message: "ls failed: step budget of 55000 exhausted".into(),
    };
    vec![
        ("0123456789abcdef0123456789abcdef".into(), Ok(scalar)),
        ("0fedcba9876543210fedcba987654321".into(), Ok(payload)),
        ("00000000000000000000000000000001".into(), Err(abort)),
    ]
}

/// A fresh store directory for `tag`.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mss-store-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The seed: the shard the writer wrote for [`seed_records`], its lines,
/// and the records in the same order.
struct Seed {
    shard: Vec<u8>,
    lines: Vec<Vec<u8>>,
    records: Vec<(String, Outcome)>,
}

fn seed() -> &'static Seed {
    static SEED: OnceLock<Seed> = OnceLock::new();
    SEED.get_or_init(|| {
        let records = seed_records();
        let dir = store_dir("seed");
        let store = ResultStore::open(&dir).expect("open seed store");
        store.append(&records).expect("append seed records");
        let shard = std::fs::read(dir.join("shard_00.jsonl")).expect("read seed shard");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<Vec<u8>> = shard
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        assert_eq!(lines.len(), records.len(), "one line per pushed record");
        Seed {
            shard,
            lines,
            records,
        }
    })
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..9, 0usize..4096, 0usize..4096, 1u8..=255), 1..4)
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
        2 => bytes.insert(a % (bytes.len() + 1), byte),
        3 => bytes.truncate(a % (bytes.len() + 1)),
        4 => {
            let space = b" \t\r\n"[usize::from(byte) % 4];
            bytes.insert(a % (bytes.len() + 1), space);
        }
        5..=8 => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let (i, j) = (a % lines.len(), b % lines.len());
            match op {
                5 => lines.insert(j, lines[i].clone()),
                6 => lines.swap(i, j),
                7 => reorder_keys(&mut lines[i], b),
                _ => replace_number(&mut lines[i], b, byte),
            }
            bytes = lines.join(&b'\n');
        }
        _ => {}
    }
    bytes
}

/// Rotates the keys of a line that parses as an object, at the top level
/// (`turn` even) or inside its `metrics` object (`turn` odd).
fn reorder_keys(line: &mut Vec<u8>, turn: usize) {
    let Some(Value::Object(mut entries)) = std::str::from_utf8(line)
        .ok()
        .and_then(|text| serde_json::parse_value(text).ok())
    else {
        return;
    };
    let target = if turn.is_multiple_of(2) {
        Some(&mut entries)
    } else {
        entries.iter_mut().find_map(|(key, value)| match value {
            Value::Object(inner) if key == "metrics" => Some(inner),
            _ => None,
        })
    };
    if let Some(target) = target {
        if !target.is_empty() {
            let shift = turn / 2 % target.len();
            target.rotate_left(shift);
        }
    }
    *line = serde_json::to_string(&Value::Object(entries))
        .expect("serialize reordered line")
        .into_bytes();
}

/// Replaces the `pick`-th number of a line (one that follows `:`, `,` or
/// `[`) with one of [`NUMBERS`].
fn replace_number(line: &mut Vec<u8>, pick: usize, which: u8) {
    let starts: Vec<usize> = (1..line.len())
        .filter(|&i| {
            matches!(line[i - 1], b':' | b',' | b'[') && matches!(line[i], b'-' | b'0'..=b'9')
        })
        .collect();
    if starts.is_empty() {
        return;
    }
    let start = starts[pick % starts.len()];
    let len = line[start..]
        .iter()
        .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        .count();
    let number = NUMBERS[usize::from(which) % NUMBERS.len()];
    line.splice(start..start + len, number.bytes());
}

/// What `load` must return for `bytes`, read line by line with the
/// derived reader: per key, the outcome and the index of the line it came
/// from; and the number of dropped lines.
fn reference(bytes: &[u8]) -> (HashMap<String, (usize, Outcome)>, usize) {
    let mut results = HashMap::new();
    let mut dropped = 0;
    for (index, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let Ok(line) = std::str::from_utf8(line) else {
            dropped += 1;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Line>(line) {
            Ok(Line {
                key,
                metrics: Some(m),
                abort: None,
            }) if m.makespan.is_finite() => {
                results.insert(key, (index, Ok(m)));
            }
            Ok(Line {
                key,
                metrics: None,
                abort: Some(e),
            }) => {
                results.insert(key, (index, Err(e)));
            }
            _ => dropped += 1,
        }
    }
    (results, dropped)
}

/// An outcome with every float as its exact bits: `Debug` prints the
/// shortest string that reads back to the same bits, `-0.0` and `inf`
/// included.
fn bits(outcome: &Outcome) -> String {
    format!("{outcome:?}")
}

/// Writes `bytes` as shard 0 of the store in `dir`, loads it and checks
/// the property.
fn load_and_compare(dir: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(dir.join("shard_00.jsonl"), bytes).expect("write mutant");
    let store = ResultStore::open(dir).expect("open mutant store");
    let loaded = store.load().expect("a shard file always reads");
    let (expected, dropped) = reference(bytes);
    prop_assert_eq!(loaded.dropped, dropped, "dropped lines");
    let mut got: Vec<(&String, String)> =
        loaded.results.iter().map(|(k, r)| (k, bits(r))).collect();
    let mut want: Vec<(&String, String)> =
        expected.iter().map(|(k, (_, r))| (k, bits(r))).collect();
    got.sort();
    want.sort();
    prop_assert_eq!(got, want, "loaded records");
    let seed = seed();
    for (index, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let Some(at) = seed.lines.iter().position(|l| l == line) else {
            continue;
        };
        let (key, pushed) = &seed.records[at];
        if expected.get(key).is_some_and(|(last, _)| *last == index) {
            prop_assert_eq!(
                bits(&loaded.results[key]),
                bits(pushed),
                "unmutated line of {}",
                key
            );
        }
    }
    Ok(())
}

/// Checks the property on the seed mutated by `mutations`; a panic fails
/// the case, and a failure names the mutant.
fn check(mutations: &[Mutation]) -> Result<(), TestCaseError> {
    let bytes = mutations
        .iter()
        .fold(seed().shard.clone(), |b, &m| mutate(b, m));
    let dir = store_dir("mutant");
    std::fs::create_dir_all(&dir).expect("create store dir");
    let outcome = catch_unwind(AssertUnwindSafe(|| load_and_compare(&dir, &bytes)));
    let _ = std::fs::remove_dir_all(&dir);
    let failure = match outcome {
        Ok(Ok(())) => return Ok(()),
        Ok(Err(e)) => e.to_string(),
        Err(_) => "panicked".to_string(),
    };
    Err(TestCaseError::fail(format!(
        "{failure} on {mutations:?}: {:?}",
        String::from_utf8_lossy(&bytes)
    )))
}

#[test]
fn the_unmutated_shard_round_trips() {
    let dir = store_dir("unmutated");
    std::fs::create_dir_all(&dir).expect("create store dir");
    std::fs::write(dir.join("shard_00.jsonl"), &seed().shard).expect("write seed shard");
    let loaded = ResultStore::open(&dir).unwrap().load().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(loaded.dropped, 0);
    assert_eq!(loaded.results.len(), 3);
    for (key, pushed) in &seed().records {
        assert_eq!(bits(&loaded.results[key]), bits(pushed), "{key}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_shards_load_what_the_derived_reader_reads(mutations in mutations()) {
        check(&mutations)?;
    }
}
