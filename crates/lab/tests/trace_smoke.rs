//! The Chrome-trace export contract, checked on cell 0 of the small faulty
//! reference scenario that `ms-lab trace examples/trace_smoke.toml --cell 0`
//! exports: the JSON parses and holds events, every event is well-formed,
//! complete spans never overlap within one (pid, tid) track, and the
//! counter tracks a viewer plots (master queue depth, in-flight sends)
//! carry numeric series.

use mss_lab::profile::trace_cell;
use mss_sweep::spec_from_toml;
use serde::Value;
use std::collections::BTreeMap;

/// The value of `key` in a JSON object.
fn get<'a>(event: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    event.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number as `f64`.
fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_smoke.toml"
    );
    let spec = spec_from_toml(&std::fs::read_to_string(path).expect("read spec")).unwrap();
    let outcome = trace_cell(&spec, 0).unwrap();
    let doc = serde_json::parse_value(&outcome.json).expect("trace JSON parses");

    let Value::Object(root) = &doc else {
        panic!("trace root is not an object");
    };
    let Some(Value::Array(events)) = get(root, "traceEvents") else {
        panic!("trace has no `traceEvents` array");
    };
    assert!(!events.is_empty(), "trace has no events");

    // (pid, tid) -> [start, end) of its complete spans.
    let mut tracks: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counters: BTreeMap<String, usize> = BTreeMap::new();
    for e in events {
        let Value::Object(e) = e else {
            panic!("event is not an object: {e:?}");
        };
        let Some(Value::Str(ph)) = get(e, "ph") else {
            panic!("event without a phase: {e:?}");
        };
        match ph.as_str() {
            "X" => {
                let (Some(ts), Some(dur)) = (number(get(e, "ts")), number(get(e, "dur"))) else {
                    panic!("span without numeric ts/dur: {e:?}");
                };
                assert!(dur >= 0.0, "negative duration: {e:?}");
                let (Some(pid), Some(tid)) = (number(get(e, "pid")), number(get(e, "tid"))) else {
                    panic!("span without numeric pid/tid: {e:?}");
                };
                tracks
                    .entry((pid.to_bits(), tid.to_bits()))
                    .or_default()
                    .push((ts, ts + dur));
            }
            "i" => {
                assert!(number(get(e, "ts")).is_some(), "instant without ts: {e:?}");
            }
            "C" => {
                // Counter samples may share timestamps and never join the
                // span-overlap check; their args must be numeric series.
                assert!(number(get(e, "ts")).is_some(), "counter without ts: {e:?}");
                let Some(Value::Object(args)) = get(e, "args") else {
                    panic!("counter without args: {e:?}");
                };
                assert!(
                    !args.is_empty() && args.iter().all(|(_, v)| number(Some(v)).is_some()),
                    "counter without numeric series: {e:?}"
                );
                let Some(Value::Str(name)) = get(e, "name") else {
                    panic!("counter without a name: {e:?}");
                };
                *counters.entry(name.clone()).or_default() += 1;
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}: {e:?}"),
        }
    }

    assert!(!tracks.is_empty(), "no complete spans in trace");
    for ((pid, tid), spans) in &mut tracks {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in spans.windows(2) {
            let ((s0, e0), (s1, _)) = (w[0], w[1]);
            assert!(
                s1 >= e0 - 1e-6,
                "overlapping spans on track ({}, {}): [{s0}, {e0}) then start {s1}",
                f64::from_bits(*pid),
                f64::from_bits(*tid)
            );
        }
    }
    for name in ["master queue depth", "in-flight sends"] {
        assert!(
            counters.get(name).is_some_and(|&n| n > 0),
            "missing counter track {name:?}"
        );
    }
}
