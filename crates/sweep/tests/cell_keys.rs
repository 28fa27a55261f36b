//! Cell keys are the result store's on-disk identity: a key that changes
//! without a `CODE_VERSION_SALT` bump silently turns every existing store
//! into misses. The hex values below were recorded from the serializer
//! that wrote the stores in use today; any change to how a cell serializes
//! or hashes must keep reproducing them byte for byte.

use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_scenario::ScenarioSpec;
use mss_sweep::{cell_key, spec_from_path, Cell, PerturbCell, PlatformCell, ScenarioCell};
use mss_workload::ArrivalProcess;
use std::path::PathBuf;

/// `(spec file under examples/, key of its first cell, key of its last)`.
const EXAMPLE_KEYS: [(&str, &str, &str); 3] = [
    (
        "oblivious_sweep.toml",
        "08795e85bad4e6d2349e8ed7ca341f1b",
        "76d85caa9b080662235ce357b7482a61",
    ),
    (
        "sweep_grid.toml",
        "361ae67b746bcdb3c3d0d6d66aafcd9a",
        "506cd59b4f1f97561cf34ad46b06c09b",
    ),
    // A one-cell spec: its first cell is its last.
    (
        "trace_smoke.toml",
        "2bf5a003221c97c2f1ea6fdf01d51dd5",
        "2bf5a003221c97c2f1ea6fdf01d51dd5",
    ),
];

#[test]
fn example_spec_keys_are_pinned() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    for (file, first, last) in EXAMPLE_KEYS {
        let cells = spec_from_path(&examples.join(file))
            .and_then(|spec| spec.expand())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(cell_key(&cells[0]), first, "{file}: first cell");
        assert_eq!(cell_key(&cells[cells.len() - 1]), last, "{file}: last cell");
    }
}

fn base_cell() -> Cell {
    Cell {
        platform: PlatformCell::Class {
            class: PlatformClass::Heterogeneous,
            slaves: 5,
            seed: 42,
            index: 3,
        },
        arrival: ArrivalProcess::AllAtZero,
        perturbation: None,
        scenario: None,
        tasks: 100,
        algorithm: Algorithm::Srpt,
        information: InfoTier::Clairvoyant,
        replicate: 0,
        task_seed: 7,
    }
}

/// Floats at the edges of the writer's formatting rules: negative zero,
/// inexact decimals, a value `Display` writes without an exponent, and
/// integral values below and at or above 1e15 (only the former keep `.0`).
fn float_cell() -> Cell {
    Cell {
        platform: PlatformCell::Explicit {
            c: vec![-0.0, 0.1, 1e-7, 4.0, 1e15, 1e20],
            p: vec![2.5, 1e14, 123456.789],
        },
        arrival: ArrivalProcess::Poisson { load: 1.2 },
        perturbation: Some(PerturbCell {
            delta: 0.1,
            comm_exponent: 2.0,
            comp_exponent: 3.0,
            seed: u64::MAX,
        }),
        task_seed: u64::MAX,
        replicate: u64::MAX,
        ..base_cell()
    }
}

/// A scenario name with every escaping rule the writer applies, plus
/// text it must pass through untouched.
fn escape_cell() -> Cell {
    Cell {
        scenario: Some(ScenarioCell {
            spec: ScenarioSpec {
                name: Some("q\"b\\n\nt\tc\u{1}d\u{7f} ρ=1.2 – é".into()),
                seed: 9,
                horizon: Some(300.0),
                min_up: Some(1),
                events: None,
                generators: None,
            },
            fault_aware: true,
        }),
        information: InfoTier::SpeedOblivious,
        algorithm: Algorithm::Sljfwc,
        ..base_cell()
    }
}

#[test]
fn float_and_escape_keys_are_pinned() {
    let pinned = [
        (base_cell(), "a4b893dc98e0052f1370af25d1051834"),
        (float_cell(), "1890ed47abba8a5337ecec6249e4701a"),
        (escape_cell(), "c8bb1e10226e83c6ec08e578d15ae0d7"),
    ];
    for (i, (cell, key)) in pinned.iter().enumerate() {
        assert_eq!(cell_key(cell), *key, "hand-built cell {i}");
    }
}

#[test]
fn canonical_json_writes_floats_and_escapes_as_pinned() {
    let floats = serde_json::to_string(&float_cell()).unwrap();
    assert!(
        floats.contains(
            r#"{"Explicit":{"c":[-0.0,0.1,0.0000001,4.0,1000000000000000,100000000000000000000],"p":[2.5,100000000000000.0,123456.789]}}"#
        ),
        "{floats}"
    );
    assert!(
        floats.contains(r#""seed":18446744073709551615}"#),
        "{floats}"
    );
    // DEL (U+007F) and non-ASCII text pass through unescaped.
    let escaped = serde_json::to_string(&escape_cell()).unwrap();
    assert!(
        escaped.contains("\"name\":\"q\\\"b\\\\n\\nt\\tc\\u0001d\u{7f} ρ=1.2 – é\""),
        "{escaped}"
    );
}
