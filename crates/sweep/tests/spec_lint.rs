//! Spec lint: every example spec in `examples/*.toml` must parse under the
//! strict reader, and the reader must reject every key it does not know.
//!
//! The spec types deny unknown fields, so their field lists are the
//! schema: an unknown or repeated key is a located error. The lint
//! catches axis/schema drift (e.g. a new spec key like `information`
//! shipped in an example before the schema allows it, or an example left
//! behind by a schema rename) at `cargo test` time; the completeness
//! test renames each example key in turn and expects the reader to name
//! it, so no key of any example is read leniently.

use mss_workload::{TaskSource, TraceFormat, TraceSource};
use std::path::PathBuf;

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// A fresh per-test scratch directory.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mss-spec-lint-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The error of reading `body` as the scenario file `name`.
fn scenario_error(test: &str, name: &str, body: &str) -> String {
    let dir = scratch_dir(test);
    std::fs::write(dir.join(name), body).expect("write scenario file");
    let err = mss_sweep::scenario_from_path(&dir.join(name)).expect_err("scenario is rejected");
    let _ = std::fs::remove_dir_all(&dir);
    err.to_string()
}

#[test]
fn every_example_toml_parses_strictly() {
    let mut seen = 0usize;
    let mut sweep_specs = 0usize;
    for entry in std::fs::read_dir(examples_dir()).expect("examples/ directory exists") {
        let path = entry.expect("read dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // A file is either a sweep spec or a standalone scenario spec; it
        // must parse strictly as one of the two.
        match mss_sweep::spec_from_path(&path) {
            Ok(spec) => {
                sweep_specs += 1;
                let cells = spec
                    .expand()
                    .unwrap_or_else(|e| panic!("{name}: parses but does not expand: {e}"));
                assert!(!cells.is_empty(), "{name}: expands to an empty grid");
            }
            Err(sweep_err) => {
                if let Err(scenario_err) = mss_sweep::scenario_from_path(&path) {
                    panic!(
                        "{name} parses strictly as neither a sweep spec nor a \
                         scenario spec:\n  as sweep spec: {sweep_err}\n  as \
                         scenario spec: {scenario_err}"
                    );
                }
            }
        }
    }
    assert!(
        seen >= 3,
        "expected at least sweep_grid.toml, failure_scenario.toml and \
         oblivious_sweep.toml under examples/, found {seen} TOML files"
    );
    assert!(sweep_specs >= 2, "expected at least two sweep specs");
}

#[test]
fn accepts_the_documented_schema() {
    mss_sweep::spec_from_toml(
        r#"
        name = "ok"
        seed = 1
        tasks = [10]
        algorithms = ["all"]
        [[platforms]]
        kind = "class"
        class = "het"
        [[arrivals]]
        kind = "bag"
        [[perturbations]]
        mode = "linear"
        delta = 0.1
        [[scenarios]]
        kind = "dynamic"
        horizon = 100.0
        [[scenarios.generators]]
        kind = "poisson-failures"
        mtbf = 50.0
        repair_mean = 5.0
        [[scenarios.events]]
        at = 3.0
        slave = 0
        kind = "fail"
        "#,
    )
    .unwrap();
}

#[test]
fn rejects_top_level_typo_with_context() {
    let err = mss_sweep::spec_from_toml("name = \"x\"\nseed = 1\ntasks = [1]\nplatfroms = 2")
        .unwrap_err();
    assert!(err.0.contains("platfroms"), "{err}");
    assert!(err.0.contains("allowed"), "{err}");
}

#[test]
fn rejects_nested_typo_with_location() {
    let err = mss_sweep::spec_from_toml(
        r#"
        name = "x"
        [[platforms]]
        kind = "class"
        clas = "het"
        "#,
    )
    .unwrap_err();
    assert!(err.0.contains("clas"), "{err}");
    assert!(err.0.contains("platforms[0]"), "{err}");
}

#[test]
fn rejects_generator_typo_in_scenario_file() {
    let err = scenario_error(
        "generator-typo",
        "typo.toml",
        r#"
        seed = 1
        horizon = 10.0
        [[generators]]
        kind = "poisson-failures"
        mtfb = 5.0
        "#,
    );
    assert!(err.contains("mtfb"), "{err}");
    assert!(err.contains("generators[0]"), "{err}");
}

#[test]
fn duplicate_keys_in_json_files_are_rejected() {
    let err = mss_sweep::spec_from_json(
        r#"{"name":"x","seed":1,"seed":2,"tasks":[1],"algorithms":["LS"],
            "platforms":[],"arrivals":[]}"#,
    )
    .unwrap_err();
    assert!(err.0.contains("duplicate key `seed`"), "{err}");
    let err = scenario_error(
        "duplicate-key",
        "dup.json",
        r#"{"seed":1,"horizon":10.0,"horizon":20.0}"#,
    );
    assert!(err.contains("duplicate key `horizon`"), "{err}");
    let trace = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                 {\"release\": 1.0, \"size_c\": 1.0, \"size_c\": 2.0, \"size_p\": 1.0}\n";
    let err = TraceSource::from_str(trace, TraceFormat::Jsonl, "t.jsonl").unwrap_err();
    assert!(err.0.contains("duplicate key `size_c`"), "{err}");
    assert!(err.0.contains("t.jsonl:2"), "{err}");
}

#[test]
fn a_type_error_names_its_array_entry() {
    let err = mss_sweep::spec_from_toml(
        r#"
        name = "x"
        seed = 1
        tasks = [10]
        algorithms = ["LS"]
        [[platforms]]
        kind = "class"
        count = 2
        [[platforms]]
        kind = "class"
        count = "ten"
        [[arrivals]]
        kind = "bag"
        "#,
    )
    .unwrap_err();
    assert!(err.0.contains("platforms[1].count"), "{err}");
}

#[test]
fn file_errors_name_the_file_and_its_kind() {
    let err = scenario_error(
        "file-kind",
        "bad_mtbf.toml",
        "seed = 1\nhorizon = 10.0\n[[generators]]\nkind = \"poisson-failures\"\nmtbf = \"often\"\n",
    );
    assert!(err.starts_with("invalid scenario: "), "{err}");
    assert!(err.contains("bad_mtbf.toml: generators[0].mtbf"), "{err}");
    let path = scratch_dir("file-kind").join("bad_seed.json");
    std::fs::write(&path, r#"{"name":"x","seed":"one"}"#).expect("write spec file");
    let err = mss_sweep::spec_from_path(&path).unwrap_err().to_string();
    let _ = std::fs::remove_dir_all(scratch_dir("file-kind"));
    assert!(err.starts_with("invalid sweep spec: "), "{err}");
    assert!(err.contains("bad_seed.json: seed"), "{err}");
}

/// The key of a `key = value` line, if the line is one.
fn toml_key(line: &str) -> Option<&str> {
    let (key, _) = line.split_once('=')?;
    let key = key.trim();
    let is_key = !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    (is_key && !line.trim_start().starts_with('#')).then_some(key)
}

#[test]
fn every_example_key_is_checked() {
    let dir = scratch_dir("rename");
    for entry in std::fs::read_dir(examples_dir()).expect("examples/ directory exists") {
        let path = entry.expect("read dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        // A file that is no sweep spec is a scenario file.
        let sweep = mss_sweep::spec_from_path(&path).is_ok();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read example");
        let lines: Vec<&str> = text.lines().collect();
        let mut renamed = 0usize;
        for (i, line) in lines.iter().enumerate() {
            let Some(key) = toml_key(line) else { continue };
            let typo = format!("{key}_typo");
            let mut mutated = lines.clone();
            let renamed_line = line.replacen(key, &typo, 1);
            mutated[i] = &renamed_line;
            let copy = dir.join(&name);
            std::fs::write(&copy, mutated.join("\n")).expect("write mutated example");
            let err = if sweep {
                mss_sweep::spec_from_path(&copy)
                    .err()
                    .map(|e| e.to_string())
            } else {
                mss_sweep::scenario_from_path(&copy)
                    .err()
                    .map(|e| e.to_string())
            };
            let err = err.unwrap_or_else(|| panic!("{name}:{}: `{typo}` is accepted", i + 1));
            assert!(
                err.contains(&format!("`{typo}`")),
                "{name}:{}: {err}",
                i + 1
            );
            renamed += 1;
        }
        assert!(renamed > 0, "{name}: no `key = value` line found");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let trace = std::fs::read_to_string(examples_dir().join("replay_trace.jsonl"))
        .expect("read replay_trace.jsonl");
    let (first, rest) = trace.split_once('\n').expect("more than one record");
    let record = serde_json::parse_value(first).expect("the first record is JSON");
    for (key, _) in record.as_object().expect("the first record is an object") {
        let quoted = format!("\"{key}\"");
        let typo = format!("{key}_typo");
        let body = format!(
            "{}\n{rest}",
            first.replacen(&quoted, &format!("\"{typo}\""), 1)
        );
        // Only the last record is read at open; the first fails its pull.
        let mut source = TraceSource::from_str(&body, TraceFormat::Jsonl, "replay_trace.jsonl")
            .expect("the trace opens");
        assert!(
            source.next_task().is_none(),
            "renamed trace key is rejected"
        );
        let err = source.error().expect("the first pull fails");
        assert!(err.contains(&format!("unknown key `{typo}`")), "{err}");
        assert!(err.contains("replay_trace.jsonl:1"), "{err}");
    }
}
