//! The sharded on-disk result store.
//!
//! Completed cells are appended as JSON lines to one of 16 shard files
//! under the cache directory, keyed by a content hash of the cell plus a
//! code-version salt. Re-running a sweep skips every intact completed cell
//! and resumes interrupted ones.
//!
//! Loading reads each shard as bytes and decides line by line. A line in
//! the scalar frame, the one [`StoreWriter::push`] writes for a completed
//! cell without a telemetry payload,
//!
//! ```text
//! {"key":"…","metrics":{"makespan":…,"max_flow":…,"sum_flow":…,"lb_makespan":…,"ratio_makespan":…,"run_metrics":null},"abort":null}
//! ```
//!
//! is read in one streaming pass over the frame pieces the writer writes,
//! and its numbers go through `serde_json::parse_number`, the vendored
//! parser's own number rule. Any other line (a telemetry payload, an
//! abort, reordered keys, added whitespace, damage) goes to the derived
//! `StoredRecord` reader, which stays the reference for every line.
//! Either way a line loads the same bits or is dropped the same.
//!
//! Loading tolerates torn writes line by line: a line that is not UTF-8
//! (a crash can tear a write inside a character) or does not parse (e.g. a
//! shard truncated mid-record) is dropped and counted in
//! [`LoadedResults::dropped`], and its cell re-runs; every other line of
//! the shard still loads. A missing shard is an empty one. Any other read
//! error — a permission error, a directory where a shard should be — is
//! returned, naming the shard, rather than read as an empty store. Before
//! a store first appends to a shard, it cuts a torn tail (the bytes after
//! the shard's last `\n`, which `load` drops unless they hold a whole
//! record) so the appended record starts a line of its own.
//!
//! Writes go through per-worker [`StoreWriter`] handles: each worker
//! serializes its finished records into its **own** per-shard buffers (no
//! shared lock on the serialization path) and flushes each non-empty
//! buffer to its shard file under that shard's **independent lock** — 16
//! locks instead of one, so two workers only wait on each other when they
//! flush into the *same* shard at the same instant, and every such wait is
//! counted per shard ([`StoreStats::shard_contended`]). Record *lines* are
//! byte-identical for any thread count; with more than one worker only
//! the line order within a shard is scheduling-dependent, and [`load`]
//! (last line wins per key) is insensitive to it — contract #14.
//!
//! [`load`]: ResultStore::load

use crate::cell::{Cell, CellError, CellMetrics};
use mss_obs::StoreStats;
use serde::Deserialize as _;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bump when a change to the simulator/heuristics/workload invalidates
/// previously stored results; old keys then simply never match.
/// v2: the cell schema gained the dynamic-platform `scenario` axis.
/// v3: `PlatformCell::Heterogeneity` gained the `family` replicate index.
/// v4: the cell schema gained the `information` tier axis (and expansion
///     seeds now hash the tier placeholder into the cell identity).
/// v5: stored records gained the machine-readable `abort` tag (and aborted
///     cells are now stored and skipped on resume, not re-run).
/// v6: `CellMetrics` gained the optional `run_metrics` telemetry payload
///     (flow/wait/transfer/compute histograms, per-slave utilization,
///     queue-depth stats).
pub const CODE_VERSION_SALT: &str = "mss-sweep-v6";

/// FNV-1a, 64-bit — stable across platforms and runs — as an
/// [`std::io::Write`] sink, so serialized bytes are hashed as they stream
/// out of `serde_json::to_writer` instead of being collected first.
#[derive(Clone, Copy)]
pub(crate) struct Fnv1a(pub(crate) u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    pub(crate) const BASIS: Fnv1a = Fnv1a(0xcbf2_9ce4_8422_2325);

    #[inline]
    const fn step(self, byte: u8) -> Fnv1a {
        Fnv1a((self.0 ^ byte as u64).wrapping_mul(Self::PRIME))
    }

    const fn fold(mut self, bytes: &[u8]) -> Fnv1a {
        let mut i = 0;
        while i < bytes.len() {
            self = self.step(bytes[i]);
            i += 1;
        }
        self
    }
}

impl std::io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        *self = self.fold(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Both halves of a cell key, fed the canonical JSON in one pass: `lo`
/// hashes the bytes alone, `hi` continues from the basis already folded
/// over `"{CODE_VERSION_SALT}|"`.
struct KeyHasher {
    lo: Fnv1a,
    hi: Fnv1a,
}

impl std::io::Write for KeyHasher {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        // One loop over both states: the two multiply chains overlap.
        for &b in bytes {
            self.lo = self.lo.step(b);
            self.hi = self.hi.step(b);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Content key of a cell: hash of its canonical (compact) JSON plus the
/// salt. 128 hash bits (`hi` = FNV-1a of `"{CODE_VERSION_SALT}|{json}"`,
/// `lo` = FNV-1a of the JSON) keep collisions negligible at experiment
/// scale. The JSON streams into both hashes in one pass and is never
/// held in memory; the key is the same as hashing the whole string.
pub fn cell_key(cell: &Cell) -> String {
    const SALTED: Fnv1a = Fnv1a::BASIS.fold(CODE_VERSION_SALT.as_bytes()).fold(b"|");
    let mut hasher = KeyHasher {
        lo: Fnv1a::BASIS,
        hi: SALTED,
    };
    serde_json::to_writer(&mut hasher, cell).expect("serialize cell");
    let bits = (u128::from(hasher.hi.0) << 64) | u128::from(hasher.lo.0);
    let hex = (0..32)
        .rev()
        .map(|digit| b"0123456789abcdef"[(bits >> (4 * digit)) as usize & 0xf])
        .collect();
    String::from_utf8(hex).expect("hex digits are ASCII")
}

/// One stored line: exactly one of `metrics` (a completed cell) and
/// `abort` (a cell whose simulation legitimately aborted) is set.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct StoredRecord {
    key: String,
    metrics: Option<CellMetrics>,
    abort: Option<CellError>,
}

// The frame of a stored line, in the pieces `StoreWriter::push` writes and
// `read_scalar_line` reads back: `{"key":…,"metrics":…,"abort":…}`, where a
// metrics object without a telemetry payload is `SCALARS` with a number
// after each piece, then `NO_PAYLOAD`. The pieces and their order are
// `StoredRecord`'s and `CellMetrics`' derived serialization (a test pins
// it).
const KEY: &str = "{\"key\":";
const METRICS: &str = ",\"metrics\":";
const SCALARS: [&str; 5] = [
    "{\"makespan\":",
    ",\"max_flow\":",
    ",\"sum_flow\":",
    ",\"lb_makespan\":",
    ",\"ratio_makespan\":",
];
const NO_PAYLOAD: &str = ",\"run_metrics\":null}";
const NO_ABORT: &str = ",\"abort\":null}";
const ABORT: &str = "null,\"abort\":";

/// Reads a line in the scalar frame: a completed cell without a telemetry
/// payload, as [`StoreWriter::push`] writes it, with a key that holds no
/// escape. Numbers are read by `serde_json::parse_number` and converted
/// as the derived reader converts them. `None` for any other line; the
/// derived reader decides those.
fn read_scalar_line(line: &str) -> Option<StoredRecord> {
    let rest = line.strip_prefix(KEY)?.strip_prefix('"')?;
    let (key, rest) = rest.split_at(rest.find(['"', '\\'])?);
    let mut rest = rest.strip_prefix('"')?.strip_prefix(METRICS)?;
    let mut values = [0.0; 5];
    for (piece, value) in SCALARS.iter().zip(&mut values) {
        rest = rest.strip_prefix(piece)?;
        let (number, len) = serde_json::parse_number(rest.as_bytes()).ok()?;
        *value = f64::from_value(&number).ok()?;
        rest = &rest[len..];
    }
    if rest.strip_prefix(NO_PAYLOAD)? != NO_ABORT {
        return None;
    }
    let [makespan, max_flow, sum_flow, lb_makespan, ratio_makespan] = values;
    Some(StoredRecord {
        key: key.to_string(),
        metrics: Some(CellMetrics {
            makespan,
            max_flow,
            sum_flow,
            lb_makespan,
            ratio_makespan,
            run_metrics: None,
        }),
        abort: None,
    })
}

/// One shard's shared state: the lock serializing appends to its file,
/// and how often a flusher found it already held. The lock guards whether
/// this store has checked the file's tail yet.
struct Shard {
    lock: Mutex<bool>,
    contended: AtomicU64,
}

/// Cuts a torn tail off a shard: the bytes after its last `\n`, which a
/// crash left mid-record. `load` drops them already; appended to, they
/// would swallow the next record. (A tail that holds a whole record and
/// lost only its `\n` loads, and is cut too: its cell runs once more.) A
/// shard that ends in `\n` is only checked, by reading its last byte.
fn cut_torn_tail(file: &mut File) -> std::io::Result<()> {
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut last = [0u8];
    file.seek(SeekFrom::Start(len - 1))?;
    file.read_exact(&mut last)?;
    if last == *b"\n" {
        return Ok(());
    }
    let mut body = Vec::new();
    file.rewind()?;
    file.read_to_end(&mut body)?;
    let keep = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    file.set_len(keep as u64)
}

/// Sharded JSONL store rooted at a directory.
pub struct ResultStore {
    dir: PathBuf,
    /// Per-shard file locks + contention counters — 16 independent locks,
    /// so concurrent flushes only serialize per shard.
    shards: Vec<Shard>,
    appends: AtomicU64,
    bytes: AtomicU64,
}

/// Number of shard files (`shard_00.jsonl` … `shard_0f.jsonl`).
const SHARDS: usize = mss_obs::STORE_SHARDS;

impl ResultStore {
    /// Opens (and creates) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            shards: (0..SHARDS)
                .map(|_| Shard {
                    lock: Mutex::new(false),
                    contended: AtomicU64::new(0),
                })
                .collect(),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// I/O statistics accumulated since the store was opened.
    pub fn stats(&self) -> StoreStats {
        let mut shard_contended = [0u64; SHARDS];
        for (slot, shard) in shard_contended.iter_mut().zip(&self.shards) {
            *slot = shard.contended.load(Ordering::Relaxed);
        }
        StoreStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            lock_contended: shard_contended.iter().sum(),
            shard_contended,
        }
    }

    /// A fresh per-worker write handle (its own serialization buffers).
    pub fn writer(&self) -> StoreWriter<'_> {
        StoreWriter {
            store: self,
            bufs: vec![Vec::new(); SHARDS],
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// First hex digit of the key selects the shard.
    fn shard_index(key: &str) -> usize {
        key.as_bytes()
            .first()
            .map(|b| (*b as char).to_digit(16).unwrap_or(0) as usize)
            .unwrap_or(0)
            % SHARDS
    }

    #[cfg(test)]
    fn shard_path(&self, key: &str) -> PathBuf {
        let digit = Self::shard_index(key);
        self.dir.join(format!("shard_{digit:02x}.jsonl"))
    }

    /// Loads every intact record. Corrupt, truncated or non-UTF-8 lines
    /// are counted and skipped — their cells will re-run. A missing shard
    /// reads as empty; any other read error is returned, naming the shard.
    pub fn load(&self) -> std::io::Result<LoadedResults> {
        let mut results = HashMap::new();
        let mut dropped = 0usize;
        for shard in 0..SHARDS {
            let path = self.dir.join(format!("shard_{shard:02x}.jsonl"));
            let body = match std::fs::read(&path) {
                Ok(body) => body,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("{}: {e}", path.display()),
                    ))
                }
            };
            for line in body.split(|&b| b == b'\n') {
                let Ok(line) = std::str::from_utf8(line) else {
                    dropped += 1;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                let record = read_scalar_line(line).or_else(|| serde_json::from_str(line).ok());
                match record {
                    Some(StoredRecord {
                        key,
                        metrics: Some(m),
                        abort: None,
                    }) if m.makespan.is_finite() => {
                        results.insert(key, Ok(m));
                    }
                    Some(StoredRecord {
                        key,
                        metrics: None,
                        abort: Some(e),
                    }) => {
                        results.insert(key, Err(e));
                    }
                    _ => dropped += 1,
                }
            }
        }
        Ok(LoadedResults { results, dropped })
    }

    /// Appends finished cells — completed metrics *or* tagged aborts — to
    /// their shards, through a throwaway [`StoreWriter`]. Convenience for
    /// single-threaded callers and tests; the sweep's workers hold their
    /// own long-lived writers instead.
    pub fn append(
        &self,
        records: &[(String, Result<CellMetrics, CellError>)],
    ) -> std::io::Result<()> {
        let mut writer = self.writer();
        for (key, outcome) in records {
            writer.push(key, outcome);
        }
        writer.flush()
    }
}

/// A per-worker write handle onto a [`ResultStore`].
///
/// `push` serializes a record into the writer's **private** per-shard
/// buffer — no lock, no per-record `String`; the emitted JSONL bytes are
/// identical to serializing a `StoredRecord` with `serde_json::to_string`
/// line by line (a test pins that format), so torn-line recovery semantics
/// are unchanged. `flush` appends each non-empty buffer to its shard file
/// under that shard's own lock, counting contended acquisitions. Buffers
/// keep their capacity across flushes, so a worker's steady state
/// serializes allocation-free.
pub struct StoreWriter<'a> {
    store: &'a ResultStore,
    bufs: Vec<Vec<u8>>,
}

impl StoreWriter<'_> {
    /// Serializes one finished cell into this writer's shard buffer.
    /// `{"key":<key>,"metrics":<M|null>,"abort":<null|A>}` — field order
    /// and float formatting exactly as StoredRecord's derived
    /// serialization (`Option` renders as the value or `null`). Metrics
    /// without a telemetry payload are written piece by piece in the
    /// scalar frame the loader's streaming reader reads.
    pub fn push(&mut self, key: &str, outcome: &Result<CellMetrics, CellError>) {
        let buf = &mut self.bufs[ResultStore::shard_index(key)];
        buf.extend_from_slice(KEY.as_bytes());
        serde_json::to_writer(&mut *buf, key).expect("serialize record key");
        buf.extend_from_slice(METRICS.as_bytes());
        match outcome {
            Ok(m) if m.run_metrics.is_none() => {
                let values = [
                    m.makespan,
                    m.max_flow,
                    m.sum_flow,
                    m.lb_makespan,
                    m.ratio_makespan,
                ];
                for (piece, value) in SCALARS.iter().zip(values) {
                    buf.extend_from_slice(piece.as_bytes());
                    serde_json::to_writer(&mut *buf, &value).expect("serialize record metrics");
                }
                buf.extend_from_slice(NO_PAYLOAD.as_bytes());
                buf.extend_from_slice(NO_ABORT.as_bytes());
            }
            Ok(metrics) => {
                serde_json::to_writer(&mut *buf, metrics).expect("serialize record metrics");
                buf.extend_from_slice(NO_ABORT.as_bytes());
            }
            Err(abort) => {
                buf.extend_from_slice(ABORT.as_bytes());
                serde_json::to_writer(&mut *buf, abort).expect("serialize record abort");
                buf.push(b'}');
            }
        }
        buf.push(b'\n');
    }

    /// Bytes currently buffered and not yet flushed.
    pub fn buffered(&self) -> usize {
        self.bufs.iter().map(Vec::len).sum()
    }

    /// Flushes only when more than `floor` bytes are buffered — the
    /// sweep's workers call this per batch so small batches coalesce into
    /// fewer file appends while large results reach disk (and crash
    /// resumability) promptly.
    pub fn flush_over(&mut self, floor: usize) -> std::io::Result<()> {
        if self.buffered() > floor {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends every non-empty buffer to its shard file, each under that
    /// shard's independent lock (a busy lock is waited on and counted in
    /// [`StoreStats::shard_contended`]). The store's first append to a
    /// shard cuts its torn tail first. Buffers are cleared but keep their
    /// capacity.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let mut wrote = false;
        for (index, buf) in self.bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            wrote = true;
            let shard = &self.store.shards[index];
            let mut checked = match shard.lock.try_lock() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::WouldBlock) => {
                    shard.contended.fetch_add(1, Ordering::Relaxed);
                    shard.lock.lock().expect("store shard lock")
                }
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("store shard lock poisoned"),
            };
            let path = self.store.dir.join(format!("shard_{index:02x}.jsonl"));
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(path)?;
            if !*checked {
                cut_torn_tail(&mut file)?;
                *checked = true;
            }
            file.write_all(buf)?;
            drop(checked);
            self.store
                .bytes
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            buf.clear(); // keep capacity for the next flush
        }
        if wrote {
            self.store.appends.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Result of [`ResultStore::load`].
pub struct LoadedResults {
    /// Intact records by cell key: completed metrics or a tagged abort.
    pub results: HashMap<String, Result<CellMetrics, CellError>>,
    /// Number of corrupt, truncated or non-UTF-8 lines skipped.
    pub dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, PlatformCell};
    use mss_core::{Algorithm, PlatformClass};
    use mss_workload::ArrivalProcess;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mss-sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(i: usize) -> Cell {
        Cell {
            platform: PlatformCell::Class {
                class: PlatformClass::Heterogeneous,
                slaves: 2,
                seed: 1,
                index: i,
            },
            arrival: ArrivalProcess::AllAtZero,
            perturbation: None,
            scenario: None,
            tasks: 5,
            algorithm: Algorithm::Srpt,
            information: mss_core::InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: i as u64,
        }
    }

    fn metrics(v: f64) -> CellMetrics {
        CellMetrics {
            makespan: v,
            max_flow: v,
            sum_flow: v,
            lb_makespan: 1.0,
            ratio_makespan: v,
            run_metrics: None,
        }
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(cell_key(&cell(0)), cell_key(&cell(0)));
        assert_ne!(cell_key(&cell(0)), cell_key(&cell(1)));
        let mut salted = cell(0);
        salted.task_seed += 1;
        assert_ne!(cell_key(&cell(0)), cell_key(&salted));
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let records: Vec<(String, Result<CellMetrics, CellError>)> = (0..40)
            .map(|i| (cell_key(&cell(i)), Ok(metrics(i as f64 + 1.0))))
            .collect();
        store.append(&records).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.results.len(), 40);
        for (key, m) in &records {
            assert_eq!(&loaded.results[key], m);
        }
        let stats = store.stats();
        assert_eq!(stats.appends, 1);
        assert!(stats.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_cells_round_trip_with_kind() {
        let dir = temp_dir("aborts");
        let store = ResultStore::open(&dir).unwrap();
        let err = CellError {
            kind: crate::cell::AbortKind::BudgetExhausted,
            message: "srpt failed on Class: step budget of 55000 exhausted".into(),
        };
        let records: Vec<(String, Result<CellMetrics, CellError>)> = vec![
            (cell_key(&cell(0)), Ok(metrics(2.0))),
            (cell_key(&cell(1)), Err(err.clone())),
        ];
        store.append(&records).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.results[&records[1].0], Err(err));
        assert!(loaded.results[&records[0].0].is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_bytes_match_derived_record_serialization() {
        // The buffered fast path must emit exactly the bytes of serializing
        // a StoredRecord per line — the JSONL format contract that load()
        // and torn-line recovery rest on — for every record shape: with a
        // telemetry payload, in the scalar frame, and an abort.
        let dir = temp_dir("format");
        let store = ResultStore::open(&dir).unwrap();
        let mut with_payload = metrics(12.0625);
        with_payload.max_flow = 0.1;
        with_payload.sum_flow = 1e-3;
        with_payload.lb_makespan = 7.25;
        with_payload.ratio_makespan = 12.0625 / 7.25;
        with_payload.run_metrics = Some({
            let mut h = mss_obs::RunHistograms::default();
            h.flow.observe(3.5);
            h.flow.observe(0.25);
            crate::run_metrics::CellRunMetrics::from_run(&mss_obs::RunMetrics {
                tasks: 2,
                duration: 12.0625,
                hists: h,
                busy_secs: vec![3.75],
                blocked_secs: vec![0.5],
                idle_secs: vec![7.8125],
                recv_secs: vec![0.5],
                queue_depth_secs: 1.25,
                queue_max: 2,
            })
        });
        let ok_rec = (cell_key(&cell(3)), Ok(with_payload));
        let scalar_rec = (cell_key(&cell(4)), Ok(metrics(12.0625)));
        let err_rec = (
            cell_key(&cell(5)),
            Err(CellError {
                kind: crate::cell::AbortKind::Stalled,
                message: "ls \"stalled\"".into(),
            }),
        );
        for rec in [&ok_rec, &scalar_rec, &err_rec] {
            store.append(std::slice::from_ref(rec)).unwrap();
            let body = std::fs::read_to_string(store.shard_path(&rec.0)).unwrap();
            let expected = serde_json::to_string(&StoredRecord {
                key: rec.0.clone(),
                metrics: rec.1.as_ref().ok().cloned(),
                abort: rec.1.as_ref().err().cloned(),
            })
            .unwrap();
            assert!(
                body.contains(&format!("{expected}\n")),
                "shard bytes {body:?} missing derived line {expected:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_metrics_payload_round_trips_through_load() {
        let dir = temp_dir("payload");
        let store = ResultStore::open(&dir).unwrap();
        let mut m = metrics(9.5);
        m.run_metrics = Some({
            let mut h = mss_obs::RunHistograms::default();
            h.flow.observe(1.5);
            h.wait.observe(0.0);
            crate::run_metrics::CellRunMetrics::from_run(&mss_obs::RunMetrics {
                tasks: 1,
                duration: 9.5,
                hists: h,
                busy_secs: vec![4.0, 2.0],
                blocked_secs: vec![1.0, 3.0],
                idle_secs: vec![4.5, 4.5],
                recv_secs: vec![0.5, 0.25],
                queue_depth_secs: 2.0,
                queue_max: 1,
            })
        });
        let records = vec![(cell_key(&cell(0)), Ok(m.clone()))];
        store.append(&records).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.results[&records[0].0], Ok(m));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_line_is_dropped_not_fatal() {
        let dir = temp_dir("truncated");
        let store = ResultStore::open(&dir).unwrap();
        let records: Vec<(String, Result<CellMetrics, CellError>)> = (0..8)
            .map(|i| (cell_key(&cell(i)), Ok(metrics(i as f64 + 1.0))))
            .collect();
        store.append(&records).unwrap();

        // Truncate one shard mid-line, as a crash during append would.
        let shard = (0..16)
            .map(|s| dir.join(format!("shard_{s:02x}.jsonl")))
            .find(|p| p.exists() && std::fs::metadata(p).unwrap().len() > 0)
            .expect("at least one shard written");
        let body = std::fs::read_to_string(&shard).unwrap();
        std::fs::write(&shard, &body[..body.len() - 15]).unwrap();

        let loaded = store.load().unwrap();
        assert_eq!(loaded.dropped, 1, "exactly the torn record drops");
        assert_eq!(loaded.results.len(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_line_drops_alone() {
        let dir = temp_dir("non-utf8");
        let store = ResultStore::open(&dir).unwrap();
        let records: Vec<(String, Result<CellMetrics, CellError>)> = (0..8)
            .map(|i| (format!("0{i:031x}"), Ok(metrics(i as f64 + 1.0))))
            .collect();
        store.append(&records).unwrap();

        // A write torn inside a character leaves a byte that is not UTF-8.
        let shard = store.shard_path(&records[0].0);
        let mut body = std::fs::read(&shard).unwrap();
        body.extend_from_slice(b"{\"key\":\"00\xff");
        std::fs::write(&shard, body).unwrap();

        let loaded = store.load().unwrap();
        assert_eq!(loaded.dropped, 1, "exactly the torn line drops");
        assert_eq!(loaded.results.len(), 8, "the rest of its shard loads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_shard_is_an_error_not_an_empty_store() {
        let dir = temp_dir("unreadable");
        let store = ResultStore::open(&dir).unwrap();
        std::fs::create_dir(dir.join("shard_03.jsonl")).unwrap();
        let err = store
            .load()
            .err()
            .expect("a directory shard fails the load");
        assert!(err.to_string().contains("shard_03.jsonl"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
