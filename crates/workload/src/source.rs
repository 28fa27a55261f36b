//! Pull-based task sources: generated and trace-replay.
//!
//! Every engine run (`mss_sim::Simulation`) pulls arrivals one at a time
//! from a [`TaskSource`], so a million-task instance never has to exist in
//! memory at once. An instance already in memory is pulled through
//! `mss_sim::SliceSource`; this module provides the two lazy
//! implementations the lab uses:
//!
//! * [`GeneratedSource`] — lazily drives the existing [`ArrivalProcess`]
//!   and [`Perturbation`] samplers in per-task lockstep, yielding exactly
//!   the sequence `process.generate(..)` + `perturbation.apply(..)` would
//!   materialize (same RNG draws, same arithmetic, same order);
//! * [`TraceSource`] — replays a CSV or JSONL cluster trace from disk,
//!   parsing each record once, as it is pulled. The source owns one
//!   16 KiB read buffer and one line finder, which searches it for `\n`
//!   8 bytes at a time; opening and pulling both walk the file with it,
//!   and each line is read where it lies in the buffer, never copied out.
//!   Opening checks the CSV header and counts the records; each pull
//!   checks its record: a strict schema (an unknown or repeated column or
//!   key is a `file:line` error; a JSONL line is read as a derived
//!   `#[serde(deny_unknown_fields)]` record, as spec files are), valid
//!   values and sortedness. A pull that fails ends the stream with a
//!   located [`TaskSource::error`], which the engine reports as the run's
//!   error. A torn final line is dropped at open (like the sweep result
//!   store).
//!
//! Both are seed-deterministic and resumable: [`TaskSource::reset`]
//! rewinds to an identical replay, so replaying one instance under several
//! schedulers re-instantiates or resets the source per run instead of
//! cloning a stream.

use crate::arrivals::ArrivalProcess;
use crate::perturbation::Perturbation;
use mss_core::{Platform, TaskArrival, TaskSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fs::File;
use std::io::{self, Cursor, Read, Seek, SeekFrom};
use std::path::Path;

/// A trace file failed validation (strict schema, sortedness, or format).
///
/// The message names the offending value, its location (`file:line`), and
/// what was expected — same convention as the sweep spec parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// GeneratedSource
// ---------------------------------------------------------------------------

/// A [`TaskSource`] that drives the arrival and perturbation samplers
/// lazily, one task at a time.
///
/// Both samplers draw exactly one random number per task in task order, so
/// replaying them in per-task lockstep yields the *bit-identical* sequence
/// the batch path materializes:
///
/// ```text
/// ArrivalProcess::generate(n, platform, seed)        // one draw per task
///   → Perturbation::apply(&tasks, perturbation_seed) // one draw per task
/// ```
///
/// The platform only contributes its [`system
/// throughput`](Platform::system_throughput) (to fix the inter-arrival
/// gap), captured at construction — the source does not hold on to the
/// platform.
///
/// ```
/// use mss_core::TaskSource;
/// use mss_workload::{ArrivalProcess, GeneratedSource, Perturbation};
/// use mss_core::Platform;
///
/// let platform = Platform::from_vectors(&[0.5, 0.5], &[2.0, 2.0]);
/// let process = ArrivalProcess::Poisson { load: 0.9 };
/// let perturbation = Perturbation::linear(0.1);
///
/// // Materialized path …
/// let batch = perturbation.apply(&process.generate(100, &platform, 7), 11);
/// // … and the streamed path, element for element.
/// let mut source = GeneratedSource::new(process, 100, &platform, 7)
///     .with_perturbation(perturbation, 11);
/// let streamed: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
/// assert_eq!(batch, streamed);
/// ```
#[derive(Clone, Debug)]
pub struct GeneratedSource {
    process: ArrivalProcess,
    n: usize,
    /// Mean inter-arrival gap (unused by `AllAtZero`).
    gap: f64,
    arrival_seed: u64,
    perturbation: Option<(Perturbation, u64)>,
    // --- replay state ---
    emitted: usize,
    clock: f64,
    arrival_rng: StdRng,
    perturb_rng: StdRng,
}

impl GeneratedSource {
    /// A source yielding the same `n` tasks as
    /// `process.generate(n, platform, seed)`.
    pub fn new(process: ArrivalProcess, n: usize, platform: &Platform, seed: u64) -> Self {
        let gap = match process {
            ArrivalProcess::AllAtZero => 0.0,
            ArrivalProcess::UniformStream { load } | ArrivalProcess::Poisson { load } => {
                ArrivalProcess::gap(load, platform)
            }
        };
        GeneratedSource {
            process,
            n,
            gap,
            arrival_seed: seed,
            perturbation: None,
            emitted: 0,
            clock: 0.0,
            arrival_rng: StdRng::seed_from_u64(seed),
            perturb_rng: StdRng::seed_from_u64(0),
        }
    }

    /// Adds the per-task size jitter `perturbation.apply(.., seed)` would
    /// produce, drawn in the same lockstep.
    pub fn with_perturbation(mut self, perturbation: Perturbation, seed: u64) -> Self {
        self.perturbation = Some((perturbation, seed));
        self.perturb_rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl TaskSource for GeneratedSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        if self.emitted >= self.n {
            return None;
        }
        let i = self.emitted;
        // One draw per task, in task order — the same arithmetic as the
        // batch sampler, so the sequence is bit-identical.
        let mut task = match self.process {
            ArrivalProcess::AllAtZero => TaskArrival::at(0.0),
            ArrivalProcess::UniformStream { .. } => TaskArrival::at(i as f64 * self.gap),
            ArrivalProcess::Poisson { .. } => {
                // Inverse-CDF exponential with mean `gap`.
                let u: f64 = self.arrival_rng.gen_range(f64::EPSILON..1.0);
                self.clock += -self.gap * u.ln();
                TaskArrival::at(self.clock)
            }
        };
        if let Some((p, _)) = self.perturbation {
            let f: f64 = self.perturb_rng.gen_range(1.0 - p.delta..=1.0 + p.delta);
            task.size_c *= f.powf(p.comm_exponent);
            task.size_p *= f.powf(p.comp_exponent);
        }
        self.emitted += 1;
        Some(task)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.n)
    }

    fn reset(&mut self) {
        self.emitted = 0;
        self.clock = 0.0;
        self.arrival_rng = StdRng::seed_from_u64(self.arrival_seed);
        self.perturb_rng = StdRng::seed_from_u64(self.perturbation.map(|(_, s)| s).unwrap_or(0));
    }
}

// ---------------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------------

/// On-disk trace format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Comma-separated with a mandatory `release,size_c,size_p` header
    /// (any column order).
    Csv,
    /// One JSON object per line with exactly the keys `release`, `size_c`,
    /// `size_p`.
    Jsonl,
}

/// The fields a trace record carries, in canonical order.
const TRACE_FIELDS: [&str; 3] = ["release", "size_c", "size_p"];

/// Read-buffer size for a trace file: all a trace source holds of its
/// file, unless one line is longer.
const READ_BUF: usize = 16 * 1024;

/// A [`TaskSource`] replaying a cluster trace from a CSV or JSONL file.
///
/// Each record line is parsed once per pass, as it is pulled. The source
/// holds one read buffer of its file (16 KiB; it grows only for a line
/// longer than that) and refills it with one read call at a time. One
/// line finder serves opening and pulling: it searches the buffer for the
/// next `\n` 8 bytes at a time and lends the line out where it lies,
/// without its terminator and trailing `\r`s. A line that runs past the
/// buffer's end moves to the front before the refill, so every line is
/// one slice of the buffer and no line is copied out. A line of ASCII
/// whitespace only is blank and skipped.
///
/// * **opening** walks the file without parsing its records. It checks
///   the format and the CSV header (an unknown, repeated or missing column
///   is a `file:line` error, the same convention as the spec parser) and
///   counts the record lines, so [`len`](Self::len) is exact before the
///   first pull. Of the records it parses only the last, for the
///   **torn-line rule**: a final line that fails to *parse* (a write torn
///   by a crash) is dropped and counted in [`dropped`](Self::dropped),
///   exactly like the sweep's JSONL result store;
/// * **pulling** reads lines up to the next record line and parses it in
///   the buffer. A CSV record's two commas are found with the same word
///   search, the line is checked as UTF-8 once, and each trimmed cell goes
///   to `f64::from_str`; a JSONL line is read as a derived
///   `#[serde(deny_unknown_fields)]` record, so an unknown or repeated key
///   is a located error. Either way the record is checked: a finite,
///   non-negative release and finite, positive sizes, and **sortedness**
///   (releases must be non-decreasing: the trace *is* the release order).
///
/// A pull that fails ends the stream: a line that breaks a check, a
/// malformed line before the last (corruption, not a torn write), or a
/// file that ends before or runs past the records counted at open (it
/// changed after `open`). `next_task` then returns `None` and
/// [`TaskSource::error`] gives the reason, located at `file:line`; the
/// engine ends the run with a `SimError::InvalidTask` naming the task it
/// was pulling. An I/O error is located at the line it was reading. The
/// file stays open: [`TaskSource::reset`] rewinds it and clears the error.
#[derive(Debug)]
pub struct TraceSource {
    lines: LineReader,
    parser: TraceParser,
    /// Records a pass yields: the record lines counted at open, less a
    /// dropped torn line.
    tasks: usize,
    /// Torn trailing lines dropped at open (0 or 1).
    dropped: usize,
    pass: Pass,
    line_no: usize,
    emitted: usize,
    /// Why the pass ended early, if it did.
    error: Option<String>,
}

/// A seekable trace input: its file, or in-memory text.
trait Input: Read + Seek + fmt::Debug {}

impl<T: Read + Seek + fmt::Debug> Input for T {}

/// The lines of a trace input, each found in the one read buffer the
/// reader owns and lent out where it lies.
#[derive(Debug)]
struct LineReader {
    input: Box<dyn Input>,
    /// `buf[pos..end]` is read from the input and not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The input offset of `buf[0]`.
    base: u64,
}

impl LineReader {
    fn new(input: Box<dyn Input>) -> Self {
        LineReader {
            input,
            buf: vec![0; READ_BUF],
            pos: 0,
            end: 0,
            base: 0,
        }
    }

    /// The input offset of the next line.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Moves to input offset `at`; the next line is read from there.
    fn seek(&mut self, at: u64) -> io::Result<()> {
        self.input.seek(SeekFrom::Start(at))?;
        (self.pos, self.end, self.base) = (0, 0, at);
        Ok(())
    }

    /// The next line, without its `\n` and trailing `\r`s; `None` at the
    /// end of input. A line that runs past the buffer's end moves to the
    /// front before the refill, and the buffer grows only when the line
    /// fills it.
    fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        let mut searched = self.pos;
        let (start, stop, next) = loop {
            if let Some(i) = find_byte(&self.buf[searched..self.end], b'\n') {
                let newline = searched + i;
                break (self.pos, newline, newline + 1);
            }
            self.buf.copy_within(self.pos..self.end, 0);
            self.base += self.pos as u64;
            (self.pos, self.end) = (0, self.end - self.pos);
            searched = self.end;
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            let n = loop {
                match self.input.read(&mut self.buf[self.end..]) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    read => break read?,
                }
            };
            if n == 0 {
                if self.end == 0 {
                    return Ok(None);
                }
                break (0, self.end, self.end);
            }
            self.end += n;
        };
        self.pos = next;
        let mut line = &self.buf[start..stop];
        while let [rest @ .., b'\r'] = line {
            line = rest;
        }
        Ok(Some(line))
    }
}

/// The index of the first `byte` in `hay`, searched 8 bytes at a time.
/// XOR with `byte` in every lane zeroes the lanes that hold it, and
/// `(w - 0x01…01) & !w & 0x80…80` sets the high bit of the lowest zero
/// lane (a borrow can flag only lanes above it), read in memory order from
/// a little-endian word.
fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let lanes = ONES * u64::from(byte);
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ lanes;
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = hay.len() - tail.len();
    tail.iter().position(|&b| b == byte).map(|i| at + i)
}

/// The three cells of a CSV record line, split at its two commas (found
/// by [`find_byte`]); `None` unless it holds exactly two.
fn csv_cells(line: &str) -> Option<[&str; 3]> {
    let bytes = line.as_bytes();
    let first = find_byte(bytes, b',')?;
    let second = first + 1 + find_byte(&bytes[first + 1..], b',')?;
    if find_byte(&bytes[second + 1..], b',').is_some() {
        return None;
    }
    Some([
        &line[..first],
        &line[first + 1..second],
        &line[second + 1..],
    ])
}

/// Where a replay pass stands.
#[derive(Debug)]
enum Pass {
    /// Not started: the next pull rewinds the input.
    Start,
    Reading,
    /// Ran out, or failed (the source's `error` says why).
    End,
}

/// Whether `line` holds only ASCII whitespace. Opening and pulling use
/// this one rule, so both see the same record lines.
fn is_blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

/// One JSONL trace line: exactly the keys of `TRACE_FIELDS`. Invalid JSON
/// is a malformed (possibly torn) line; a valid object that does not fit
/// this record is a schema error.
#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct JsonlRecord {
    release: f64,
    size_c: f64,
    size_p: f64,
}

/// A parsed record line: a task, or a parse failure whose recovery depends
/// on whether it is the final line (a torn write) or not (corruption).
enum Parsed {
    Record(TaskArrival),
    /// The line does not parse; the detail says why.
    Malformed(String),
}

/// Parsing state: the CSV column mapping and, per pass, the header and
/// the sortedness watermark.
#[derive(Debug)]
struct TraceParser {
    format: TraceFormat,
    /// The file (or inline name) errors are located in.
    location: String,
    /// CSV: the field (index into `TRACE_FIELDS`) of each column.
    columns: [usize; 3],
    /// CSV: the pass has not read its header yet.
    header_pending: bool,
    last_release: f64,
}

impl TraceParser {
    fn new(format: TraceFormat, location: String) -> Self {
        TraceParser {
            format,
            location,
            columns: [0, 1, 2],
            header_pending: false,
            last_release: f64::NEG_INFINITY,
        }
    }

    fn start_pass(&mut self) {
        self.header_pending = self.format == TraceFormat::Csv;
        self.last_release = f64::NEG_INFINITY;
    }

    fn err(&self, line_no: usize, msg: String) -> TraceError {
        TraceError(format!("{msg} in {}:{line_no}", self.location))
    }

    fn io_error(&self, e: io::Error) -> TraceError {
        TraceError(format!("I/O error reading {}: {e}", self.location))
    }

    /// Parses the CSV header line into the column mapping.
    fn parse_header(&mut self, line: &[u8], line_no: usize) -> Result<(), TraceError> {
        let Ok(line) = std::str::from_utf8(line) else {
            return Err(self.err(line_no, "the header is not valid UTF-8".into()));
        };
        let mut seen = [false; 3];
        for (n, name) in line.split(',').map(str::trim).enumerate() {
            let Some(field) = TRACE_FIELDS.iter().position(|&f| f == name) else {
                return Err(self.err(
                    line_no,
                    format!(
                        "unknown column `{name}` (allowed: {}) — unknown columns are \
                         rejected so typos cannot silently degrade to defaults",
                        TRACE_FIELDS.join(", ")
                    ),
                ));
            };
            if seen[field] {
                return Err(self.err(line_no, format!("duplicate column `{name}`")));
            }
            // At most three names pass: a fourth is unknown or repeated.
            seen[field] = true;
            self.columns[n] = field;
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(self.err(
                line_no,
                format!(
                    "missing column `{}` (required: {})",
                    TRACE_FIELDS[i],
                    TRACE_FIELDS.join(", ")
                ),
            ));
        }
        self.header_pending = false;
        Ok(())
    }

    /// Parses one non-blank record line. Schema, value and sortedness
    /// violations are errors; a line that does not parse comes back as
    /// [`Parsed::Malformed`] so the caller can apply the torn-final-line
    /// rule.
    fn parse_record(&mut self, line: &[u8], line_no: usize) -> Result<Parsed, TraceError> {
        let Ok(line) = std::str::from_utf8(line) else {
            return Ok(Parsed::Malformed("not valid UTF-8".into()));
        };
        let [release, size_c, size_p] = match self.format {
            TraceFormat::Csv => {
                let Some(cells) = csv_cells(line) else {
                    let cells = line.bytes().filter(|&b| b == b',').count() + 1;
                    return Ok(Parsed::Malformed(format!(
                        "expected {} comma-separated values, got {cells}",
                        TRACE_FIELDS.len()
                    )));
                };
                let mut fields = [0.0f64; 3];
                for (cell, &field) in cells.into_iter().map(str::trim).zip(&self.columns) {
                    match cell.parse::<f64>() {
                        Ok(v) => fields[field] = v,
                        Err(_) => {
                            return Ok(Parsed::Malformed(format!("`{cell}` is not a number")))
                        }
                    }
                }
                fields
            }
            TraceFormat::Jsonl => {
                let value = match serde_json::parse_value(line) {
                    Ok(v) => v,
                    Err(e) => return Ok(Parsed::Malformed(format!("invalid JSON: {e}"))),
                };
                let r: JsonlRecord = serde::Deserialize::from_value(&value)
                    .map_err(|e| self.err(line_no, e.to_string()))?;
                [r.release, r.size_c, r.size_p]
            }
        };
        if !release.is_finite() || release < 0.0 {
            return Err(self.err(
                line_no,
                format!("release {release} must be finite and non-negative"),
            ));
        }
        if !(size_c.is_finite() && size_c > 0.0 && size_p.is_finite() && size_p > 0.0) {
            return Err(self.err(
                line_no,
                format!("task sizes ({size_c}, {size_p}) must be finite and positive"),
            ));
        }
        if release < self.last_release {
            return Err(self.err(
                line_no,
                format!(
                    "decreasing release {release} after {} — a trace is replayed as \
                     the release order, so releases must be non-decreasing",
                    self.last_release
                ),
            ));
        }
        self.last_release = release;
        let mut task = TaskArrival::at(release);
        task.size_c = size_c;
        task.size_p = size_p;
        Ok(Parsed::Record(task))
    }
}

impl TraceSource {
    /// Opens a trace file and counts its records; the format comes from
    /// the extension (`.csv` or `.jsonl`).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let format = match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => TraceFormat::Csv,
            Some("jsonl") => TraceFormat::Jsonl,
            _ => {
                return Err(TraceError(format!(
                    "cannot infer trace format of {} (expected a .csv or .jsonl extension)",
                    path.display()
                )))
            }
        };
        Self::with_format(path, format)
    }

    /// Opens a trace file with an explicit format and counts its records.
    pub fn with_format(path: impl AsRef<Path>, format: TraceFormat) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let location = path.display().to_string();
        let file = File::open(path)
            .map_err(|e| TraceError(format!("cannot open trace {location}: {e}")))?;
        Self::scan(Box::new(file), format, location)
    }

    /// An in-memory trace (`name` appears in error locations).
    pub fn from_str(text: &str, format: TraceFormat, name: &str) -> Result<Self, TraceError> {
        let input = Box::new(Cursor::new(text.as_bytes().to_vec()));
        Self::scan(input, format, name.into())
    }

    /// Torn trailing lines dropped at open (0 or 1).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Records a pass yields, counted at open: every non-blank line after
    /// the CSV header, less a torn final line. A pass that cannot yield
    /// them all ends with an [`error`](TaskSource::error).
    pub fn len(&self) -> usize {
        self.tasks
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.tasks == 0
    }

    /// Checks the CSV header, counts the record lines and parses the last
    /// one, for the torn-final-line rule.
    fn scan(
        input: Box<dyn Input>,
        format: TraceFormat,
        location: String,
    ) -> Result<Self, TraceError> {
        let mut parser = TraceParser::new(format, location);
        let mut lines = LineReader::new(input);
        let mut line_no = 0usize;
        if format == TraceFormat::Csv {
            // The header is the first non-blank line.
            let header = loop {
                let Some(line) = lines.next_line().map_err(|e| parser.io_error(e))? else {
                    return Err(TraceError(format!(
                        "empty trace {}: a CSV trace needs a `{}` header",
                        parser.location,
                        TRACE_FIELDS.join(",")
                    )));
                };
                line_no += 1;
                if !is_blank(line) {
                    break line;
                }
            };
            parser.parse_header(header, line_no)?;
        }
        let (mut records, mut last) = (0usize, None);
        loop {
            let at = lines.offset();
            let Some(line) = lines.next_line().map_err(|e| parser.io_error(e))? else {
                break;
            };
            line_no += 1;
            if !is_blank(line) {
                records += 1;
                last = Some((at, line_no));
            }
        }
        let mut dropped = 0;
        if let Some((at, last_no)) = last {
            lines.seek(at).map_err(|e| parser.io_error(e))?;
            let line = lines.next_line().map_err(|e| parser.io_error(e))?;
            if let Parsed::Malformed(_) = parser.parse_record(line.unwrap_or_default(), last_no)? {
                dropped = 1;
            }
        }
        Ok(TraceSource {
            lines,
            parser,
            tasks: records - dropped,
            dropped,
            pass: Pass::Start,
            line_no: 0,
            emitted: 0,
            error: None,
        })
    }

    /// One pull of the current pass: the next record, or `None` once the
    /// counted records are out and only the dropped torn line, if any, and
    /// blank lines follow them.
    fn pull(&mut self) -> Result<Option<TaskArrival>, TraceError> {
        let parser = &mut self.parser;
        match self.pass {
            Pass::Start => {
                self.lines.seek(0).map_err(|e| parser.io_error(e))?;
                parser.start_pass();
                self.line_no = 0;
                self.pass = Pass::Reading;
            }
            Pass::Reading => {}
            Pass::End => return Ok(None),
        }
        let mut torn = self.dropped;
        loop {
            let line = match self.lines.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(e) => return Err(parser.err(self.line_no + 1, format!("I/O error ({e})"))),
            };
            self.line_no += 1;
            if is_blank(line) {
                continue;
            }
            if parser.header_pending {
                parser.parse_header(line, self.line_no)?;
            } else if self.emitted < self.tasks {
                return match parser.parse_record(line, self.line_no)? {
                    Parsed::Record(task) => {
                        self.emitted += 1;
                        Ok(Some(task))
                    }
                    Parsed::Malformed(detail) => Err(parser.err(
                        self.line_no,
                        format!(
                            "malformed record ({detail}) followed by more data \
                             — only a torn final line is recoverable"
                        ),
                    )),
                };
            } else if torn > 0 {
                torn -= 1;
            } else {
                return Err(parser.err(
                    self.line_no,
                    format!(
                        "a line past the {} records counted when the trace was opened \
                         — the file changed since",
                        self.tasks
                    ),
                ));
            }
        }
        if self.emitted < self.tasks {
            return Err(parser.err(
                self.line_no + 1,
                format!(
                    "end of file before record {} of the {} counted when the trace was \
                     opened — the file changed since",
                    self.emitted + 1,
                    self.tasks
                ),
            ));
        }
        self.pass = Pass::End;
        Ok(None)
    }

    /// Ends the pass on a failed pull, keeping the reason.
    #[cold]
    fn fail(&mut self, e: TraceError) {
        self.error = Some(e.0);
        self.pass = Pass::End;
    }
}

impl TaskSource for TraceSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        match self.pull() {
            Ok(task) => task,
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks)
    }

    fn reset(&mut self) {
        self.pass = Pass::Start;
        self.emitted = 0;
        self.error = None;
    }

    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::from_vectors(&[0.5, 0.5], &[2.0, 2.0])
    }

    fn drain(source: &mut dyn TaskSource) -> Vec<TaskArrival> {
        std::iter::from_fn(|| source.next_task()).collect()
    }

    /// Strict equality down to the bit pattern, not just `==`.
    fn assert_bit_identical(a: &[TaskArrival], b: &[TaskArrival]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.release, y.release);
            assert_eq!(x.size_c.to_bits(), y.size_c.to_bits());
            assert_eq!(x.size_p.to_bits(), y.size_p.to_bits());
        }
    }

    #[test]
    fn generated_matches_materialized_bitwise() {
        let p = platform();
        let processes = [
            ArrivalProcess::AllAtZero,
            ArrivalProcess::UniformStream { load: 0.7 },
            ArrivalProcess::Poisson { load: 0.9 },
        ];
        let perturbations = [
            None,
            Some(Perturbation::linear(0.1)),
            Some(Perturbation::matrix(0.1)),
        ];
        for process in processes {
            for perturbation in perturbations {
                let nominal = process.generate(64, &p, 7);
                let batch = match perturbation {
                    Some(pert) => pert.apply(&nominal, 11),
                    None => nominal,
                };
                let mut source = GeneratedSource::new(process, 64, &p, 7);
                if let Some(pert) = perturbation {
                    source = source.with_perturbation(pert, 11);
                }
                assert_bit_identical(&drain(&mut source), &batch);
            }
        }
    }

    #[test]
    fn generated_reset_replays_identically() {
        let mut s = GeneratedSource::new(ArrivalProcess::Poisson { load: 0.9 }, 50, &platform(), 3)
            .with_perturbation(Perturbation::linear(0.1), 17);
        let first = drain(&mut s);
        s.reset();
        assert_bit_identical(&drain(&mut s), &first);
    }

    // --- TraceSource ---

    const CSV: &str = "release,size_c,size_p\n0.0,1.0,1.0\n1.5,0.9,1.1\n3.0,1.05,0.95\n";

    #[test]
    fn csv_trace_round_trips() {
        let mut s = TraceSource::from_str(CSV, TraceFormat::Csv, "test.csv").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 0);
        let tasks = drain(&mut s);
        assert_eq!(tasks[1].release.as_f64(), 1.5);
        assert_eq!(tasks[1].size_c, 0.9);
        assert_eq!(tasks[2].size_p, 0.95);
        s.reset();
        assert_bit_identical(&drain(&mut s), &tasks);
    }

    #[test]
    fn csv_columns_may_be_permuted() {
        let text = "size_p,release,size_c\n2.0,0.5,3.0\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        let t = s.next_task().unwrap();
        assert_eq!(t.release.as_f64(), 0.5);
        assert_eq!(t.size_c, 3.0);
        assert_eq!(t.size_p, 2.0);
    }

    #[test]
    fn jsonl_trace_round_trips() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 2.0, \"size_c\": 1.1, \"size_p\": 0.9}\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap();
        assert_eq!(s.len(), 2);
        let tasks = drain(&mut s);
        assert_eq!(tasks[1].release.as_f64(), 2.0);
        assert_eq!(tasks[1].size_c, 1.1);
    }

    #[test]
    fn unknown_column_is_a_located_error() {
        let text = "release,size_c,size_p,priority\n0.0,1.0,1.0,3\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(err.0.contains("unknown column `priority`"), "{err}");
        assert!(err.0.contains("t.csv:1"), "{err}");
        assert!(err.0.contains("allowed: release, size_c, size_p"), "{err}");
    }

    #[test]
    fn unknown_jsonl_key_is_a_located_error() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 1.0, \"size_c\": 1.0, \"sise_p\": 1.0}\n";
        let err = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap_err();
        assert!(err.0.contains("unknown key `sise_p`"), "{err}");
        assert!(err.0.contains("t.jsonl:2"), "{err}");
    }

    #[test]
    fn unsorted_releases_are_rejected_with_location() {
        let text = "release,size_c,size_p\n2.0,1.0,1.0\n1.0,1.0,1.0\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        assert_eq!(
            drain(&mut s).len(),
            1,
            "the stream ends at the unsorted record"
        );
        let err = s.error().expect("the unsorted record fails its pull");
        assert!(err.contains("decreasing release 1 after 2"), "{err}");
        assert!(err.contains("t.csv:3"), "{err}");
    }

    #[test]
    fn torn_final_csv_line_is_dropped_like_the_store() {
        let text = "release,size_c,size_p\n0.0,1.0,1.0\n1.5,0.9";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
        let tasks = drain(&mut s);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].release.as_f64(), 0.0);
    }

    #[test]
    fn torn_final_jsonl_line_is_dropped_like_the_store() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 1.0, \"si";
        let s = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let text = "release,size_c,size_p\n0.0,1.0\n1.5,0.9,1.1\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        assert!(
            drain(&mut s).is_empty(),
            "the stream ends at the corrupt line"
        );
        let err = s.error().expect("the corrupt line fails its pull");
        assert!(
            err.contains("only a torn final line is recoverable"),
            "{err}"
        );
        assert!(err.contains("t.csv:2"), "{err}");
    }

    #[test]
    fn a_failed_pull_ends_the_stream_until_reset() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 1.0, \"size_c\": 1.0, \"sise_p\": 1.0}\n\
                    {\"release\": 2.0, \"size_c\": 1.0, \"size_p\": 1.0}\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.next_task().is_some());
        assert!(s.error().is_none());
        assert!(s.next_task().is_none());
        let first = s.error().expect("the bad key fails its pull").to_owned();
        assert!(first.contains("unknown key `sise_p`"), "{first}");
        assert!(first.contains("t.jsonl:2"), "{first}");
        // Sticky: the stream stays ended and keeps its reason.
        assert!(s.next_task().is_none());
        assert_eq!(s.error(), Some(first.as_str()));
        // `reset` clears it; the replay fails the same way again.
        s.reset();
        assert!(s.error().is_none());
        assert_eq!(drain(&mut s).len(), 1);
        assert_eq!(s.error(), Some(first.as_str()));
    }

    #[test]
    fn blank_lines_and_crlf_are_skipped_alike_at_open_and_at_pull() {
        let text =
            "\r\n  \nsize_p,release,size_c\r\n\r\n1.0,0.0,1.0\r\n \t\r\n2.0,1.0,3.0\r\n\n1.5,0.9";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        assert_eq!((s.len(), s.dropped()), (2, 1));
        let tasks = drain(&mut s);
        assert!(s.error().is_none(), "{:?}", s.error());
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[1].release.as_f64(), 1.0);
        assert_eq!(tasks[1].size_c, 3.0);
        assert_eq!(tasks[1].size_p, 2.0);
    }

    #[test]
    fn non_positive_sizes_are_rejected() {
        let text = "release,size_c,size_p\n0.0,0.0,1.0\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(err.0.contains("must be finite and positive"), "{err}");
    }

    #[test]
    fn file_open_infers_format_and_replays() {
        let dir = std::env::temp_dir().join("mss-workload-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.csv");
        std::fs::write(&path, CSV).unwrap();
        let mut s = TraceSource::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        let tasks = drain(&mut s);
        s.reset();
        assert_bit_identical(&drain(&mut s), &tasks);
        let err = TraceSource::open(dir.join("small.txt")).unwrap_err();
        assert!(err.0.contains("cannot infer trace format"), "{err}");
    }
}
