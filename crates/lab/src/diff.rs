//! `ms-lab diff` — the first-divergence auditor.
//!
//! Replays one grid cell with a [`DigestProbe`] ledger attached: every
//! engine decision and event folds into a running 64-bit FNV digest, and
//! the ledger records `(index, kind, t, a, b, digest)` per event. Two
//! runs of the same cell are bit-identical if and only if their ledgers
//! are, so comparing ledgers pinpoints **the first event where two builds
//! or two revisions disagree** — index, kind, and both payloads — instead
//! of leaving you to bisect a multi-gigabyte trace by hand.
//!
//! Comparison targets (`--against`):
//! * a **ledger file** written earlier by `ms-lab diff --dump` (JSONL,
//!   one event per line) — compare across machines or revisions;
//! * another **ms-lab binary** — the auditor invokes
//!   `<binary> diff <spec> --cell N --dump <tmp>` and compares against
//!   the ledger it produces, which is how the acceptance check replays a
//!   cell under the pre-change build.

use mss_core::SimWorkspace;
use mss_obs::{DigestEvent, DigestProbe};
use mss_sweep::SweepSpec;
use std::fmt::Write as _;
use std::path::Path;

/// A replayed cell's audit trail.
pub struct AuditOutcome {
    /// Running digest over every event (order- and payload-sensitive).
    pub digest: u64,
    /// Total events folded.
    pub events: u64,
    /// The per-event ledger.
    pub ledger: Vec<DigestEvent>,
    /// One-line description of the audited cell.
    pub cell: String,
}

/// Replays cell `index` of `spec` with a ledger-keeping [`DigestProbe`].
/// The run is bit-identical to the cell's sweep execution (probes are
/// observers only); an aborted run still yields its partial ledger.
pub fn audit_cell(spec: &SweepSpec, index: usize) -> Result<AuditOutcome, String> {
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let Some(cell) = cells.get(index) else {
        return Err(format!(
            "cell index {index} out of range: spec `{}` expands to {} cells",
            spec.name,
            cells.len()
        ));
    };
    let mat = cell.materialize();
    let mut ws = SimWorkspace::new();
    let mut scheduler = cell.build_scheduler();
    let mut probe = DigestProbe::with_ledger();
    let _ = cell.try_run_probed(&mat, &mut ws, scheduler.as_mut(), &mut probe);
    let label = format!(
        "{} cell {index}: {} ({:?} info) on {} slaves",
        spec.name,
        cell.algorithm,
        cell.information,
        mat.platform.num_slaves()
    );
    Ok(AuditOutcome {
        digest: probe.digest(),
        events: probe.events(),
        ledger: probe.into_ledger(),
        cell: label,
    })
}

/// Serializes a ledger as JSONL: one `{"index":..,"kind":..,"t_bits":..,
/// "a":..,"b":..,"digest":..}` object per line. `t_bits` keeps the event
/// time exact; a human-readable `t` rides along for grepping.
pub fn ledger_to_jsonl(ledger: &[DigestEvent]) -> String {
    let mut out = String::new();
    for e in ledger {
        let _ = writeln!(
            out,
            "{{\"index\":{},\"kind\":\"{}\",\"t\":{},\"t_bits\":{},\"a\":{},\"b\":{},\"digest\":{}}}",
            e.index,
            e.kind,
            e.time(),
            e.t_bits,
            e.a,
            e.b,
            e.digest
        );
    }
    out
}

/// A parsed ledger line: everything needed to localize a divergence.
/// The human-readable `t` of a dumped line is not read back.
#[derive(Clone, Debug, PartialEq, serde::Deserialize)]
pub struct LedgerLine {
    /// Event index (0-based fold order).
    pub index: u64,
    /// Event kind (probe hook name).
    pub kind: String,
    /// Event time as raw bits (exact).
    pub t_bits: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Running digest after folding this event.
    pub digest: u64,
}

impl LedgerLine {
    /// A ledger line from an in-memory digest event.
    pub fn of(e: &DigestEvent) -> Self {
        LedgerLine {
            index: e.index,
            kind: e.kind.to_string(),
            t_bits: e.t_bits,
            a: e.a,
            b: e.b,
            digest: e.digest,
        }
    }

    /// Event time (exact reconstruction from `t_bits`).
    pub fn time(&self) -> f64 {
        f64::from_bits(self.t_bits)
    }

    fn render(&self) -> String {
        format!(
            "#{} {} at t={} (a={}, b={}, digest={:016x})",
            self.index,
            self.kind,
            self.time(),
            self.a,
            self.b,
            self.digest
        )
    }
}

/// Parses a `--dump`-format JSONL ledger.
pub fn parse_ledger(body: &str) -> Result<Vec<LedgerLine>, String> {
    body.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(ln, line)| {
            serde_json::from_str(line).map_err(|e| format!("ledger line {}: {e}", ln + 1))
        })
        .collect()
}

/// How two audited runs of the same cell relate.
pub enum DiffVerdict {
    /// Every event matched, digests agree.
    Identical {
        /// Shared digest.
        digest: u64,
        /// Events compared.
        events: u64,
    },
    /// A first divergent event exists.
    Diverged {
        /// Index of the first disagreement.
        index: u64,
        /// This build's event at that index (`None` = its run ended early).
        ours: Option<LedgerLine>,
        /// The reference's event at that index (`None` = it ended early).
        theirs: Option<LedgerLine>,
    },
}

/// Compares two ledgers event by event and reports the first divergence.
/// Payloads are compared exactly (times via `t_bits`); the running digest
/// is redundant with the payloads but cross-checks the fold itself.
pub fn first_divergence(ours: &[LedgerLine], theirs: &[LedgerLine]) -> DiffVerdict {
    let n = ours.len().max(theirs.len());
    for i in 0..n {
        let a = ours.get(i);
        let b = theirs.get(i);
        if a != b {
            return DiffVerdict::Diverged {
                index: i as u64,
                ours: a.cloned(),
                theirs: b.cloned(),
            };
        }
    }
    DiffVerdict::Identical {
        digest: ours
            .last()
            .map(|e| e.digest)
            .unwrap_or(0xcbf2_9ce4_8422_2325),
        events: ours.len() as u64,
    }
}

impl DiffVerdict {
    /// Human-readable verdict (multi-line on divergence).
    pub fn render(&self) -> String {
        match self {
            DiffVerdict::Identical { digest, events } => {
                format!("identical: {events} events, digest {digest:016x}")
            }
            DiffVerdict::Diverged {
                index,
                ours,
                theirs,
            } => {
                let show = |side: &Option<LedgerLine>| match side {
                    Some(e) => e.render(),
                    None => "<run ended>".to_string(),
                };
                format!(
                    "first divergence at event {index}:\n  ours:   {}\n  theirs: {}",
                    show(ours),
                    show(theirs)
                )
            }
        }
    }

    /// `true` when the runs matched.
    pub fn is_identical(&self) -> bool {
        matches!(self, DiffVerdict::Identical { .. })
    }
}

/// Obtains the reference ledger for `--against`: a path whose content
/// starts with `{` is read as a dumped ledger; anything else is treated
/// as another `ms-lab` binary, which is invoked as
/// `<binary> diff <spec> --cell N --dump <tmp>` to produce one.
pub fn reference_ledger(
    against: &Path,
    spec_path: &Path,
    index: usize,
) -> Result<Vec<LedgerLine>, String> {
    let sniff = std::fs::read(against)
        .map_err(|e| format!("cannot read --against {}: {e}", against.display()))?;
    if sniff.first() == Some(&b'{') {
        let body =
            String::from_utf8(sniff).map_err(|_| format!("{}: not UTF-8", against.display()))?;
        return parse_ledger(&body);
    }
    let tmp =
        std::env::temp_dir().join(format!("mss-diff-ref-{}-{index}.jsonl", std::process::id()));
    let out = std::process::Command::new(against)
        .arg("diff")
        .arg(spec_path)
        .arg("--cell")
        .arg(index.to_string())
        .arg("--dump")
        .arg(&tmp)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", against.display()))?;
    if !out.status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "{} diff exited with {}: {}",
            against.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let body = std::fs::read_to_string(&tmp)
        .map_err(|e| format!("reference binary wrote no ledger: {e}"))?;
    let _ = std::fs::remove_file(&tmp);
    parse_ledger(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sweep::spec_from_toml;

    fn spec() -> SweepSpec {
        spec_from_toml(
            r#"
            name = "diff-test"
            seed = 3
            tasks = [25]
            algorithms = ["SRPT"]

            [[platforms]]
            kind = "class"
            class = "heterogeneous"
            count = 1
            slaves = 3

            [[arrivals]]
            kind = "poisson"
            load = 0.9
            "#,
        )
        .unwrap()
    }

    #[test]
    fn audit_is_reproducible_and_ledger_round_trips() {
        let spec = spec();
        let a = audit_cell(&spec, 0).unwrap();
        let b = audit_cell(&spec, 0).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(a.events > 0);
        assert_eq!(a.ledger.len() as u64, a.events);
        assert_eq!(a.ledger.last().unwrap().digest, a.digest);

        let ours: Vec<LedgerLine> = a.ledger.iter().map(LedgerLine::of).collect();
        let parsed = parse_ledger(&ledger_to_jsonl(&a.ledger)).unwrap();
        assert_eq!(parsed, ours, "JSONL round-trip is exact");
        assert!(first_divergence(&ours, &parsed).is_identical());

        // Out-of-range index is a message, not a panic.
        assert!(audit_cell(&spec, 99).is_err());
    }

    #[test]
    fn divergence_reports_first_mismatch() {
        let spec = spec();
        let a = audit_cell(&spec, 0).unwrap();
        let ours: Vec<LedgerLine> = a.ledger.iter().map(LedgerLine::of).collect();

        // Perturb one payload word mid-ledger.
        let mut theirs = ours.clone();
        let k = theirs.len() / 2;
        theirs[k].b ^= 1;
        match first_divergence(&ours, &theirs) {
            DiffVerdict::Diverged {
                index,
                ours: o,
                theirs: t,
            } => {
                assert_eq!(index, k as u64);
                assert_eq!(o.unwrap().b ^ 1, t.unwrap().b);
            }
            _ => panic!("perturbed ledger must diverge"),
        }

        // A truncated reference diverges at its end.
        let short = &ours[..ours.len() - 2];
        match first_divergence(&ours, short) {
            DiffVerdict::Diverged {
                index, theirs: t, ..
            } => {
                assert_eq!(index, short.len() as u64);
                assert!(t.is_none());
            }
            _ => panic!("truncation must diverge"),
        }
        assert!(first_divergence(&ours, &ours)
            .render()
            .starts_with("identical"));
    }
}
