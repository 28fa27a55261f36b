//! [`DigestProbe`]: a running 64-bit FNV digest of every engine decision.
//!
//! PRs 2–6 each verified "this refactor changed nothing" by regenerating
//! whole artifact sets and diffing bytes. This probe mechanizes that: it
//! folds the engine's complete observable behavior — event dispatch order
//! (releases, send/compute endpoints, failures), scheduler callback
//! answers, and the decisions themselves — into one `u64`. Two runs with
//! equal digests executed the same event sequence with the same payloads;
//! the optional per-event ledger pinpoints *where* two runs diverge (see
//! `ms-lab diff`).
//!
//! The digest is FNV-1a 64 — the same function the sweep store uses for
//! cache keys — chained over `(kind, now, a, b)` tuples, so it is
//! order-sensitive by construction: swapping two events changes every
//! subsequent running digest.
//!
//! **What it ignores:** the probe deliberately skips
//! [`view_recompute`](crate::Probe::view_recompute) and
//! [`view_refolded`](crate::Probe::view_refolded). They count how
//! the engine's view cache did its work, not what the run did, so a change
//! to the cache that keeps every decision keeps every digest. Every hook
//! fires the same way in debug and release builds, so digests are
//! identical across builds and across probe compositions.

use crate::probe::Probe;

/// FNV-1a 64-bit offset basis (shared with the sweep store's keys).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One ledger entry: an event as folded into the digest, plus the running
/// digest *after* folding it. Comparing two ledgers entry-by-entry finds
/// the first divergence even when payloads differ only in the low bits of
/// a timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestEvent {
    /// 0-based position in the run's event sequence.
    pub index: u64,
    /// Stable event kind name (e.g. `"send_start"`, `"decision_send"`).
    pub kind: &'static str,
    /// `now` as raw bits (exact — no decimal round-trip ambiguity).
    pub t_bits: u64,
    /// First payload (task or slave index; kind-dependent).
    pub a: u64,
    /// Second payload (slave index, time bits, or flags; kind-dependent).
    pub b: u64,
    /// Running digest after this event.
    pub digest: u64,
}

impl DigestEvent {
    /// The event timestamp in simulation seconds.
    pub fn time(&self) -> f64 {
        f64::from_bits(self.t_bits)
    }
}

/// A probe folding every observable engine event into a running FNV-1a
/// digest, optionally keeping the full per-event ledger.
#[derive(Clone, Debug)]
pub struct DigestProbe {
    digest: u64,
    events: u64,
    ledger: Option<Vec<DigestEvent>>,
}

impl Default for DigestProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestProbe {
    /// A digest-only probe (no ledger, no per-event allocation).
    pub fn new() -> Self {
        Self {
            digest: FNV_BASIS,
            events: 0,
            ledger: None,
        }
    }

    /// A probe that additionally records every folded event.
    pub fn with_ledger() -> Self {
        Self {
            ledger: Some(Vec::new()),
            ..Self::new()
        }
    }

    /// The running digest (the FNV-1a basis for an empty run).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The recorded ledger, if this probe keeps one.
    pub fn ledger(&self) -> Option<&[DigestEvent]> {
        self.ledger.as_deref()
    }

    /// Consumes the probe, returning its ledger (empty if not kept).
    pub fn into_ledger(self) -> Vec<DigestEvent> {
        self.ledger.unwrap_or_default()
    }

    /// Clears digest and ledger for the next run.
    pub fn reset(&mut self) {
        self.digest = FNV_BASIS;
        self.events = 0;
        if let Some(l) = &mut self.ledger {
            l.clear();
        }
    }

    #[inline]
    fn fold_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    fn fold(&mut self, tag: u8, kind: &'static str, now: f64, a: u64, b: u64) {
        let t_bits = now.to_bits();
        self.digest = (self.digest ^ u64::from(tag)).wrapping_mul(FNV_PRIME);
        self.fold_u64(t_bits);
        self.fold_u64(a);
        self.fold_u64(b);
        let index = self.events;
        self.events += 1;
        if let Some(l) = &mut self.ledger {
            l.push(DigestEvent {
                index,
                kind,
                t_bits,
                a,
                b,
                digest: self.digest,
            });
        }
    }
}

impl Probe for DigestProbe {
    fn task_released(&mut self, now: f64, task: usize) {
        self.fold(1, "task_released", now, task as u64, 0);
    }
    fn send_start(&mut self, now: f64, task: usize, slave: usize) {
        self.fold(2, "send_start", now, task as u64, slave as u64);
    }
    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {
        let (tag, kind) = if delivered {
            (3, "send_delivered")
        } else {
            (4, "send_lost")
        };
        self.fold(tag, kind, now, task as u64, slave as u64);
    }
    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {
        self.fold(5, "compute_start", now, task as u64, slave as u64);
    }
    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {
        self.fold(6, "compute_complete", now, task as u64, slave as u64);
    }
    fn callback(&mut self, now: f64) {
        self.fold(7, "callback", now, 0, 0);
    }
    fn callback_elided(&mut self, now: f64) {
        self.fold(8, "callback_elided", now, 0, 0);
    }
    // view_recompute and view_refolded deliberately not folded: they
    // measure the view cache, not the run.
    fn estimator_update(&mut self, now: f64, slave: usize) {
        self.fold(9, "estimator_update", now, slave as u64, 0);
    }
    fn slave_failed(&mut self, now: f64, slave: usize) {
        self.fold(10, "slave_failed", now, slave as u64, 0);
    }
    fn slave_recovered(&mut self, now: f64, slave: usize) {
        self.fold(11, "slave_recovered", now, slave as u64, 0);
    }
    fn task_lost(&mut self, now: f64, task: usize, slave: usize) {
        self.fold(12, "task_lost", now, task as u64, slave as u64);
    }
    fn budget_abort(&mut self, now: f64, steps: u64) {
        self.fold(13, "budget_abort", now, steps, 0);
    }
    fn decision(&mut self, now: f64, tag: u8, a: usize, b: u64) {
        let (t, kind) = match tag {
            0 => (14, "decision_idle"),
            1 => (15, "decision_send"),
            _ => (16, "decision_wake"),
        };
        self.fold(t, kind, now, a as u64, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_agree_and_order_matters() {
        let mut a = DigestProbe::new();
        let mut b = DigestProbe::new();
        for p in [&mut a, &mut b] {
            p.task_released(0.0, 0);
            p.send_start(0.0, 0, 1);
            p.send_complete(1.5, 0, 1, true);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), 3);

        // Same events, swapped order → different digest.
        let mut c = DigestProbe::new();
        c.send_start(0.0, 0, 1);
        c.task_released(0.0, 0);
        c.send_complete(1.5, 0, 1, true);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn payload_bits_matter() {
        let mut a = DigestProbe::new();
        let mut b = DigestProbe::new();
        a.decision(2.0, 1, 7, 3);
        b.decision(2.0, 1, 7, 4); // different slave
        assert_ne!(a.digest(), b.digest());
        let mut c = DigestProbe::new();
        c.send_complete(2.0, 7, 3, true);
        let mut d = DigestProbe::new();
        d.send_complete(2.0, 7, 3, false); // lost, not delivered
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn ledger_records_running_digests() {
        let mut p = DigestProbe::with_ledger();
        p.task_released(0.0, 3);
        p.decision(0.0, 1, 3, 0);
        let ledger = p.ledger().unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[0].kind, "task_released");
        assert_eq!(ledger[0].index, 0);
        assert_eq!(ledger[1].kind, "decision_send");
        assert_eq!(ledger[1].digest, p.digest());
        assert_eq!(ledger[0].time(), 0.0);

        // Digest-only probe over the same events agrees.
        let mut q = DigestProbe::new();
        q.task_released(0.0, 3);
        q.decision(0.0, 1, 3, 0);
        assert_eq!(q.digest(), p.digest());
        assert!(q.ledger().is_none());
    }

    #[test]
    fn reset_restores_the_basis() {
        let mut p = DigestProbe::with_ledger();
        let empty = p.digest();
        p.callback(1.0);
        assert_ne!(p.digest(), empty);
        p.reset();
        assert_eq!(p.digest(), empty);
        assert_eq!(p.events(), 0);
        assert_eq!(p.ledger().unwrap().len(), 0);
    }

    #[test]
    fn view_recompute_is_ignored() {
        let mut a = DigestProbe::new();
        let mut b = DigestProbe::new();
        a.callback(1.0);
        b.callback(1.0);
        b.view_recompute(1.0, 0);
        b.view_refolded(1.0, 0);
        assert_eq!(a.digest(), b.digest());
    }
}
