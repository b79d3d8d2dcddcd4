//! Repair audit ledger: the paper's economics, measured.
//!
//! Single-page repair pays off only when detection latency (MTTD),
//! repair latency (MTTR), and escalation frequency are known. The
//! ledger keeps a per-detector-class MTTD histogram, a per-failure-class
//! MTTR histogram, and a bounded list of Figure-1 escalations, each
//! captured with the flight-recorder window that led up to it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use spf_util::SimDuration;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::recorder::Trace;

/// Escalation records retained (newest win; older ones age out).
const MAX_ESCALATIONS: usize = 64;

/// One Figure-1 escalation: a single-page repair gave up and handed the
/// failure to a heavier recovery class.
#[derive(Debug, Clone)]
pub struct EscalationRecord {
    /// Damaged page.
    pub page_id: u64,
    /// Detector class that found the damage (e.g. `checksum`).
    pub detector: &'static str,
    /// Failure class escalated to (e.g. `media`, `system`).
    pub escalated_to: &'static str,
    /// Simulated time of the escalation.
    pub at: SimDuration,
    /// Flight-recorder window drained at escalation time.
    pub trace: Trace,
}

#[derive(Default)]
struct Classed {
    by_class: BTreeMap<&'static str, Arc<Histogram>>,
}

impl Classed {
    fn hist(&mut self, class: &'static str) -> Arc<Histogram> {
        Arc::clone(self.by_class.entry(class).or_default())
    }
    fn snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.by_class
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect()
    }
}

/// Concurrent audit ledger. Recording takes a short mutex on the class
/// map lookup only; the histogram update itself is lock-free.
#[derive(Default)]
pub struct RepairLedger {
    mttd: Mutex<Classed>,
    mttr: Mutex<Classed>,
    escalations: Mutex<Vec<EscalationRecord>>,
}

impl std::fmt::Debug for RepairLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairLedger")
            .field("escalations", &self.escalations.lock().len())
            .finish()
    }
}

impl RepairLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a detection: `latency` is damage-age at detection time
    /// (MTTD sample) under detector class `detector`.
    pub fn record_detection(&self, detector: &'static str, latency: SimDuration) {
        let h = self.mttd.lock().hist(detector);
        h.record(latency.as_nanos());
    }

    /// Records a completed repair: `latency` is detect→repaired time
    /// (MTTR sample) under failure class `failure`.
    pub fn record_repair(&self, failure: &'static str, latency: SimDuration) {
        let h = self.mttr.lock().hist(failure);
        h.record(latency.as_nanos());
    }

    /// Records a Figure-1 escalation with its triggering event window.
    pub fn record_escalation(&self, rec: EscalationRecord) {
        let mut e = self.escalations.lock();
        if e.len() == MAX_ESCALATIONS {
            e.remove(0);
        }
        e.push(rec);
    }

    /// Per-detector-class MTTD summaries.
    #[must_use]
    pub fn mttd_snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.mttd.lock().snapshot()
    }

    /// Per-failure-class MTTR summaries.
    #[must_use]
    pub fn mttr_snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.mttr.lock().snapshot()
    }

    /// Clones the retained escalation records (newest last).
    #[must_use]
    pub fn escalations(&self) -> Vec<EscalationRecord> {
        self.escalations.lock().clone()
    }

    /// Renders a human-readable audit report (MTTD/MTTR tables plus the
    /// most recent escalations with their event windows).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "repair audit ledger");
        let _ = writeln!(s, "  MTTD by detector class (sim ns):");
        for (class, h) in self.mttd_snapshot() {
            let _ = writeln!(
                s,
                "    {class:<12} n={:<6} p50={} p95={} p99={} max={}",
                h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        let _ = writeln!(s, "  MTTR by failure class (sim ns):");
        for (class, h) in self.mttr_snapshot() {
            let _ = writeln!(
                s,
                "    {class:<12} n={:<6} p50={} p95={} p99={} max={}",
                h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        let escs = self.escalations();
        let _ = writeln!(s, "  escalations: {}", escs.len());
        for e in escs.iter().rev().take(4) {
            let _ = writeln!(
                s,
                "    page {} via {} -> {} at {:?} ({} events in window)",
                e.page_id,
                e.detector,
                e.escalated_to,
                e.at,
                e.trace.len()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttd_and_mttr_accumulate_by_class() {
        let l = RepairLedger::new();
        l.record_detection("checksum", SimDuration::from_nanos(100));
        l.record_detection("checksum", SimDuration::from_nanos(300));
        l.record_detection("fence_keys", SimDuration::from_nanos(50));
        l.record_repair("single_page", SimDuration::from_nanos(10));
        let mttd = l.mttd_snapshot();
        assert_eq!(mttd["checksum"].count, 2);
        assert_eq!(mttd["fence_keys"].count, 1);
        assert_eq!(l.mttr_snapshot()["single_page"].count, 1);
    }

    #[test]
    fn escalations_are_bounded() {
        let l = RepairLedger::new();
        for i in 0..(MAX_ESCALATIONS as u64 + 10) {
            l.record_escalation(EscalationRecord {
                page_id: i,
                detector: "checksum",
                escalated_to: "media",
                at: SimDuration::from_nanos(i),
                trace: Trace::default(),
            });
        }
        let escs = l.escalations();
        assert_eq!(escs.len(), MAX_ESCALATIONS);
        assert_eq!(escs[0].page_id, 10, "oldest aged out");
        assert!(l.render().contains("escalations: 64"));
    }
}
