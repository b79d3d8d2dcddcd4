//! Leveled run merging.
//!
//! Fresh runs land in level 0, one per archiver drain. Left alone, a
//! page-history query would have to probe every run ever written; the
//! merge policy bounds that. When a level accumulates `fanout` runs they
//! are merged — a sequential read of each input, one k-way merge on the
//! `(page, LSN)` sort order, one sequential write — into a single run at
//! the next level. With fanout F, N drains leave at most `F - 1` runs
//! per level across `log_F N` levels, so any page's pre-truncation
//! history lives in **O(log runs)** sorted runs, each answering with one
//! indexed seek + sequential scan.

use spf_wal::Lsn;

use crate::run::{ArchiveRun, RunBuilder};
use crate::ArchiveError;

/// When to merge archive runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Merge a level once it holds this many runs. 0 disables merging.
    pub fanout: usize,
}

impl MergePolicy {
    /// The default leveled policy (fanout 4).
    #[must_use]
    pub const fn leveled_default() -> Self {
        Self { fanout: 4 }
    }

    /// Never merge (every drain leaves its own run).
    #[must_use]
    pub const fn disabled() -> Self {
        Self { fanout: 0 }
    }

    /// True when `level_runs` runs call for a merge.
    #[must_use]
    pub fn should_merge(&self, level_runs: usize) -> bool {
        self.fanout > 0 && level_runs >= self.fanout
    }
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self::leveled_default()
    }
}

/// Merges `inputs` (windows must be pairwise disjoint) into one run with
/// the given id, covering the union of the input windows.
///
/// Inputs are each `(page, LSN)`-sorted already; the output is the same
/// order over the union, which [`RunBuilder::finish`] restores with one
/// sort (an O(n log n) stand-in for the k-way merge a file-based
/// implementation would stream).
pub fn merge_runs(
    inputs: &[std::sync::Arc<ArchiveRun>],
    id: u64,
) -> Result<ArchiveRun, ArchiveError> {
    let mut builder = RunBuilder::new();
    let mut start = Lsn(u64::MAX);
    let mut end = Lsn::NULL;
    for run in inputs {
        let (s, e) = run.window();
        start = start.min(s);
        end = end.max(e);
        for (lsn, record) in run.decode_all()? {
            builder.push(lsn, record);
        }
    }
    if inputs.is_empty() {
        start = Lsn::NULL;
    }
    Ok(builder.finish(id, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::PageId;
    use spf_wal::{LogPayload, LogRecord, PageOp, TxId};

    fn rec(page: u64) -> LogRecord {
        LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(page),
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::Update {
                op: PageOp::SetGhost {
                    pos: 0,
                    key: Vec::new(),
                    old: false,
                    new: true,
                },
            },
        }
    }

    #[test]
    fn merge_unions_windows_and_keeps_per_page_order() {
        let mut a = RunBuilder::new();
        a.push(Lsn(10), rec(1));
        a.push(Lsn(20), rec(2));
        let a = a.finish(0, Lsn(8), Lsn(30));
        let mut b = RunBuilder::new();
        b.push(Lsn(30), rec(1));
        b.push(Lsn(40), rec(3));
        let b = b.finish(1, Lsn(30), Lsn(50));

        let merged = merge_runs(&[std::sync::Arc::new(a), std::sync::Arc::new(b)], 2).unwrap();
        assert_eq!(merged.window(), (Lsn(8), Lsn(50)));
        assert_eq!(merged.record_count(), 4);
        let p1 = merged.records_for_page(PageId(1)).unwrap();
        assert_eq!(
            p1.iter().map(|(l, _)| l.0).collect::<Vec<_>>(),
            vec![10, 30],
            "page 1's history from both inputs, ascending"
        );
        merged.verify().unwrap();
    }

    #[test]
    fn policy_thresholds() {
        let p = MergePolicy::leveled_default();
        assert!(!p.should_merge(3));
        assert!(p.should_merge(4));
        assert!(!MergePolicy::disabled().should_merge(1000));
    }
}
