//! The per-page replay rule (Section 5.1.4), written once.
//!
//! Every recovery path rebuilds a page from a source image by applying
//! the page's records oldest first, checking that "the log sequence number
//! of the prior log record is also the expected previous log sequence
//! number in the data page". This is the one place that decides whether a
//! record may be applied to a page:
//!
//! 1. a record for another page is an error;
//! 2. a format record or full-page image installs its image, stamped with
//!    its LSN, without reading the page;
//! 3. an update (self-committing or not) or CLR at or below the page's PageLSN is skipped;
//! 4. otherwise its chain pointer must equal the PageLSN and its op must
//!    fit the page, or it is an error; it is redone and the page stamped;
//! 5. any other record is not page content: single-page repair refuses
//!    it, the paths that scan the whole log skip it.
//!
//! The callers ([`crate::single_page`], [`crate::system_recovery`],
//! [`crate::media`]) choose only the source image and the records.

use std::fmt;

use spf_storage::{Page, PageId};
use spf_wal::{CompressedPageImage, LogPayload, LogRecord, Lsn, Misfit, PageOp};

/// Why the record at the first field's LSN may not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// It belongs to another page (named): a cross-linked chain.
    WrongPage(Lsn, PageId),
    /// Its chain pointer (second field) is not the PageLSN (third).
    ChainBroken(Lsn, Lsn, Lsn),
    /// It carries no page content (its kind).
    NotPageContent(Lsn, &'static str),
    /// Its op does not fit the page.
    Misfit(Lsn, Misfit),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::WrongPage(lsn, found) => write!(f, "chain reached {found} at {lsn}"),
            ReplayError::ChainBroken(lsn, expects, page_lsn) => write!(
                f,
                "per-page chain broken at {lsn}: record expects prior {expects} but page is at {page_lsn}"
            ),
            ReplayError::NotPageContent(lsn, kind) => write!(f, "unexpected {kind} at {lsn}"),
            ReplayError::Misfit(lsn, misfit) => write!(f, "record at {lsn} does not fit: {misfit}"),
        }
    }
}

/// What replaying one record needs from the page.
pub enum Step<'r> {
    /// Install this image ([`stamped`]) without reading the page.
    Install(&'r CompressedPageImage),
    /// [`redo`] this op, chained onto this LSN, on the page's contents.
    Redo(&'r PageOp, Lsn),
}

/// Classifies `record`, logged at `lsn`, for replay onto page `id`.
pub fn step(id: PageId, lsn: Lsn, record: &LogRecord) -> Result<Step<'_>, ReplayError> {
    if record.page_id != id {
        return Err(ReplayError::WrongPage(lsn, record.page_id));
    }
    match &record.payload {
        LogPayload::Update { op }
        | LogPayload::UpdateCommit { op }
        | LogPayload::Clr { op, .. } => Ok(Step::Redo(op, record.prev_page_lsn)),
        LogPayload::PageFormat { image } | LogPayload::FullPageImage { image } => {
            Ok(Step::Install(image))
        }
        other => Err(ReplayError::NotPageContent(lsn, other.kind_name())),
    }
}

/// The page a format record or full-page image logged at `lsn` installs.
#[must_use]
pub fn stamped(lsn: Lsn, image: &CompressedPageImage) -> Page {
    let mut page = image.restore();
    page.set_page_lsn(lsn.0);
    page
}

/// Redoes `op`, logged at `lsn` and chained onto `prev`, on `page`:
/// `Ok(false)` when the page already reflects it. On `Err` the page's
/// logical contents are unchanged.
pub fn redo(page: &mut Page, lsn: Lsn, op: &PageOp, prev: Lsn) -> Result<bool, ReplayError> {
    let page_lsn = Lsn(page.page_lsn());
    if lsn <= page_lsn {
        return Ok(false);
    }
    if prev != page_lsn {
        return Err(ReplayError::ChainBroken(lsn, prev, page_lsn));
    }
    op.redo(page).map_err(|e| ReplayError::Misfit(lsn, e))?;
    page.set_page_lsn(lsn.0);
    Ok(true)
}

/// [`step`], then [`stamped`] or [`redo`], on page `id` held in memory.
pub fn apply(
    page: &mut Page,
    id: PageId,
    lsn: Lsn,
    record: &LogRecord,
) -> Result<bool, ReplayError> {
    match step(id, lsn, record)? {
        Step::Install(image) => *page = stamped(lsn, image),
        Step::Redo(op, prev) => return redo(page, lsn, op, prev),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{PageType, SlottedPage, DEFAULT_PAGE_SIZE};
    use spf_wal::TxId;

    const ID: PageId = PageId(4);

    fn record(page_id: PageId, prev_page_lsn: u64, payload: LogPayload) -> LogRecord {
        LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id,
            prev_page_lsn: Lsn(prev_page_lsn),
            payload,
        }
    }

    fn insert(pos: u16) -> LogPayload {
        LogPayload::Update {
            op: PageOp::InsertRecord {
                pos,
                bytes: b"row".to_vec(),
                ghost: false,
            },
        }
    }

    /// One row per outcome of the rule: the record, its LSN, and what
    /// replaying it onto a one-record page at PageLSN 100 must give —
    /// `Ok((applied, slot count, PageLSN))` or the error's variant.
    #[test]
    fn the_replay_rule_one_row_per_outcome() {
        let mut base = Page::new_formatted(DEFAULT_PAGE_SIZE, ID, PageType::BTreeLeaf);
        SlottedPage::new(&mut base).push(b"fence", true).unwrap();
        base.set_page_lsn(100);
        let image = |slots: usize| {
            let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, ID, PageType::BTreeLeaf);
            for _ in 0..slots {
                SlottedPage::new(&mut page).push(b"img", false).unwrap();
            }
            CompressedPageImage::capture(&page)
        };
        type Want = Result<(bool, u16, u64), &'static str>;
        let rows: Vec<(&str, LogRecord, u64, Want)> = vec![
            (
                "applied",
                record(ID, 100, insert(1)),
                120,
                Ok((true, 2, 120)),
            ),
            (
                "at the PageLSN",
                record(ID, 90, insert(1)),
                100,
                Ok((false, 1, 100)),
            ),
            (
                "below the PageLSN",
                record(ID, 10, insert(1)),
                50,
                Ok((false, 1, 100)),
            ),
            (
                "wrong page",
                record(PageId(5), 100, insert(1)),
                120,
                Err("WrongPage"),
            ),
            (
                "broken chain",
                record(ID, 90, insert(1)),
                120,
                Err("ChainBroken"),
            ),
            (
                "format record installed",
                record(ID, 0, LogPayload::PageFormat { image: image(0) }),
                130,
                Ok((true, 0, 130)),
            ),
            (
                "full-page image installed below the PageLSN",
                record(ID, 0, LogPayload::FullPageImage { image: image(3) }),
                60,
                Ok((true, 3, 60)),
            ),
            (
                "not page content",
                record(
                    ID,
                    100,
                    LogPayload::PriUpdate {
                        page_lsn: Lsn(100),
                        backup: spf_wal::BackupRef::None,
                    },
                ),
                120,
                Err("NotPageContent"),
            ),
            (
                "op does not fit",
                record(ID, 100, insert(7)),
                120,
                Err("Misfit"),
            ),
        ];
        for (name, rec, lsn, want) in rows {
            let mut page = base.clone();
            let got = apply(&mut page, ID, Lsn(lsn), &rec);
            match (got, want) {
                (Ok(applied), Ok((w_applied, slots, page_lsn))) => {
                    assert_eq!(applied, w_applied, "{name}");
                    assert_eq!(page.slot_count(), slots, "{name}");
                    assert_eq!(page.page_lsn(), page_lsn, "{name}");
                }
                (Err(e), Err(variant)) => {
                    assert!(format!("{e:?}").starts_with(variant), "{name}: {e:?}");
                    assert!(e.to_string().contains(&format!("lsn:{lsn}")), "{name}: {e}");
                    assert_eq!(page.as_bytes(), base.as_bytes(), "{name}: page changed");
                }
                (got, want) => panic!("{name}: got {got:?}, want {want:?}"),
            }
        }
    }
}
