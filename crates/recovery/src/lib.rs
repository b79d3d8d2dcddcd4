//! # spf-recovery
//!
//! The paper's contribution (Graefe & Kuno, VLDB 2012): the **page
//! recovery index**, **single-page recovery**, and their integration with
//! system and media recovery.
//!
//! | Module | Paper source |
//! |---|---|
//! | [`pri`] | §5.2.2, Figures 6, 7, 9 — the page recovery index: per page, the most recent backup location and the LSN of the most recent log record |
//! | [`backup`] | §5.2.1 — sources of backup pages: explicit copies, in-log images, format records, full backups |
//! | [`maintainer`] | §5.2.4, Figure 11 — PRI maintenance after completed writes, as unforced single-record system transactions; backup-every-N-updates policy (§6); the PageLSN cross-check on read (Figure 8) |
//! | [`replay`] | §5.1.4 — the per-page replay rule every recovery path below calls: PageLSN guard, chain-pointer check, format and full-image installs |
//! | [`single_page`] | §5.2.3, Figure 10 — the recovery procedure: restore backup, walk the per-page log chain backward onto a LIFO stack, pop and redo |
//! | [`system_recovery`] | §5.1.2, §5.2.5, Figure 12 — ARIES-style restart (analysis from the last checkpoint image, redo, undo) exploiting PRI records to skip redo reads and repairing PRI updates lost in the crash |
//! | [`media`] | §5.1.3 — full-device restore + log replay; also the mirror-style single-page repair baseline (§2) |
//! | [`failure`] | §3, Figure 1 — the failure-class taxonomy, and [`escalate`], the one place an unrepaired failure is escalated and recorded |
//!
//! ## Substitution note
//!
//! The paper stores the PRI in database pages (with a two-piece scheme so
//! no page covers itself). Here the PRI lives in memory — the paper itself
//! concludes "it seems reasonable to keep the page recovery index in
//! memory at all times" — and is made durable by every checkpoint's
//! image plus its own log records since: restart loads the image and
//! applies the tail. Experiment E5 reports both the paper's
//! 16-bytes-per-entry arithmetic and the image's measured bytes.
//!
//! ## Log-archive integration
//!
//! Every recovery path here is **archive-aware** (`spf-archive`): once
//! the WAL has been truncated at a safe LSN, single-page recovery
//! splices pre-truncation history from per-page-sorted archive runs
//! (and fetches truncated in-log backup sources — format records,
//! full-page images — from the archive), and media recovery replays
//! archived history sequentially ahead of the tail. Restart needs no
//! archive: the truncation rule never cuts below the last checkpoint
//! image's scan point, and analysis starts there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod failure;
pub mod maintainer;
pub mod media;
pub mod pri;
pub mod replay;
pub mod single_page;
pub mod system_recovery;

pub use backup::{BackupStats, BackupStore};
pub use failure::{escalate, FailureClass};
pub use maintainer::{BackupPolicy, MaintainerStats, PriMaintainer};
pub use media::{MediaRecovery, MediaReport, MirrorRepairReport};
pub use pri::{PageRecoveryIndex, PriEntry, PriRange, PriStats};
pub use single_page::{SinglePageRecovery, SpfStats};
pub use system_recovery::{CheckpointImage, RestartReport, SystemRecovery};
