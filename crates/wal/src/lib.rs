//! # spf-wal
//!
//! Write-ahead log for the single-page-failure workspace (Graefe & Kuno,
//! VLDB 2012).
//!
//! The paper's recovery technique leans on two log-chain optimizations it
//! credits to "today's efficient implementations of logging and recovery"
//! (Sections 5.1.1, 5.1.4):
//!
//! * the **per-transaction log chain** — each record points to the prior
//!   record of the same transaction; drives transaction rollback;
//! * the **per-page log chain** — each record points to the prior record
//!   for the *same data page*; drives single-page recovery (and doubles as
//!   a redo-order cross-check during system recovery: the chain pointer of
//!   a record must equal the PageLSN found in the page, Section 5.1.4).
//!
//! On top of the usual record taxonomy (begin/commit/abort, physiological
//! page updates, CLRs, checkpoints) this log carries the paper's new
//! record type: the **page-recovery-index update** written after every
//! completed page write (Figure 11), which "subsumes the value of logging
//! completed writes" (Section 5.2.4).
//!
//! The log itself is a single virtual byte sequence. LSNs are byte
//! offsets, as in ARIES. The in-memory tail (the log buffer) becomes
//! durable on [`LogManager::force`]; a simulated crash discards the
//! unforced tail. "All discussions of recovery techniques assume that the
//! recovery log is on stable storage" (Section 5) — the stable prefix here
//! is exactly that assumption, while I/O costs of appends, forces, and
//! recovery-time reads are charged to the shared simulated clock.
//!
//! Because every layer funnels through the log, its hot paths are built
//! to scale with threads: appends reserve their byte range with one
//! atomic fetch-add and copy into a segmented buffer without an
//! exclusive lock, and forces combine through a group-commit protocol so
//! N concurrent committers pay ~1 flush. See the [`manager`] module docs
//! for the full scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod group_force;
mod segment;

pub mod manager;
pub mod record;
pub mod sink;

pub use manager::{LogError, LogManager, LogScanner, LogStats};
pub use record::{
    BackupRef, CompressedPageImage, LogPayload, LogRecord, Lsn, Misfit, PageOp, TxId,
};
pub use sink::{LogSink, WalFiles};
