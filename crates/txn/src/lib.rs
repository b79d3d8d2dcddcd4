//! # spf-txn
//!
//! Transaction management for the single-page-failure workspace (Graefe &
//! Kuno, VLDB 2012): user transactions, the paper's **system
//! transactions**, rollback over the per-transaction log chain, and a
//! small exclusive lock table.
//!
//! The paper's Figure 5 contrasts the two transaction kinds; this crate
//! implements exactly that table:
//!
//! | | user transaction | system transaction |
//! |---|---|---|
//! | invocation | application request | system-internal logic |
//! | database effects | logical contents | representation only (contents-neutral) |
//! | locks | acquires locks | none |
//! | commit | **forces the log** | no force — "their commit log records will be forced to stable storage prior to (or with) the commit log record of any dependent user transactions" |
//!
//! The page recovery index is maintained by system transactions
//! (Section 5.2.4): "while each update of the page recovery index could
//! and should be a transaction, it could be treated as a system
//! transaction, which does not require forcing the log upon commit."

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lock;
pub mod manager;

pub use lock::{LockError, LockTable};
pub use manager::{LogClr, SysAttempt, TxError, TxKind, TxnManager, TxnStats, UndoTarget};
