//! # spf-storage
//!
//! Page formats and simulated storage devices for the single-page-failure
//! workspace (Graefe & Kuno, VLDB 2012).
//!
//! The paper defines a single-page failure as "all failures to read a data
//! page correctly and with plausible contents despite all correction
//! attempts in lower system levels". This crate supplies both halves of
//! that sentence:
//!
//! * the *page format* ([`page`], [`slotted`]) defines what "correctly and
//!   with plausible contents" means — a CRC-32C checksum, a
//!   self-identifying page id, a PageLSN, and a slotted record layout whose
//!   offsets and lengths can be validated ("analysis of all byte offsets
//!   and lengths in the page header and in the indirection vector",
//!   Section 4.2);
//! * the *device layer* ([`device`], [`file_device`], [`fault`]) supplies
//!   the failures: one [`Device`] over a RAM or a file store, with a
//!   deterministic fault injector that can corrupt pages silently, fail
//!   reads outright, drop writes (stale/lost writes — the anecdote in the
//!   paper's introduction), tear writes, wear pages out after a write
//!   budget, or fail the whole device (escalation to a media failure,
//!   paper Figure 1).
//!
//! A device charges each I/O to a shared [`spf_util::SimClock`] per its
//! [`spf_util::IoCostModel`], so that experiments reproduce the paper's
//! Section 6 performance arithmetic deterministically. A device built
//! with the free model charges nothing: real device time is then the
//! measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod file_device;
pub mod mirror;
pub mod page;
pub mod slotted;

pub use device::{Device, DeviceStats, StorageDevice, StorageError};
pub use fault::{CorruptionMode, FaultInjector, FaultSpec};
pub use mirror::MirrorPair;
pub use page::{Page, PageDefect, PageId, PageType, DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE};
pub use slotted::{SlotId, SlottedPage};
