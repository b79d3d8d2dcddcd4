//! # spf-util
//!
//! Shared low-level utilities for the `spf` workspace, the reproduction of
//! Graefe & Kuno, *"Definition, Detection, and Recovery of Single-Page
//! Failures"* (VLDB 2012).
//!
//! This crate deliberately has no dependencies. It provides:
//!
//! * [`crc`] — CRC-32C (Castagnoli), computed by the CPU's `crc32`
//!   instruction where there is one and by table-driven software elsewhere,
//!   used as the in-page checksum that drives single-page failure
//!   *detection*;
//! * [`codec`] — little-endian binary encoding helpers used by the page
//!   format and the log record format (the workspace hand-rolls its
//!   serialization, as a storage engine would);
//! * [`sim`] — a deterministic simulated clock and I/O cost model used to
//!   reproduce the paper's Section 6 performance arithmetic (e.g. "restoring
//!   a backup with 100 GB of data at 100 MB/s requires 1,000 s") without
//!   real hardware;
//! * [`hex`] — tiny hex-dump helpers used by diagnostics and examples;
//! * [`atomic_file`] — the create–rename–fsync protocol that saves a
//!   database directory's root metadata crash-atomically.

// `deny`, not the `forbid` of every other crate: `crc` holds the
// workspace's one exemption (the call into the SSE4.2 kernel) behind an
// item-level `allow`; see ARCHITECTURE.md, invariant 3.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod atomic_file;
pub mod codec;
pub mod crc;
pub mod hex;
pub mod sim;

pub use codec::{Decoder, Encoder};
pub use crc::{crc32c, crc32c_bytewise, crc32c_slice8, Crc32c};
pub use sim::{IoCostModel, IoKind, SimClock, SimDuration};
