//! A minimal exclusive lock table for user transactions.
//!
//! System transactions never appear here: the paper's Figure 5 notes they
//! rely on latches only. User transactions take exclusive key locks before
//! updates; conflicts fail fast: a second writer of a key is refused with
//! an error, not queued, so no thread ever waits on a key lock and no
//! deadlock can form; the refused caller decides whether to retry. The
//! table keeps the transaction semantics honest under concurrent
//! writers, not fair.

use std::collections::HashMap;

use parking_lot::Mutex;

use spf_wal::TxId;

/// Lock acquisition failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockError {
    /// The key that was contended.
    pub key: u64,
    /// The transaction currently holding it.
    pub holder: TxId,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key {:#x} is locked by {}", self.key, self.holder)
    }
}

impl std::error::Error for LockError {}

/// Exclusive key-hash lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: Mutex<HashMap<u64, TxId>>,
}

impl LockTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires an exclusive lock on `key` for `tx`. Re-acquisition by the
    /// holder succeeds; a conflict fails immediately.
    pub fn lock(&self, tx: TxId, key: u64) -> Result<(), LockError> {
        let mut locks = self.locks.lock();
        match locks.get(&key) {
            Some(&holder) if holder != tx => Err(LockError { key, holder }),
            _ => {
                locks.insert(key, tx);
                Ok(())
            }
        }
    }

    /// Releases every lock held by `tx` (commit or abort).
    pub fn release_all(&self, tx: TxId) {
        self.locks.lock().retain(|_, holder| *holder != tx);
    }

    /// Number of locks currently held.
    #[must_use]
    pub fn held(&self) -> usize {
        self.locks.lock().len()
    }

    /// Clears the table (crash simulation: locks are volatile).
    pub fn clear(&self) {
        self.locks.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_semantics() {
        let table = LockTable::new();
        let a = TxId(1);
        let b = TxId(2);
        table.lock(a, 42).unwrap();
        table.lock(a, 42).unwrap(); // re-entrant for the holder
        assert_eq!(table.lock(b, 42), Err(LockError { key: 42, holder: a }));
        table.lock(b, 43).unwrap();
        assert_eq!(table.held(), 2);
    }

    #[test]
    fn release_all_frees_only_own_locks() {
        let table = LockTable::new();
        table.lock(TxId(1), 1).unwrap();
        table.lock(TxId(1), 2).unwrap();
        table.lock(TxId(2), 3).unwrap();
        table.release_all(TxId(1));
        assert_eq!(table.held(), 1);
        table.lock(TxId(2), 1).unwrap();
    }

    #[test]
    fn clear_models_crash() {
        let table = LockTable::new();
        table.lock(TxId(1), 1).unwrap();
        table.clear();
        assert_eq!(table.held(), 0);
    }
}
