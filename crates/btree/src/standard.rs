//! Baseline: a classic B+-tree with sibling pointers and no fence keys.
//!
//! This is the tree the paper contrasts against (Section 4.2): "For many
//! implemented variants of B-trees, comprehensive online consistency
//! checking is not possible or at least has not been invented yet."
//! Concretely, this baseline:
//!
//! * stores N−1 separator keys per branch (no low/high fences);
//! * chains leaves with next-sibling pointers (each leaf has *two*
//!   incoming pointers: parent and left sibling — which also forecloses
//!   the simple page migration of write-optimized B-trees);
//! * performs **no cross-page checks** during traversal: a corrupted but
//!   internally consistent page (wrong child pointer, stale image,
//!   swapped pages) silently produces wrong query results.
//!
//! In-page corruption is still caught by the buffer pool's checksum and
//! plausibility checks — the asymmetry experiment E2 measures is about
//! everything those *cannot* see.
//!
//! ## Node layout
//!
//! All slots are payload (no fence slots). Branch entries are
//! `(child, upper)` pairs with the last entry's upper = +∞ as a local
//! routing sentinel; leaves hold data records. The structure area stores
//! the level and the next-sibling page id.

use std::sync::Arc;

use spf_buffer::{BufferPool, PageWriteGuard};
use spf_obs::TraceCtx;
use spf_storage::{Page, PageId, PageType, SlottedPage};
use spf_txn::{TxKind, TxnManager};
use spf_wal::{Lsn, PageOp, TxId};

use crate::alloc::PageAllocator;
use crate::error::BTreeError;
use crate::keys::{decode_branch, decode_leaf, encode_branch, encode_leaf, Bound, BoundRef};
use crate::tree::{format_new, TreeStats};

const MAX_RETRIES: usize = 64;

/// The baseline B+-tree.
pub struct StandardBTree {
    pool: BufferPool,
    txn: TxnManager,
    alloc: Arc<dyn PageAllocator>,
    root: PageId,
    page_size: usize,
    stats: crate::tree::TreeStatCounters,
}

fn level_of(page: &Page) -> u8 {
    page.structure_area()[0]
}

fn next_sibling(page: &Page) -> PageId {
    PageId(u64::from_le_bytes(
        page.structure_area()[2..10].try_into().expect("8 bytes"),
    ))
}

fn structure(level: u8, next: PageId) -> Vec<u8> {
    let mut area = vec![0u8; 32];
    area[0] = level;
    area[2..10].copy_from_slice(&next.0.to_le_bytes());
    area
}

fn is_branch(page: &Page) -> bool {
    page.page_type() == Some(PageType::BTreeBranch)
}

impl StandardBTree {
    /// Creates a new tree with an empty leaf root.
    pub fn create(
        pool: BufferPool,
        txn: TxnManager,
        alloc: Arc<dyn PageAllocator>,
        root: PageId,
        page_size: usize,
    ) -> Result<Self, BTreeError> {
        let tree = Self {
            pool,
            txn,
            alloc,
            root,
            page_size,
            stats: crate::tree::TreeStatCounters::default(),
        };
        let sys = tree.txn.begin(TxKind::System);
        let mut image = Page::new_formatted(page_size, root, PageType::BTreeLeaf);
        image
            .structure_area_mut()
            .copy_from_slice(&structure(0, PageId::INVALID));
        format_new(&tree.pool, &tree.txn, sys, image)?;
        tree.txn.commit(sys, TraceCtx::NONE)?;
        tree.alloc.note_allocated(root);
        Ok(tree)
    }

    /// Opens an existing tree (e.g. after recovery).
    #[must_use]
    pub fn open(
        pool: BufferPool,
        txn: TxnManager,
        alloc: Arc<dyn PageAllocator>,
        root: PageId,
        page_size: usize,
    ) -> Self {
        Self {
            pool,
            txn,
            alloc,
            root,
            page_size,
            stats: crate::tree::TreeStatCounters::default(),
        }
    }

    /// The root page id.
    #[must_use]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        self.stats.snapshot()
    }

    fn corrupt(&self, page: PageId, detail: impl Into<String>) -> BTreeError {
        BTreeError::NodeCorrupt {
            page,
            detail: detail.into(),
        }
    }

    fn branch_entry<'p>(
        &self,
        page: &'p Page,
        pos: u16,
    ) -> Result<(PageId, BoundRef<'p>), BTreeError> {
        let (bytes, _) = page
            .record_at(pos)
            .ok_or_else(|| self.corrupt(page.page_id(), format!("missing slot {pos}")))?;
        let (child, upper) = decode_branch(bytes)
            .map_err(|e| self.corrupt(page.page_id(), format!("bad entry {pos}: {e}")))?;
        Ok((PageId(child), upper))
    }

    fn leaf_entry<'p>(
        &self,
        page: &'p Page,
        pos: u16,
    ) -> Result<(&'p [u8], &'p [u8], bool), BTreeError> {
        let (bytes, ghost) = page
            .record_at(pos)
            .ok_or_else(|| self.corrupt(page.page_id(), format!("missing slot {pos}")))?;
        let (k, v) = decode_leaf(bytes)
            .map_err(|e| self.corrupt(page.page_id(), format!("bad record {pos}: {e}")))?;
        Ok((k, v, ghost))
    }

    /// Routes `key` within a branch: the first entry whose upper > key.
    fn route(&self, page: &Page, key: &[u8]) -> Result<(u16, PageId), BTreeError> {
        let count = page.slot_count();
        if count == 0 {
            return Err(self.corrupt(page.page_id(), "empty branch"));
        }
        let (mut lo, mut hi) = (0u16, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (_, upper) = self.branch_entry(page, mid)?;
            if upper.cmp_key(key) == std::cmp::Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let pos = lo.min(count - 1);
        let (child, _) = self.branch_entry(page, pos)?;
        Ok((pos, child))
    }

    /// Binary search in a leaf: `(pos, exact)`.
    fn search_leaf(&self, page: &Page, key: &[u8]) -> Result<(u16, bool), BTreeError> {
        let (mut lo, mut hi) = (0u16, page.slot_count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, _, _) = self.leaf_entry(page, mid)?;
            match k.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok((mid, true)),
            }
        }
        Ok((lo, false))
    }

    fn descend(&self, key: &[u8]) -> Result<PageId, BTreeError> {
        let mut current = self.root;
        loop {
            let guard = self.pool.fetch(current)?;
            crate::tree::TreeStatCounters::bump(&self.stats.node_visits);
            if !is_branch(&guard) {
                return Ok(current);
            }
            // NOTE the absence of any cross-page verification here: the
            // child is trusted blindly.
            let (_, child) = self.route(&guard, key)?;
            current = child;
        }
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Looks up `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        let leaf = self.descend(key)?;
        let guard = self.pool.fetch(leaf)?;
        let (pos, exact) = self.search_leaf(&guard, key)?;
        if !exact {
            return Ok(None);
        }
        let (_, v, ghost) = self.leaf_entry(&guard, pos)?;
        Ok(if ghost { None } else { Some(v.to_vec()) })
    }

    /// Inserts `key → value`; duplicates are an error.
    pub fn insert(&self, tx: TxId, key: &[u8], value: &[u8]) -> Result<(), BTreeError> {
        let record = encode_leaf(key, value);
        if record.len() > self.page_size / 8 {
            return Err(BTreeError::RecordTooLarge {
                size: record.len(),
                max: self.page_size / 8,
            });
        }
        for _ in 0..MAX_RETRIES {
            let leaf = self.descend(key)?;
            let mut guard = self.pool.fetch_mut(leaf)?;
            let (pos, exact) = self.search_leaf(&guard, key)?;
            if exact {
                let (k, v, ghost) = self.leaf_entry(&guard, pos)?;
                if !ghost {
                    return Err(BTreeError::DuplicateKey);
                }
                let old = encode_leaf(k, v);
                if old != record {
                    self.apply_logged(
                        tx,
                        &mut guard,
                        PageOp::replace(pos, key.to_vec(), &old, &record),
                    )?;
                }
                self.apply_logged(
                    tx,
                    &mut guard,
                    PageOp::SetGhost {
                        pos,
                        key: key.to_vec(),
                        old: true,
                        new: false,
                    },
                )?;
                return Ok(());
            }
            let need = record.len() + spf_storage::slotted::SLOT_SIZE;
            if SlottedPage::new(&mut guard).total_free_space() < need {
                drop(guard);
                self.split_path(key)?;
                continue;
            }
            self.apply_logged(
                tx,
                &mut guard,
                PageOp::InsertRecord {
                    pos,
                    bytes: record,
                    ghost: false,
                },
            )?;
            return Ok(());
        }
        Err(BTreeError::TooManyRetries {
            retries: MAX_RETRIES,
        })
    }

    /// Logically deletes `key` (ghost bit).
    pub fn delete(&self, tx: TxId, key: &[u8]) -> Result<Vec<u8>, BTreeError> {
        let leaf = self.descend(key)?;
        let mut guard = self.pool.fetch_mut(leaf)?;
        let (pos, exact) = self.search_leaf(&guard, key)?;
        if !exact {
            return Err(BTreeError::KeyNotFound);
        }
        let (_, v, ghost) = self.leaf_entry(&guard, pos)?;
        if ghost {
            return Err(BTreeError::KeyNotFound);
        }
        let old = v.to_vec();
        self.apply_logged(
            tx,
            &mut guard,
            PageOp::SetGhost {
                pos,
                key: key.to_vec(),
                old: false,
                new: true,
            },
        )?;
        Ok(old)
    }

    /// Range scan via sibling pointers (the classic B+-tree way).
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<crate::KvPairs, BTreeError> {
        let mut out = Vec::new();
        let mut current = self.descend(start)?;
        while current.is_valid() {
            let guard = self.pool.fetch(current)?;
            for pos in 0..guard.slot_count() {
                let (k, v, ghost) = self.leaf_entry(&guard, pos)?;
                if ghost || k < start {
                    continue;
                }
                out.push((k.to_vec(), v.to_vec()));
                if out.len() >= limit {
                    return Ok(out);
                }
            }
            current = next_sibling(&guard);
        }
        Ok(out)
    }

    /// Every live record in key order.
    pub fn collect_all(&self) -> Result<crate::KvPairs, BTreeError> {
        self.scan(&[], usize::MAX)
    }

    // ------------------------------------------------------------------
    // Splits (eager, propagating to the root)
    // ------------------------------------------------------------------

    fn apply_logged(
        &self,
        tx: TxId,
        guard: &mut PageWriteGuard,
        op: PageOp,
    ) -> Result<Lsn, BTreeError> {
        let prev = Lsn(guard.page_lsn());
        let (lsn, op) = self.txn.log_update(tx, guard.page_id(), prev, op)?;
        op.redo(&mut *guard)
            .expect("op fits: the page is latched in its pre-op state");
        guard.mark_dirty(lsn);
        Ok(lsn)
    }

    /// Splits the full leaf on the path to `key`, propagating splits up
    /// through full ancestors (splitting top-down as needed).
    fn split_path(&self, key: &[u8]) -> Result<(), BTreeError> {
        // Collect the root-to-leaf path.
        let mut path = Vec::new();
        let mut current = self.root;
        loop {
            path.push(current);
            let guard = self.pool.fetch(current)?;
            if !is_branch(&guard) {
                break;
            }
            let (_, child) = self.route(&guard, key)?;
            current = child;
        }

        let sys = self.txn.begin(TxKind::System);
        let result = self.split_leaf_upward(sys, &path);
        match result {
            Ok(()) => {
                self.txn.commit(sys, TraceCtx::NONE)?;
                Ok(())
            }
            Err(e) => {
                let _ = self.txn.abort(sys, &crate::tree::PoolUndo::new(&self.pool));
                Err(e)
            }
        }
    }

    fn split_leaf_upward(&self, sys: TxId, path: &[PageId]) -> Result<(), BTreeError> {
        let leaf = *path.last().expect("path never empty");
        let (child_sep, new_child) = self.split_node(sys, leaf)?;
        // Install (child_sep, new_child) into the parent, splitting it
        // if full.
        let level_idx = path.len().saturating_sub(2);
        if path.len() <= 1 {
            // The split node *was* the root: grow the tree.
            self.grow_root(sys, child_sep, new_child)?;
            return Ok(());
        }
        let parent = path[level_idx];
        let mut pguard = self.pool.fetch_mut(parent)?;
        // Find the entry pointing at the split child to place the new
        // entry after it.
        let split_child = if level_idx + 1 < path.len() {
            path[level_idx + 1]
        } else {
            leaf
        };
        let mut entry_pos = None;
        for pos in 0..pguard.slot_count() {
            let (c, _) = self.branch_entry(&pguard, pos)?;
            if c == split_child {
                entry_pos = Some(pos);
                break;
            }
        }
        let entry_pos =
            entry_pos.ok_or_else(|| self.corrupt(parent, "lost track of child during split"))?;
        let old_upper = self.branch_entry(&pguard, entry_pos)?.1.to_bound();

        let new_entry = encode_branch(new_child.0, &old_upper);
        let need = new_entry.len() + spf_storage::slotted::SLOT_SIZE;
        if SlottedPage::new(&mut pguard).total_free_space() < need {
            // Parent full: split it first, then retry the insertion at
            // whichever half now routes the child. For simplicity,
            // split the parent and retry the entire operation.
            drop(pguard);
            let (psep, pright) = self.split_node(sys, parent)?;
            if level_idx == 0 {
                self.grow_root(sys, psep, pright)?;
            }
            // Re-find the proper parent by routing. One retry level is
            // enough because the parent now has free space.
            let target = self.find_parent_of(split_child, child_sep.clone())?;
            let mut pguard = self.pool.fetch_mut(target)?;
            let mut entry_pos = None;
            for pos in 0..pguard.slot_count() {
                let (c, _) = self.branch_entry(&pguard, pos)?;
                if c == split_child {
                    entry_pos = Some(pos);
                    break;
                }
            }
            let entry_pos =
                entry_pos.ok_or_else(|| self.corrupt(target, "lost child after parent split"))?;
            let old_upper = self.branch_entry(&pguard, entry_pos)?.1.to_bound();
            self.apply_logged(
                sys,
                &mut pguard,
                PageOp::replace(
                    entry_pos,
                    Vec::new(),
                    &encode_branch(split_child.0, &old_upper),
                    &encode_branch(split_child.0, &child_sep),
                ),
            )?;
            self.apply_logged(
                sys,
                &mut pguard,
                PageOp::InsertRecord {
                    pos: entry_pos + 1,
                    bytes: encode_branch(new_child.0, &old_upper),
                    ghost: false,
                },
            )?;
            return Ok(());
        }

        self.apply_logged(
            sys,
            &mut pguard,
            PageOp::replace(
                entry_pos,
                Vec::new(),
                &encode_branch(split_child.0, &old_upper),
                &encode_branch(split_child.0, &child_sep),
            ),
        )?;
        self.apply_logged(
            sys,
            &mut pguard,
            PageOp::InsertRecord {
                pos: entry_pos + 1,
                bytes: encode_branch(new_child.0, &old_upper),
                ghost: false,
            },
        )?;
        Ok(())
    }

    /// Finds the branch holding the entry for `child` by routing `sep`.
    fn find_parent_of(&self, child: PageId, sep: Bound) -> Result<PageId, BTreeError> {
        let key = match &sep {
            Bound::Key(k) => k.clone(),
            _ => Vec::new(),
        };
        let mut current = self.root;
        loop {
            let guard = self.pool.fetch(current)?;
            if !is_branch(&guard) {
                return Err(self.corrupt(current, "descended past branches seeking parent"));
            }
            for pos in 0..guard.slot_count() {
                let (c, _) = self.branch_entry(&guard, pos)?;
                if c == child {
                    return Ok(current);
                }
            }
            let (_, next) = self.route(&guard, &key)?;
            current = next;
        }
    }

    /// Splits `pid` in half; returns `(separator, right page)`.
    fn split_node(&self, sys: TxId, pid: PageId) -> Result<(Bound, PageId), BTreeError> {
        let mut guard = self.pool.fetch_mut(pid)?;
        let count = guard.slot_count();
        if count < 2 {
            return Err(BTreeError::RecordTooLarge {
                size: self.page_size,
                max: self.page_size / 8,
            });
        }
        let split_pos = count / 2;
        let branch = is_branch(&guard);
        let level = level_of(&guard);
        let old_next = next_sibling(&guard);

        let separator = if branch {
            self.branch_entry(&guard, split_pos - 1)?.1.to_bound()
        } else {
            let (k, _, _) = self.leaf_entry(&guard, split_pos)?;
            Bound::Key(k.to_vec())
        };

        let moved: Vec<(Vec<u8>, bool)> = (split_pos..count)
            .map(|pos| {
                let (bytes, ghost) = guard
                    .record_at(pos)
                    .ok_or_else(|| self.corrupt(pid, format!("missing slot {pos}")))?;
                Ok((bytes.to_vec(), ghost))
            })
            .collect::<Result<_, BTreeError>>()?;

        let new_pid = self.alloc.allocate().ok_or(BTreeError::AllocFailed)?;
        let ptype = if branch {
            PageType::BTreeBranch
        } else {
            PageType::BTreeLeaf
        };
        let mut image = Page::new_formatted(self.page_size, new_pid, ptype);
        image
            .structure_area_mut()
            .copy_from_slice(&structure(level, old_next));
        {
            let mut sp = SlottedPage::new(&mut image);
            for (bytes, ghost) in &moved {
                sp.push(bytes, *ghost)
                    .expect("half a node fits a fresh page");
            }
        }
        format_new(&self.pool, &self.txn, sys, image)?;

        self.apply_logged(
            sys,
            &mut guard,
            PageOp::RemoveRange {
                pos: split_pos,
                records: moved,
            },
        )?;
        if !branch {
            self.apply_logged(
                sys,
                &mut guard,
                PageOp::WriteStructure {
                    old: structure(level, old_next),
                    new: structure(level, new_pid),
                },
            )?;
        }
        let counter = if branch {
            &self.stats.branch_splits
        } else {
            &self.stats.leaf_splits
        };
        crate::tree::TreeStatCounters::bump(counter);
        Ok((separator, new_pid))
    }

    /// The root split: its content moves to a new page; the root becomes a
    /// two-entry branch (stable root id).
    fn grow_root(&self, sys: TxId, sep: Bound, right: PageId) -> Result<(), BTreeError> {
        let guard = self.pool.fetch(self.root)?;
        let level = level_of(&guard);
        let copy_pid = self.alloc.allocate().ok_or(BTreeError::AllocFailed)?;
        let mut copy = (*guard).clone();
        drop(guard);
        copy.set_page_id(copy_pid);
        copy.reset_update_count();
        format_new(&self.pool, &self.txn, sys, copy)?;

        let mut new_root = Page::new_formatted(self.page_size, self.root, PageType::BTreeBranch);
        new_root
            .structure_area_mut()
            .copy_from_slice(&structure(level + 1, PageId::INVALID));
        {
            let mut sp = SlottedPage::new(&mut new_root);
            sp.push(&encode_branch(copy_pid.0, &sep), false)
                .expect("fits");
            sp.push(&encode_branch(right.0, &Bound::PosInf), false)
                .expect("fits");
        }
        format_new(&self.pool, &self.txn, sys, new_root)?;
        crate::tree::TreeStatCounters::bump(&self.stats.root_growths);
        Ok(())
    }

    /// What verification this tree *can* do: in-node ordering only. The
    /// contrast with [`crate::FosterBTree::verify_full`] is experiment E2.
    pub fn verify_in_node_only(&self) -> Result<Vec<crate::tree::Violation>, BTreeError> {
        let mut violations = Vec::new();
        let mut stack = vec![self.root];
        let mut seen = std::collections::HashSet::new();
        while let Some(pid) = stack.pop() {
            if !seen.insert(pid) {
                continue;
            }
            let guard = match self.pool.fetch(pid) {
                Ok(g) => g,
                Err(e) => {
                    violations.push(crate::tree::Violation {
                        page: pid,
                        detail: format!("unreadable: {e}"),
                    });
                    continue;
                }
            };
            if is_branch(&guard) {
                let mut prev: Option<BoundRef<'_>> = None;
                for pos in 0..guard.slot_count() {
                    match self.branch_entry(&guard, pos) {
                        Ok((child, upper)) => {
                            if let Some(p) = prev {
                                if upper <= p {
                                    violations.push(crate::tree::Violation {
                                        page: pid,
                                        detail: format!("entries out of order at slot {pos}"),
                                    });
                                }
                            }
                            prev = Some(upper);
                            stack.push(child);
                        }
                        Err(e) => violations.push(crate::tree::Violation {
                            page: pid,
                            detail: e.to_string(),
                        }),
                    }
                }
            } else {
                let mut prev: Option<Vec<u8>> = None;
                for pos in 0..guard.slot_count() {
                    match self.leaf_entry(&guard, pos) {
                        Ok((k, _, _)) => {
                            if let Some(p) = &prev {
                                if k <= p.as_slice() {
                                    violations.push(crate::tree::Violation {
                                        page: pid,
                                        detail: format!("keys out of order at slot {pos}"),
                                    });
                                }
                            }
                            prev = Some(k.to_vec());
                        }
                        Err(e) => violations.push(crate::tree::Violation {
                            page: pid,
                            detail: e.to_string(),
                        }),
                    }
                }
            }
        }
        Ok(violations)
    }
}
