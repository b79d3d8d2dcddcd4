//! Typed, read-only view over a B-tree node page, plus node-image
//! builders used by formats and splits.
//!
//! ## Uniform node layout (both levels)
//!
//! ```text
//! slot 0:          low fence   (ghost; Bound)
//! slot 1..p:       payload     (leaf: data records; branch: entries)
//! [slot p:         foster separator (ghost; Bound) — only when the
//!                   foster flag is set]
//! slot count-1:    high fence  (ghost; Bound) — the high fence of the
//!                   entire foster chain ("each foster parent carries the
//!                   high fence key of the entire chain", Figure 3)
//! ```
//!
//! The 32-byte structure area holds `level` (0 = leaf), a foster flag,
//! and the foster child's page id. Branch entries are `(child, upper)`
//! pairs: entry *i* routes keys in `[upper_{i-1}, upper_i)` (with
//! `upper_0` = the low fence), so a branch with N children carries N+1
//! key values — exactly the paper's fence-key count.

use std::cmp::Ordering;

use spf_storage::{Page, PageId, PageType};

use crate::error::BTreeError;
use crate::keys::{
    decode_branch, decode_fence, decode_leaf, encode_branch, encode_fence, encode_leaf, Bound,
    BoundRef,
};

/// Leaf or branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Level 0: holds data records.
    Leaf,
    /// Level ≥ 1: holds child entries.
    Branch,
}

const FLAG_FOSTER: u8 = 0x01;

/// Where a key search in a node leads. The bounds a pointer promises
/// about its target borrow from the routed node's page, so they are valid
/// exactly as long as that page's latch is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Descent<'a> {
    /// Follow the foster pointer: the key lies in `[separator, high)`.
    Foster {
        /// The foster child.
        child: PageId,
        /// The foster separator (child's expected low fence).
        separator: BoundRef<'a>,
        /// The chain's high fence (child's expected high fence).
        high: BoundRef<'a>,
    },
    /// Follow a branch entry. Only a node with level ≥ 1 routes here.
    Child {
        /// Slot of the entry.
        pos: u16,
        /// The child.
        child: PageId,
        /// The child's expected low fence.
        low: BoundRef<'a>,
        /// The child's expected high fence.
        high: BoundRef<'a>,
    },
    /// The key belongs in this leaf at `pos` (exact hit or insert point).
    Leaf {
        /// Slot position.
        pos: u16,
        /// True if the slot holds exactly this key.
        exact: bool,
    },
}

/// Read-only node accessor. Construct one per page visit; it caches
/// nothing and never mutates.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    page: &'a Page,
}

impl<'a> NodeView<'a> {
    /// Wraps `page`, validating that it is a B-tree node with a sane slot
    /// layout (≥ 2 slots: the two fences).
    #[inline]
    pub fn new(page: &'a Page) -> Result<Self, BTreeError> {
        let view = Self { page };
        match page.page_type() {
            Some(PageType::BTreeLeaf) | Some(PageType::BTreeBranch) => {}
            other => {
                return Err(BTreeError::NodeCorrupt {
                    page: page.page_id(),
                    detail: format!("not a B-tree node: {other:?}"),
                })
            }
        }
        let min_slots = if view.has_foster() { 3 } else { 2 };
        if page.slot_count() < min_slots {
            return Err(BTreeError::NodeCorrupt {
                page: page.page_id(),
                detail: format!(
                    "node needs at least {min_slots} slots (fences), has {}",
                    page.slot_count()
                ),
            });
        }
        Ok(view)
    }

    /// This node's page id.
    #[inline]
    #[must_use]
    pub fn id(&self) -> PageId {
        self.page.page_id()
    }

    /// Leaf or branch, from the page type.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        match self.page.page_type() {
            Some(PageType::BTreeBranch) => NodeKind::Branch,
            _ => NodeKind::Leaf,
        }
    }

    /// Tree level: 0 for leaves.
    #[inline]
    #[must_use]
    pub fn level(&self) -> u8 {
        self.page.structure_area()[0]
    }

    /// True if this node currently has a foster child.
    #[inline]
    #[must_use]
    pub fn has_foster(&self) -> bool {
        self.page.structure_area()[1] & FLAG_FOSTER != 0
    }

    /// The foster child's page id (valid only when [`has_foster`]).
    ///
    /// [`has_foster`]: NodeView::has_foster
    #[inline]
    #[must_use]
    pub fn foster_pid(&self) -> PageId {
        let area = self.page.structure_area();
        PageId(u64::from_le_bytes(area[2..10].try_into().expect("8 bytes")))
    }

    #[cold]
    fn corrupt(&self, detail: impl Into<String>) -> BTreeError {
        BTreeError::NodeCorrupt {
            page: self.id(),
            detail: detail.into(),
        }
    }

    /// The raw record at `slot`; `what` names the slot's role in the
    /// corruption error when the slot directory does not reach that far.
    #[inline]
    fn record(&self, slot: u16, what: &str) -> Result<(&'a [u8], bool), BTreeError> {
        self.page
            .record_at(slot)
            .ok_or_else(|| self.corrupt(format!("missing {what} slot {slot}")))
    }

    #[inline]
    fn fence_at(&self, slot: u16) -> Result<BoundRef<'a>, BTreeError> {
        let (bytes, _ghost) = self.record(slot, "fence")?;
        decode_fence(bytes).map_err(|e| self.corrupt(format!("bad fence at slot {slot}: {e}")))
    }

    /// The low fence key (slot 0).
    #[inline]
    pub fn low_fence(&self) -> Result<BoundRef<'a>, BTreeError> {
        self.fence_at(0)
    }

    /// The high fence key (last slot) — the high fence of the entire
    /// foster chain when a foster child exists.
    #[inline]
    pub fn high_fence(&self) -> Result<BoundRef<'a>, BTreeError> {
        self.fence_at(self.page.slot_count() - 1)
    }

    /// The foster separator (slot count−2, only when the flag is set).
    #[inline]
    pub fn foster_separator(&self) -> Result<BoundRef<'a>, BTreeError> {
        debug_assert!(self.has_foster());
        self.fence_at(self.page.slot_count() - 2)
    }

    /// Payload slot range `[start, end)`: data records or branch entries.
    #[inline]
    #[must_use]
    pub fn payload_range(&self) -> std::ops::Range<u16> {
        let end = self.page.slot_count() - 1 - u16::from(self.has_foster());
        1..end
    }

    /// Number of payload slots.
    #[must_use]
    pub fn payload_len(&self) -> u16 {
        let r = self.payload_range();
        r.end - r.start
    }

    /// Decodes the leaf record at `pos` into `(key, value, ghost)`.
    #[inline]
    pub fn leaf_entry(&self, pos: u16) -> Result<(&'a [u8], &'a [u8], bool), BTreeError> {
        let (bytes, ghost) = self.record(pos, "leaf")?;
        let (k, v) =
            decode_leaf(bytes).map_err(|e| self.corrupt(format!("bad leaf record {pos}: {e}")))?;
        Ok((k, v, ghost))
    }

    /// Decodes the branch entry at `pos` into `(child, upper)`.
    #[inline]
    pub fn branch_entry(&self, pos: u16) -> Result<(PageId, BoundRef<'a>), BTreeError> {
        let (bytes, _ghost) = self.record(pos, "branch")?;
        let (child, upper) = decode_branch(bytes)
            .map_err(|e| self.corrupt(format!("bad branch entry {pos}: {e}")))?;
        Ok((PageId(child), upper))
    }

    /// Routes `key` one step: to the foster child, a branch child, or a
    /// leaf slot. Allocation-free: the bounds in the result borrow from
    /// this node's page.
    pub fn route(&self, key: &[u8]) -> Result<Descent<'a>, BTreeError> {
        if self.has_foster() {
            let sep = self.foster_separator()?;
            if sep.cmp_key(key) != Ordering::Greater {
                return Ok(Descent::Foster {
                    child: self.foster_pid(),
                    separator: sep,
                    high: self.high_fence()?,
                });
            }
        }
        match self.kind() {
            NodeKind::Leaf => {
                let (pos, exact) = self.search_leaf(key)?;
                Ok(Descent::Leaf { pos, exact })
            }
            NodeKind::Branch => {
                if self.level() == 0 {
                    // The children of a branch sit one level down; there
                    // is no level below 0 to expect of them.
                    return Err(self.corrupt("branch node with level 0"));
                }
                let range = self.payload_range();
                if range.is_empty() {
                    return Err(self.corrupt("branch with no entries"));
                }
                // Binary search: first entry whose upper bound > key.
                let (mut lo, mut hi) = (range.start, range.end);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let (_, upper) = self.branch_entry(mid)?;
                    if upper.cmp_key(key) == Ordering::Greater {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                if lo >= range.end {
                    return Err(self.corrupt(format!(
                        "key {} above every branch entry",
                        spf_util::hex::hex_preview(key, 8)
                    )));
                }
                let (child, upper) = self.branch_entry(lo)?;
                let low = if lo == range.start {
                    self.low_fence()?
                } else {
                    self.branch_entry(lo - 1)?.1
                };
                Ok(Descent::Child {
                    pos: lo,
                    child,
                    low,
                    high: upper,
                })
            }
        }
    }

    /// Binary search among leaf data records: `(slot, exact)` where slot
    /// is the match or insertion position.
    pub fn search_leaf(&self, key: &[u8]) -> Result<(u16, bool), BTreeError> {
        debug_assert_eq!(self.kind(), NodeKind::Leaf);
        let range = self.payload_range();
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (k, _, _) = self.leaf_entry(mid)?;
            match k.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok((mid, true)),
            }
        }
        Ok((lo, false))
    }

    /// In-node invariant check (Section 4.2's "incremental, instantaneous
    /// error detection"): fences are ghosts and ordered, payload is sorted
    /// strictly within the fences, branch entries' last upper equals the
    /// chain boundary. Returns every violation found.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        let low = match self.low_fence() {
            Ok(b) => b,
            Err(e) => {
                out.push(e.to_string());
                return out;
            }
        };
        let high = match self.high_fence() {
            Ok(b) => b,
            Err(e) => {
                out.push(e.to_string());
                return out;
            }
        };
        if low >= high {
            out.push(format!("fences out of order: [{low}, {high})"));
        }
        for slot in [0, self.page.slot_count() - 1] {
            if let Some((_, ghost)) = self.page.record_at(slot) {
                if !ghost {
                    out.push(format!("fence slot {slot} is not a ghost record"));
                }
            }
        }
        let chain_upper = if self.has_foster() {
            match self.foster_separator() {
                Ok(sep) => {
                    if sep <= low || sep >= high {
                        out.push(format!("foster separator {sep} outside ({low}, {high})"));
                    }
                    sep
                }
                Err(e) => {
                    out.push(e.to_string());
                    high
                }
            }
        } else {
            high
        };

        match self.kind() {
            NodeKind::Leaf => {
                let mut prev: Option<&[u8]> = None;
                for pos in self.payload_range() {
                    match self.leaf_entry(pos) {
                        Ok((k, _, _)) => {
                            if low.cmp_key(k) == Ordering::Greater {
                                out.push(format!("leaf key at slot {pos} below low fence"));
                            }
                            if chain_upper.cmp_key(k) != Ordering::Greater {
                                out.push(format!("leaf key at slot {pos} at/above upper bound"));
                            }
                            if prev.is_some_and(|p| p >= k) {
                                out.push(format!("leaf keys out of order at slot {pos}"));
                            }
                            prev = Some(k);
                        }
                        Err(e) => out.push(e.to_string()),
                    }
                }
            }
            NodeKind::Branch => {
                if self.level() == 0 {
                    out.push("branch node with level 0".to_string());
                }
                let mut prev = low;
                let range = self.payload_range();
                if range.is_empty() {
                    out.push("branch with no entries".to_string());
                }
                for pos in range {
                    match self.branch_entry(pos) {
                        Ok((child, upper)) => {
                            if !child.is_valid() {
                                out.push(format!("invalid child pointer at slot {pos}"));
                            }
                            if upper <= prev {
                                out.push(format!("branch uppers out of order at slot {pos}"));
                            }
                            prev = upper;
                        }
                        Err(e) => out.push(e.to_string()),
                    }
                }
                if prev != chain_upper {
                    out.push(format!(
                        "last branch upper {prev} != chain upper {chain_upper}"
                    ));
                }
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Node-image builders (used by formats and splits)
// ----------------------------------------------------------------------

/// Writes `level`, foster flag, and foster pid into a fresh page's
/// structure area.
fn write_structure(page: &mut Page, level: u8, foster: Option<PageId>) {
    let area = page.structure_area_mut();
    area[0] = level;
    area[1] = if foster.is_some() { FLAG_FOSTER } else { 0 };
    let pid = foster.unwrap_or(PageId::INVALID);
    area[2..10].copy_from_slice(&pid.0.to_le_bytes());
}

/// Serializes the structure area a [`spf_wal::PageOp::WriteStructure`]
/// needs for setting foster state.
#[must_use]
pub fn structure_bytes(level: u8, foster: Option<PageId>) -> Vec<u8> {
    let mut area = vec![0u8; 32];
    area[0] = level;
    area[1] = if foster.is_some() { FLAG_FOSTER } else { 0 };
    let pid = foster.unwrap_or(PageId::INVALID);
    area[2..10].copy_from_slice(&pid.0.to_le_bytes());
    area
}

/// A payload record for a node image: already-encoded bytes plus ghost bit.
pub type RawRecord = (Vec<u8>, bool);

/// Builds a complete node image: fences, payload, optional foster state.
///
/// # Panics
/// Panics if the records do not fit — builders are used for fresh nodes
/// holding at most half of an existing node, which always fits.
#[must_use]
pub fn build_node(
    page_size: usize,
    id: PageId,
    kind: NodeKind,
    level: u8,
    fences: (&Bound, &Bound),
    payload: &[RawRecord],
    foster: Option<(PageId, &Bound)>,
) -> Page {
    let (low, high) = fences;
    let ptype = match kind {
        NodeKind::Leaf => PageType::BTreeLeaf,
        NodeKind::Branch => PageType::BTreeBranch,
    };
    let mut page = Page::new_formatted(page_size, id, ptype);
    write_structure(&mut page, level, foster.map(|(pid, _)| pid));
    {
        let mut sp = spf_storage::SlottedPage::new(&mut page);
        sp.push(&encode_fence(low), true).expect("low fence fits");
        for (bytes, ghost) in payload {
            sp.push(bytes, *ghost).expect("payload fits in fresh node");
        }
        if let Some((_, sep)) = foster {
            sp.push(&encode_fence(sep), true)
                .expect("foster separator fits");
        }
        sp.push(&encode_fence(high), true).expect("high fence fits");
    }
    page
}

/// Builds an empty leaf: the initial tree (paper Section 4.2: a leaf
/// always holds at least two key values, the fences, one of which is a
/// ghost — here both are).
#[must_use]
pub fn build_empty_leaf(page_size: usize, id: PageId) -> Page {
    build_node(
        page_size,
        id,
        NodeKind::Leaf,
        0,
        (&Bound::NegInf, &Bound::PosInf),
        &[],
        None,
    )
}

/// Convenience: encodes a leaf data record.
#[must_use]
pub fn leaf_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    encode_leaf(key, value)
}

/// Convenience: encodes a branch entry record.
#[must_use]
pub fn branch_record(child: PageId, upper: &Bound) -> Vec<u8> {
    encode_branch(child.0, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::DEFAULT_PAGE_SIZE;

    fn key(s: &str) -> Bound {
        Bound::Key(s.as_bytes().to_vec())
    }

    fn leaf_with(records: &[(&str, &str)]) -> Page {
        let payload: Vec<RawRecord> = records
            .iter()
            .map(|(k, v)| (leaf_record(k.as_bytes(), v.as_bytes()), false))
            .collect();
        build_node(
            DEFAULT_PAGE_SIZE,
            PageId(9),
            NodeKind::Leaf,
            0,
            (&key("c"), &key("p")),
            &payload,
            None,
        )
    }

    #[test]
    fn empty_leaf_views_cleanly() {
        let page = build_empty_leaf(DEFAULT_PAGE_SIZE, PageId(1));
        let view = NodeView::new(&page).unwrap();
        assert_eq!(view.kind(), NodeKind::Leaf);
        assert_eq!(view.level(), 0);
        assert!(!view.has_foster());
        assert_eq!(view.low_fence().unwrap(), Bound::NegInf);
        assert_eq!(view.high_fence().unwrap(), Bound::PosInf);
        assert_eq!(view.payload_len(), 0);
        assert!(view.check_invariants().is_empty());
    }

    #[test]
    fn leaf_search_and_route() {
        let page = leaf_with(&[("cat", "1"), ("dog", "2"), ("fox", "3")]);
        let view = NodeView::new(&page).unwrap();
        assert_eq!(view.search_leaf(b"dog").unwrap(), (2, true));
        assert_eq!(view.search_leaf(b"cow").unwrap(), (2, false));
        assert_eq!(view.search_leaf(b"zeb").unwrap(), (4, false));
        match view.route(b"fox").unwrap() {
            Descent::Leaf {
                pos: 3,
                exact: true,
            } => {}
            other => panic!("unexpected route {other:?}"),
        }
    }

    #[test]
    fn branch_routing_covers_ranges() {
        let payload: Vec<RawRecord> = vec![
            (branch_record(PageId(10), &key("g")), false),
            (branch_record(PageId(11), &key("n")), false),
            (branch_record(PageId(12), &Bound::PosInf), false),
        ];
        let page = build_node(
            DEFAULT_PAGE_SIZE,
            PageId(2),
            NodeKind::Branch,
            1,
            (&Bound::NegInf, &Bound::PosInf),
            &payload,
            None,
        );
        let view = NodeView::new(&page).unwrap();
        assert!(view.check_invariants().is_empty());

        let cases = [
            (b"a".as_slice(), PageId(10), Bound::NegInf, key("g")),
            (b"g".as_slice(), PageId(11), key("g"), key("n")),
            (b"mzz".as_slice(), PageId(11), key("g"), key("n")),
            (b"n".as_slice(), PageId(12), key("n"), Bound::PosInf),
            (b"zzz".as_slice(), PageId(12), key("n"), Bound::PosInf),
        ];
        for (k, want_child, want_low, want_high) in cases {
            match view.route(k).unwrap() {
                Descent::Child {
                    child, low, high, ..
                } => {
                    assert_eq!(child, want_child, "key {k:?}");
                    assert_eq!(low, want_low, "key {k:?}");
                    assert_eq!(high, want_high, "key {k:?}");
                }
                other => panic!("unexpected route {other:?}"),
            }
        }
    }

    #[test]
    fn foster_routing() {
        // Leaf covering [c, p) split at "h": foster child holds [h, p).
        let payload: Vec<RawRecord> = vec![
            (leaf_record(b"cat", b"1"), false),
            (leaf_record(b"dog", b"2"), false),
        ];
        let page = build_node(
            DEFAULT_PAGE_SIZE,
            PageId(3),
            NodeKind::Leaf,
            0,
            (&key("c"), &key("p")),
            &payload,
            Some((PageId(77), &key("h"))),
        );
        let view = NodeView::new(&page).unwrap();
        assert!(view.has_foster());
        assert_eq!(view.foster_pid(), PageId(77));
        assert_eq!(view.foster_separator().unwrap(), key("h"));
        assert!(view.check_invariants().is_empty());

        match view.route(b"mouse").unwrap() {
            Descent::Foster {
                child,
                separator,
                high,
            } => {
                assert_eq!(child, PageId(77));
                assert_eq!(separator, key("h"));
                assert_eq!(high, key("p"));
            }
            other => panic!("unexpected route {other:?}"),
        }
        match view.route(b"dog").unwrap() {
            Descent::Leaf {
                pos: 2,
                exact: true,
            } => {}
            other => panic!("unexpected route {other:?}"),
        }
    }

    #[test]
    fn invariant_checker_finds_violations() {
        // Out-of-order keys.
        let page = leaf_with(&[("dog", "1"), ("cat", "2")]);
        let view = NodeView::new(&page).unwrap();
        let violations = view.check_invariants();
        assert!(
            violations.iter().any(|v| v.contains("out of order")),
            "got {violations:?}"
        );

        // Key outside fences.
        let page = leaf_with(&[("zebra", "1")]);
        let view = NodeView::new(&page).unwrap();
        let violations = view.check_invariants();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("at/above upper bound")),
            "got {violations:?}"
        );
    }

    #[test]
    fn branch_upper_mismatch_detected() {
        // Last entry's upper must equal the high fence.
        let payload: Vec<RawRecord> = vec![(branch_record(PageId(10), &key("g")), false)];
        let page = build_node(
            DEFAULT_PAGE_SIZE,
            PageId(2),
            NodeKind::Branch,
            1,
            (&Bound::NegInf, &Bound::PosInf),
            &payload,
            None,
        );
        let view = NodeView::new(&page).unwrap();
        let violations = view.check_invariants();
        assert!(
            violations.iter().any(|v| v.contains("chain upper")),
            "got {violations:?}"
        );
    }

    #[test]
    fn non_btree_page_rejected() {
        let page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::Meta);
        assert!(matches!(
            NodeView::new(&page),
            Err(BTreeError::NodeCorrupt { .. })
        ));
    }

    #[test]
    fn structure_bytes_round_trip() {
        let bytes = structure_bytes(3, Some(PageId(42)));
        assert_eq!(bytes.len(), 32);
        let mut page = build_empty_leaf(DEFAULT_PAGE_SIZE, PageId(1));
        page.structure_area_mut().copy_from_slice(&bytes);
        let view = NodeView { page: &page };
        assert_eq!(view.level(), 3);
        assert!(view.has_foster());
        assert_eq!(view.foster_pid(), PageId(42));
    }
}
