//! The Foster B-tree (paper Sections 4.2 and 2; Graefe/Kimura/Kuno \[11\]).
//!
//! Properties implemented, each traceable to the paper:
//!
//! * **Symmetric fence keys** in every node — "each node requires a low
//!   and a high fence key, which are copies of the separator key posted in
//!   the node's parent when the node was split".
//! * **Continuous verification**: "when following a pointer from a parent
//!   to a child, the key values next to the pointer in the parent must be
//!   equal to the fence keys in the child. This is true for all levels."
//!   Every pointer traversal (parent→child and foster-parent→foster-child)
//!   performs this comparison when [`VerifyMode::Continuous`] is on.
//! * **Local splits / foster relationships**: a split creates a foster
//!   child; the foster parent "carries the high fence key of the entire
//!   chain"; parents adopt foster children lazily during later write
//!   descents; a root foster chain triggers root growth. The write's own
//!   crabbed descent finds both cases on nodes it has already fetched and
//!   fence-checked — there is no separate maintenance walk — and readers
//!   never maintain.
//! * **Single incoming pointer per node** at all times (enables the simple
//!   page migration used after single-page recovery, Section 5.1.3).
//! * **System transactions** for every structural change: splits,
//!   adoptions, root growth, ghost reclamation (Figure 5 / Section 5.1.5).
//! * **Ghost records**: logical deletion sets the ghost bit; a system
//!   transaction reclaims ghosts when space is needed.
//! * **Latch-crabbed concurrent descent**: every descent couples shared
//!   page latches parent→child over the buffer pool's latches (the child
//!   is fetched and fence-checked — borrowed bounds against borrowed
//!   bounds, nothing copied — before the parent latch drops). Readers
//!   finish on the leaf latch the descent ends with. Writers descend
//!   shared once and take a write latch only at the leaf — on a
//!   three-level tree a resident write is four pool fetches, the path
//!   shared and the leaf again exclusive. Foster-chain hops after that
//!   re-latching retry bounded-many times when a concurrent split or
//!   adoption moves the separator
//!   ([`BTreeError::TooManyRetries`] carries the count). Structural
//!   changes run as system transactions that re-validate fence keys
//!   after re-latching and back off on conflict — safe because every
//!   node has exactly one incoming pointer, so a restructure touches a
//!   node only through that pointer's owner.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use spf_buffer::{BufferPool, FetchHint, PageReadGuard, PageWriteGuard};
use spf_obs::{EventKind, Obs, SpanKind, TraceCtx};
use spf_storage::{Page, PageId, SlottedPage};
use spf_txn::{SysAttempt, TxKind, TxnManager};
use spf_wal::{CompressedPageImage, LogPayload, Lsn, PageOp, TxId};

use crate::alloc::PageAllocator;
use crate::error::BTreeError;
use crate::keys::{Bound, BoundRef};
use crate::node::{
    branch_record, build_node, leaf_record, structure_bytes, Descent, NodeKind, NodeView, RawRecord,
};

/// How much checking a traversal performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// No cross-page checks: the baseline behaviour of ordinary B-trees.
    Off,
    /// Verify fence keys on every pointer traversal (Section 4.2).
    Continuous,
}

/// Tree operation counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Node visits during descents.
    pub node_visits: u64,
    /// Fence-key comparisons performed (two bounds each).
    pub fence_checks: u64,
    /// Fence comparisons that failed — detected corruptions.
    pub fence_failures: u64,
    /// Leaf splits.
    pub leaf_splits: u64,
    /// Branch splits.
    pub branch_splits: u64,
    /// Foster children adopted by their permanent parent.
    pub adoptions: u64,
    /// Root growth events (tree height + 1).
    pub root_growths: u64,
    /// Ghost-reclamation system transactions.
    pub ghost_reclaims: u64,
    /// Descents retried (re-descents and foster hops after re-latching)
    /// because a concurrent restructure moved the target.
    pub descent_retries: u64,
    /// Structural system transactions that backed off because a
    /// concurrent restructure won the race after re-latching.
    pub restructure_conflicts: u64,
}

impl spf_obs::Observable for TreeStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("node_visits", self.node_visits)
            .counter("fence_checks", self.fence_checks)
            .counter("fence_failures", self.fence_failures)
            .counter("leaf_splits", self.leaf_splits)
            .counter("branch_splits", self.branch_splits)
            .counter("adoptions", self.adoptions)
            .counter("root_growths", self.root_growths)
            .counter("ghost_reclaims", self.ghost_reclaims)
            .counter("descent_retries", self.descent_retries)
            .counter("restructure_conflicts", self.restructure_conflicts);
    }
}

/// The atomic counters behind [`TreeStats`]: hot-path tree operations
/// bump these with relaxed atomics so no descent or restructure takes a
/// global stats lock.
#[derive(Default)]
pub(crate) struct TreeStatCounters {
    pub(crate) node_visits: AtomicU64,
    pub(crate) fence_checks: AtomicU64,
    pub(crate) fence_failures: AtomicU64,
    pub(crate) leaf_splits: AtomicU64,
    pub(crate) branch_splits: AtomicU64,
    pub(crate) adoptions: AtomicU64,
    pub(crate) root_growths: AtomicU64,
    pub(crate) ghost_reclaims: AtomicU64,
    pub(crate) descent_retries: AtomicU64,
    pub(crate) restructure_conflicts: AtomicU64,
}

impl TreeStatCounters {
    pub(crate) fn snapshot(&self) -> TreeStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TreeStats {
            node_visits: load(&self.node_visits),
            fence_checks: load(&self.fence_checks),
            fence_failures: load(&self.fence_failures),
            leaf_splits: load(&self.leaf_splits),
            branch_splits: load(&self.branch_splits),
            adoptions: load(&self.adoptions),
            root_growths: load(&self.root_growths),
            ghost_reclaims: load(&self.ghost_reclaims),
            descent_retries: load(&self.descent_retries),
            restructure_conflicts: load(&self.restructure_conflicts),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A structural violation found by [`FosterBTree::verify_full`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The page the violation concerns.
    pub page: PageId,
    /// Human-readable description.
    pub detail: String,
}

const MAX_RETRIES: usize = 64;

/// Attempts a structural system transaction makes before conceding the
/// restructure to whoever holds the conflicting latch.
const SYS_ATTEMPTS: usize = 4;

/// Pause before a writer's `attempt`-th re-descent after a conflict, so
/// the restructure that won the race can finish instead of being raced
/// again: a short, doubling spin for the first few attempts, then the
/// time slice goes to whoever holds the contended latch. Called with no
/// latch held. Bounded: a conflict retry never waits longer than one
/// yield.
fn backoff(attempt: usize) {
    const SPIN_ATTEMPTS: usize = 4;
    if attempt <= SPIN_ATTEMPTS {
        for _ in 0..(8usize << attempt) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// Callback fired with the target leaf's id in the window between a
/// write's descent releasing its last shared latch and the write
/// re-latching the leaf exclusively — exactly where a concurrent split
/// or adoption can slip in. Reads have no such window and never fire it.
/// Installed via [`FosterBTree::set_reacquire_hook`]; used by the
/// concurrency tests to drive the foster-chain retry path
/// deterministically.
pub type ReacquireHook = Arc<dyn Fn(PageId) + Send + Sync>;

/// [`UndoTarget`](spf_txn::UndoTarget) adapter over a buffer pool:
/// rollback compensations are applied to pooled pages and advance their
/// PageLSN to the CLR's LSN.
pub struct PoolUndo<'a> {
    pool: &'a BufferPool,
}

impl<'a> PoolUndo<'a> {
    /// Wraps `pool`.
    #[must_use]
    pub fn new(pool: &'a BufferPool) -> Self {
        Self { pool }
    }
}

impl spf_txn::UndoTarget for PoolUndo<'_> {
    /// Physical undo: `op` lands on `page` at the slot it names.
    fn compensate(
        &self,
        _kind: TxKind,
        page: PageId,
        op: &PageOp,
        log: &mut spf_txn::LogClr<'_>,
    ) -> Result<(), String> {
        match self.pool.fetch_mut(page) {
            Ok(mut g) => {
                let clr_lsn = log(page, Lsn(g.page_lsn()), op);
                op.redo(&mut g)
                    .expect("op fits: the page is latched in its pre-op state");
                g.mark_dirty(clr_lsn);
            }
            // An unfetchable page (its failure escalated) still gets its
            // CLR: restart's redo applies it once the page is back.
            Err(_) => {
                log(page, Lsn::NULL, op);
            }
        }
        Ok(())
    }
}

/// Logical undo for user transactions: a record a user transaction
/// wrote is found again by its key — concurrent inserts shift slots and
/// splits move records between pages, so the slot the update was logged
/// at may hold another record by now. Structural updates (system
/// transactions) are undone where they were made, through [`PoolUndo`].
impl spf_txn::UndoTarget for FosterBTree {
    fn compensate(
        &self,
        kind: TxKind,
        page: PageId,
        op: &PageOp,
        log: &mut spf_txn::LogClr<'_>,
    ) -> Result<(), String> {
        let key = match op {
            PageOp::RemoveRecord { old_bytes: r, .. } => {
                crate::keys::decode_leaf(r).ok().map(|(k, _)| k)
            }
            PageOp::ReplaceRecord { key, .. } | PageOp::SetGhost { key, .. } => {
                Some(key.as_slice())
            }
            _ => None,
        };
        match key {
            Some(key) if kind == TxKind::User => self
                .compensate_by_key(key, op, log)
                .map_err(|e| format!("undo of {page} by key: {e}")),
            _ => PoolUndo::new(&self.pool).compensate(kind, page, op, log),
        }
    }
}

/// Installs a fresh page image: latched — and dirty at the log end read
/// now — *before* its format record is appended, so a checkpoint that
/// waits out the page latches held when it read the log end never misses
/// a format below that end. Shared by both tree variants.
pub(crate) fn format_new(
    pool: &BufferPool,
    txn: &TxnManager,
    tx: TxId,
    image: Page,
) -> Result<Lsn, BTreeError> {
    let mut guard = pool.put_new(image.clone(), txn.log().end_lsn())?;
    format_latched(pool, txn, tx, &mut guard, image)
}

/// Logs a page-format record for `image` and installs it through the
/// already-held write `guard`; the PRI learns the format record as the
/// page's backup before the latch goes.
pub(crate) fn format_latched(
    pool: &BufferPool,
    txn: &TxnManager,
    tx: TxId,
    guard: &mut PageWriteGuard,
    image: Page,
) -> Result<Lsn, BTreeError> {
    let pid = image.page_id();
    debug_assert_eq!(pid, guard.page_id());
    let lsn = txn.log_other(
        tx,
        pid,
        Lsn::NULL, // per-page chain restarts at a format record
        LogPayload::PageFormat {
            image: CompressedPageImage::capture(&image),
        },
    )?;
    let mut img = image;
    img.set_page_lsn(lsn.0);
    img.reset_update_count();
    **guard = img;
    guard.mark_dirty(lsn);
    pool.notify_page_formatted(pid, lsn);
    Ok(lsn)
}

/// The Foster B-tree.
pub struct FosterBTree {
    pool: BufferPool,
    txn: TxnManager,
    alloc: Arc<dyn PageAllocator>,
    root: PageId,
    page_size: usize,
    verify: VerifyMode,
    stats: TreeStatCounters,
    /// Bound on concurrent-restructure retries per point operation.
    retry_limit: AtomicUsize,
    /// Fast guard so the hook costs one relaxed load when disarmed.
    hook_armed: AtomicBool,
    reacquire_hook: Mutex<Option<ReacquireHook>>,
}

enum LeafOp {
    Insert,
    Upsert,
    Delete,
}

/// A structural fix a writer's descent found on its path (the two cases
/// of the paper's lazy foster-chain maintenance).
enum Maintenance {
    /// The root carries a foster chain: grow the tree by one level.
    GrowRoot,
    /// `child`, reached through `parent`'s entry, carries a foster child
    /// for `parent` to adopt.
    Adopt { parent: PageId, child: PageId },
}

/// Where a descent ends: latched on the leaf `key` belongs to (`G` is
/// the guard, then the slot `key` occupies or belongs at and whether that
/// slot holds exactly `key`), or — for a writer only — at a structural
/// fix the path needs first, with every latch released.
enum Landing<G> {
    Leaf(G, u16, bool),
    Maintain(Maintenance),
}

impl<G> Landing<G> {
    /// The leaf a descent that was not asked to maintain ends at.
    fn leaf(self) -> (G, u16, bool) {
        match self {
            Landing::Leaf(guard, pos, exact) => (guard, pos, exact),
            Landing::Maintain(_) => unreachable!("only a write descent maintains"),
        }
    }
}

/// What one latched attempt at an adoption found.
enum AdoptStep {
    /// The foster child was adopted.
    Adopted,
    /// Nothing to adopt any more (a concurrent pass did it, or the
    /// topology changed); the stale plan is simply dropped.
    Nothing,
    /// The parent lacks space for another entry; split/grow it first.
    ParentFull,
    /// A latch was contended; roll back and retry after back-off.
    Busy,
}

impl FosterBTree {
    /// Creates a new tree: formats `root` as an empty leaf under a system
    /// transaction.
    pub fn create(
        pool: BufferPool,
        txn: TxnManager,
        alloc: Arc<dyn PageAllocator>,
        root: PageId,
        page_size: usize,
        verify: VerifyMode,
    ) -> Result<Self, BTreeError> {
        let tree = Self::open(pool, txn, alloc, root, page_size, verify);
        let sys = tree.txn.begin(TxKind::System);
        let image = crate::node::build_empty_leaf(page_size, root);
        format_new(&tree.pool, &tree.txn, sys, image)?;
        tree.txn.commit(sys, TraceCtx::NONE)?;
        tree.alloc.note_allocated(root);
        Ok(tree)
    }

    /// Opens an existing tree rooted at `root` (e.g. after recovery).
    #[must_use]
    pub fn open(
        pool: BufferPool,
        txn: TxnManager,
        alloc: Arc<dyn PageAllocator>,
        root: PageId,
        page_size: usize,
        verify: VerifyMode,
    ) -> Self {
        Self {
            pool,
            txn,
            alloc,
            root,
            page_size,
            verify,
            stats: TreeStatCounters::default(),
            retry_limit: AtomicUsize::new(MAX_RETRIES),
            hook_armed: AtomicBool::new(false),
            reacquire_hook: Mutex::new(None),
        }
    }

    /// The engine's observability handle, owned by the log: writes are
    /// `Descent` spans, and descent retries and restructure conflicts
    /// are flight-recorder events.
    fn obs(&self) -> &Obs {
        self.txn.log().obs()
    }

    /// The root page id (stable for the tree's lifetime; root growth
    /// rewrites the root page in place).
    #[must_use]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        self.stats.snapshot()
    }

    /// Caps how many concurrent-restructure retries a point operation
    /// tolerates before failing with [`BTreeError::TooManyRetries`]
    /// (clamped to ≥ 1; default 64). Tests lower this to reach the
    /// too-many-retries path with few injected restructures.
    pub fn set_retry_limit(&self, limit: usize) {
        self.retry_limit.store(limit.max(1), Ordering::Relaxed);
    }

    /// Installs (or, with `None`, clears) the latch release/re-acquire
    /// window hook; see [`ReacquireHook`].
    pub fn set_reacquire_hook(&self, hook: Option<ReacquireHook>) {
        let armed = hook.is_some();
        *self.reacquire_hook.lock() = hook;
        self.hook_armed.store(armed, Ordering::Release);
    }

    fn fire_reacquire_hook(&self, leaf: PageId) {
        if self.hook_armed.load(Ordering::Acquire) {
            let hook = self.reacquire_hook.lock().clone();
            if let Some(hook) = hook {
                hook(leaf);
            }
        }
    }

    /// The verification mode.
    #[must_use]
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// Largest record this tree accepts (so a split always succeeds).
    #[must_use]
    pub fn max_record_size(&self) -> usize {
        self.page_size / 8
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Looks up `key`, returning its value if present (ghosts excluded).
    ///
    /// Concurrency: a reader finishes on the shared leaf latch its
    /// crabbed descent ends with. The value is copied out before that
    /// latch drops, so no split or adoption can move the key between
    /// finding its slot and reading it, and a lookup never retries. Only
    /// writers, whose latch mode changes at the leaf, open a
    /// release/re-acquire window (see [`ReacquireHook`]).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        let (guard, pos, exact) = self
            .descend(key, FetchHint::Normal, TraceCtx::NONE, false)?
            .leaf();
        if !exact {
            return Ok(None);
        }
        let (_, value, ghost) = NodeView::new(&guard)?.leaf_entry(pos)?;
        Ok((!ghost).then(|| value.to_vec()))
    }

    /// Inserts `key → value` under `tx`; duplicate live keys are an error.
    pub fn insert(&self, tx: TxId, key: &[u8], value: &[u8]) -> Result<(), BTreeError> {
        self.leaf_write(tx, key, value, LeafOp::Insert, TraceCtx::NONE)
            .map(|_| ())
    }

    /// Inserts or replaces `key → value`; returns the previous live value.
    /// Under a sampled `ctx` the whole write is one `Descent` span, and
    /// buffer faults along the way appear as its children.
    pub fn upsert(
        &self,
        tx: TxId,
        key: &[u8],
        value: &[u8],
        ctx: TraceCtx,
    ) -> Result<Option<Vec<u8>>, BTreeError> {
        self.leaf_write(tx, key, value, LeafOp::Upsert, ctx)
    }

    /// Logically deletes `key` (ghost bit), returning the old value.
    pub fn delete(&self, tx: TxId, key: &[u8]) -> Result<Vec<u8>, BTreeError> {
        self.leaf_write(tx, key, &[], LeafOp::Delete, TraceCtx::NONE)?
            .ok_or(BTreeError::KeyNotFound)
    }

    /// Range scan: live records with `key >= start`, at most `limit`.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<crate::KvPairs, BTreeError> {
        let mut out = Vec::new();
        // Owned: the cursor outlives every latch (it carries the scan
        // across the re-descent between two chains).
        let mut cursor: Vec<u8> = start.to_vec();
        let mut first = true;
        'chains: loop {
            // Leaves touched by the scan carry the scan hint (they are
            // streamed once and must not flush the hot set); the inner
            // nodes the descent crosses stay hot — every descent needs
            // them.
            let (mut guard, _, _) = self
                .descend(&cursor, FetchHint::Scan, TraceCtx::NONE, false)?
                .leaf();
            // Walk the leaf and its foster chain, crabbing: the next
            // chain node is latched before the current one drops, so a
            // concurrent split cannot tear the chain under the scan.
            // (Across chain jumps the scan re-descends latch-free, so it
            // is not a snapshot of the whole tree.)
            loop {
                let view = NodeView::new(&guard)?;
                for pos in view.payload_range() {
                    let (k, v, ghost) = view.leaf_entry(pos)?;
                    if ghost {
                        continue;
                    }
                    if first && k < cursor.as_slice() {
                        continue;
                    }
                    if !first && k <= cursor.as_slice() {
                        continue;
                    }
                    out.push((k.to_vec(), v.to_vec()));
                    if out.len() >= limit {
                        return Ok(out);
                    }
                }
                let high = view.high_fence()?;
                if view.has_foster() {
                    let next = self
                        .pool
                        .fetch_with_hint(view.foster_pid(), FetchHint::Scan)?;
                    self.check_fences(&next, view.foster_separator()?, high)?;
                    guard = next;
                    continue;
                }
                // Chain exhausted: jump to the next chain via the high
                // fence.
                match high {
                    BoundRef::PosInf => return Ok(out),
                    BoundRef::Key(h) => {
                        cursor = h.to_vec();
                        first = true; // keys >= cursor (the next chain's low fence) are new
                        continue 'chains;
                    }
                    BoundRef::NegInf => {
                        return Err(BTreeError::NodeCorrupt {
                            page: guard.page_id(),
                            detail: "high fence is -∞".into(),
                        })
                    }
                }
            }
        }
    }

    /// Every live record in key order.
    pub fn collect_all(&self) -> Result<crate::KvPairs, BTreeError> {
        self.scan(&[], usize::MAX)
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Latch-crabbed root-to-leaf descent with continuous verification.
    /// Returns the target leaf's shared guard (the first chain node whose
    /// payload should hold `key`) together with the slot `key` occupies
    /// or belongs at, and whether that slot holds exactly `key` — all
    /// still true when the caller looks, because the latch is still held.
    ///
    /// With `maintain` (a writer's descent) it also finds the paper's
    /// lazy foster-chain maintenance on nodes it has already fetched and
    /// fence-checked, top-down: a root that carries a foster chain
    /// ([`Maintenance::GrowRoot`]), or a child reached through its
    /// parent's entry that carries a foster child
    /// ([`Maintenance::Adopt`]). It then releases both latches and
    /// returns the fix instead of the leaf; the writer runs it and
    /// descends again. Foster hops are followed either way. Readers never
    /// maintain.
    ///
    /// Crabbing protocol: each child (or foster child) is fetched — and
    /// its fences verified against the pointer's promise — while the
    /// parent's shared latch is still held, so no restructure can slip
    /// between reading a pointer and following it. The parent latch
    /// drops as soon as the child guard exists. With the latch held
    /// across the hop, a fence mismatch here is real corruption, not a
    /// benign race — and so is a leaf that does not cover the key it was
    /// routed to. The promised bounds are compared in place: they borrow
    /// from the parent's page, which stays latched until the comparison
    /// is done.
    ///
    /// The buffer-pool hint applies to **leaf-level** fetches. Inner
    /// nodes always fetch `Normal`: every descent re-crosses them, so
    /// even a scan must keep them hot. Buffer faults on the path
    /// attribute to `ctx`'s span.
    fn descend(
        &self,
        key: &[u8],
        leaf_hint: FetchHint,
        ctx: TraceCtx,
        maintain: bool,
    ) -> Result<Landing<PageReadGuard>, BTreeError> {
        let hint_for = |level: u8| {
            if level == 0 {
                leaf_hint
            } else {
                FetchHint::Normal
            }
        };
        let mut guard = self
            .pool
            .fetch_with_ctx(self.root, FetchHint::Normal, ctx)?;
        TreeStatCounters::bump(&self.stats.node_visits);
        for _ in 0..MAX_RETRIES * 4 {
            let view = NodeView::new(&guard)?;
            if maintain && view.id() == self.root && view.has_foster() {
                return Ok(Landing::Maintain(Maintenance::GrowRoot));
            }
            let level = view.level();
            let (child, child_level, low, high, via_entry) = match view.route(key)? {
                Descent::Leaf { pos, exact } => {
                    let (low, high) = (view.low_fence()?, view.high_fence()?);
                    if !BoundRef::contains(low, high, key) {
                        return Err(BTreeError::NodeCorrupt {
                            page: view.id(),
                            detail: format!(
                                "leaf [{low}, {high}) does not cover key {}",
                                spf_util::hex::hex_preview(key, 8)
                            ),
                        });
                    }
                    return Ok(Landing::Leaf(guard, pos, exact));
                }
                Descent::Foster {
                    child,
                    separator,
                    high,
                } => (child, level, separator, high, false),
                // `route` refuses a branch at level 0, so `level >= 1`.
                Descent::Child {
                    child, low, high, ..
                } => (child, level - 1, low, high, true),
            };
            let next = self
                .pool
                .fetch_with_ctx(child, hint_for(child_level), ctx)?;
            TreeStatCounters::bump(&self.stats.node_visits);
            self.check_fences(&next, low, high)?;
            self.check_level(&next, child_level)?;
            if maintain && via_entry && NodeView::new(&next)?.has_foster() {
                let parent = guard.page_id();
                return Ok(Landing::Maintain(Maintenance::Adopt { parent, child }));
            }
            guard = next;
        }
        Err(BTreeError::TooManyRetries {
            retries: MAX_RETRIES * 4,
        })
    }

    fn check_level(&self, page: &Page, expected: u8) -> Result<(), BTreeError> {
        let found = NodeView::new(page)?.level();
        if found != expected {
            return Err(BTreeError::NodeCorrupt {
                page: page.page_id(),
                detail: format!("expected level {expected}, found {found}"),
            });
        }
        Ok(())
    }

    /// The continuous-verification comparison of Section 4.2: the bounds
    /// the pointer promised (borrowed from the still-latched parent)
    /// against the fences the target carries, byte for byte. Nothing is
    /// copied unless they differ.
    fn check_fences(
        &self,
        page: &Page,
        expected_low: BoundRef<'_>,
        expected_high: BoundRef<'_>,
    ) -> Result<(), BTreeError> {
        if self.verify == VerifyMode::Off {
            return Ok(());
        }
        let view = NodeView::new(page)?;
        let (found_low, found_high) = (view.low_fence()?, view.high_fence()?);
        TreeStatCounters::bump(&self.stats.fence_checks);
        if found_low != expected_low || found_high != expected_high {
            TreeStatCounters::bump(&self.stats.fence_failures);
            return Err(BTreeError::FenceMismatch {
                page: page.page_id(),
                expected_low: expected_low.to_bound(),
                expected_high: expected_high.to_bound(),
                found_low: found_low.to_bound(),
                found_high: found_high.to_bound(),
            });
        }
        Ok(())
    }

    /// Books one conflict retry of a write (`at` names where it resumes)
    /// against the operation's budget.
    fn count_retry(&self, retries: &mut usize, at: PageId) -> Result<(), BTreeError> {
        *retries += 1;
        TreeStatCounters::bump(&self.stats.descent_retries);
        self.obs().emit(EventKind::DescentRetry, at.0, 0);
        if *retries > self.retry_limit.load(Ordering::Relaxed) {
            return Err(BTreeError::TooManyRetries { retries: *retries });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Leaf writes with structural maintenance
    // ------------------------------------------------------------------

    fn leaf_write(
        &self,
        tx: TxId,
        key: &[u8],
        value: &[u8],
        op: LeafOp,
        ctx: TraceCtx,
    ) -> Result<Option<Vec<u8>>, BTreeError> {
        let span = self.obs().span(ctx, SpanKind::Descent, self.root.0);
        let ctx = span.ctx();
        let record = leaf_record(key, value);
        if record.len() > self.max_record_size() {
            return Err(BTreeError::RecordTooLarge {
                size: record.len(),
                max: self.max_record_size(),
            });
        }
        // Conflict retries (bounded by the configurable limit) are
        // counted apart from structural-progress passes (splits, ghost
        // reclaims — each makes room, bounded by MAX_RETRIES), so a
        // test-lowered retry limit cannot starve legitimate growth.
        let mut conflicts = 0usize;
        let mut progress = 0usize;
        'restart: loop {
            if progress > MAX_RETRIES {
                return Err(BTreeError::TooManyRetries { retries: progress });
            }
            // Opportunistic maintenance, found by the write's own descent:
            // shorten foster chains on the path. A fix that changed the
            // tree is progress; one that backed off or found nothing left
            // to do must not stall the write, so the next descent of this
            // attempt skips maintenance and follows the foster hop.
            let mut maintain = true;
            let (mut guard, pos, exact) = loop {
                match self.write_latch_leaf(key, ctx, &mut conflicts, maintain)? {
                    Landing::Leaf(guard, pos, exact) => break (guard, pos, exact),
                    Landing::Maintain(Maintenance::GrowRoot) => {
                        self.grow_root()?;
                        progress += 1;
                        continue 'restart;
                    }
                    Landing::Maintain(Maintenance::Adopt { parent, child }) => {
                        if self.adopt(parent, child)? {
                            progress += 1;
                            continue 'restart;
                        }
                        maintain = false;
                    }
                }
            };
            let target = guard.page_id();
            if exact {
                let view = NodeView::new(&guard)?;
                let (k, v, ghost) = view.leaf_entry(pos)?;
                debug_assert_eq!(k, key);
                let old_value = v.to_vec();
                let old_record = leaf_record(k, v);
                match op {
                    LeafOp::Insert if !ghost => return Err(BTreeError::DuplicateKey),
                    LeafOp::Insert | LeafOp::Upsert => {
                        // Replace bytes (if changed), then clear the
                        // ghost. The replacement may need space.
                        if record.len() > old_record.len()
                            && !self.fits(&mut guard, record.len() - old_record.len())
                        {
                            drop(guard);
                            self.make_room(target)?;
                            progress += 1;
                            continue 'restart;
                        }
                        let replace = (old_record != record)
                            .then(|| PageOp::replace(pos, key.to_vec(), &old_record, &record));
                        let revive = ghost.then(|| PageOp::SetGhost {
                            pos,
                            key: key.to_vec(),
                            old: true,
                            new: false,
                        });
                        // One logging call: a single-update transaction
                        // commits with its last update, so both records of
                        // a revived ghost go in together.
                        match (replace, revive) {
                            (Some(replace), Some(revive)) => {
                                self.apply_logged_all(tx, &mut guard, [replace, revive])?;
                            }
                            (Some(op), None) | (None, Some(op)) => {
                                self.apply_logged(tx, &mut guard, op)?;
                            }
                            (None, None) => {}
                        }
                        return Ok(if ghost { None } else { Some(old_value) });
                    }
                    LeafOp::Delete => {
                        if ghost {
                            return Ok(None);
                        }
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
                        return Ok(Some(old_value));
                    }
                }
            } else {
                match op {
                    LeafOp::Delete => return Ok(None),
                    LeafOp::Insert | LeafOp::Upsert => {
                        if !self.fits(&mut guard, record.len() + spf_storage::slotted::SLOT_SIZE) {
                            drop(guard);
                            self.make_room(target)?;
                            progress += 1;
                            continue 'restart;
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
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Write-latches the leaf that holds (or would hold) `key`. Writers
    /// descend with shared latches and upgrade only at the leaf: the
    /// descent guard drops and the leaf is re-latched in write mode —
    /// the window a concurrent restructure can slip into. A split that
    /// moved the key into a foster child is followed by crabbing (next
    /// node latched before this one drops); a node that no longer covers
    /// the key (an adoption lowered its high fence) or stopped being a
    /// leaf (the root grew) sends the walk back to the root after a
    /// pause. Both count against `conflicts`. Returns the guard, the
    /// slot `key` occupies or belongs at, and whether it holds `key` —
    /// or, with `maintain`, the structural fix a descent found first
    /// (see [`descend`](Self::descend)).
    fn write_latch_leaf(
        &self,
        key: &[u8],
        ctx: TraceCtx,
        conflicts: &mut usize,
        maintain: bool,
    ) -> Result<Landing<PageWriteGuard>, BTreeError> {
        'descend: loop {
            let guard = match self.descend(key, FetchHint::Normal, ctx, maintain)? {
                Landing::Leaf(guard, _, _) => guard,
                Landing::Maintain(step) => return Ok(Landing::Maintain(step)),
            };
            let target = guard.page_id();
            drop(guard);
            self.fire_reacquire_hook(target);
            let mut guard = self.pool.fetch_mut_ctx(target, ctx)?;
            loop {
                let view = NodeView::new(&guard)?;
                let step = if BoundRef::contains(view.low_fence()?, view.high_fence()?, key) {
                    Some(view.route(key)?)
                } else {
                    None
                };
                match step {
                    Some(Descent::Leaf { pos, exact }) => {
                        return Ok(Landing::Leaf(guard, pos, exact))
                    }
                    Some(Descent::Foster {
                        child,
                        separator,
                        high,
                    }) => {
                        self.count_retry(conflicts, child)?;
                        let next = self.pool.fetch_mut_ctx(child, ctx)?;
                        self.check_fences(&next, separator, high)?;
                        guard = next;
                    }
                    None | Some(Descent::Child { .. }) => {
                        drop(guard);
                        self.count_retry(conflicts, self.root)?;
                        backoff(*conflicts);
                        continue 'descend;
                    }
                }
            }
        }
    }

    /// A user transaction's compensation applied to `key`'s record where
    /// it is now (see [`UndoTarget`](spf_txn::UndoTarget)): the inverse
    /// `op` is re-aimed at the record's current page and slot, making
    /// room first if restoring a longer image needs it. A replace's
    /// inverse delta is spliced into the record as it is now, and the
    /// result logged as a fresh delta against that record.
    fn compensate_by_key(
        &self,
        key: &[u8],
        op: &PageOp,
        log: &mut spf_txn::LogClr<'_>,
    ) -> Result<(), BTreeError> {
        let mut conflicts = 0usize;
        for _ in 0..=MAX_RETRIES {
            let (mut guard, pos, exact) = self
                .write_latch_leaf(key, TraceCtx::NONE, &mut conflicts, false)?
                .leaf();
            if !exact {
                return Ok(()); // nothing of this key left to undo
            }
            let (bytes, ghost) = guard.record_at(pos).ok_or(BTreeError::NodeCorrupt {
                page: guard.page_id(),
                detail: format!("slot {pos} vanished under the latch"),
            })?;
            let current = bytes.to_vec();
            let here = match op {
                PageOp::RemoveRecord { .. } => PageOp::RemoveRecord {
                    pos,
                    old_bytes: current,
                    old_ghost: ghost,
                },
                PageOp::ReplaceRecord { .. } => {
                    let target = op
                        .replaced(&current)
                        .ok_or_else(|| BTreeError::NodeCorrupt {
                            page: guard.page_id(),
                            detail: format!(
                                "record at slot {pos} is not the one the undone replace wrote"
                            ),
                        })?;
                    if target.len() > current.len()
                        && !self.fits(&mut guard, target.len() - current.len())
                    {
                        let leaf = guard.page_id();
                        drop(guard);
                        self.make_room(leaf)?;
                        continue;
                    }
                    PageOp::replace(pos, key.to_vec(), &current, &target)
                }
                PageOp::SetGhost { new, .. } => PageOp::SetGhost {
                    pos,
                    key: key.to_vec(),
                    old: ghost,
                    new: *new,
                },
                _ => unreachable!("only leaf-record compensations are re-aimed"),
            };
            let lsn = log(guard.page_id(), Lsn(guard.page_lsn()), &here);
            here.redo(&mut guard)
                .expect("op fits: the page is latched in its pre-op state");
            guard.mark_dirty(lsn);
            return Ok(());
        }
        Err(BTreeError::TooManyRetries {
            retries: MAX_RETRIES,
        })
    }

    fn fits(&self, guard: &mut PageWriteGuard, needed: usize) -> bool {
        SlottedPage::new(guard).total_free_space() >= needed
    }

    /// Frees space on `leaf`: reclaim ghosts if any, otherwise split.
    fn make_room(&self, leaf: PageId) -> Result<(), BTreeError> {
        if self.reclaim_ghosts(leaf)? {
            return Ok(());
        }
        self.split(leaf)
    }

    // ------------------------------------------------------------------
    // Structural changes (system transactions)
    // ------------------------------------------------------------------

    fn apply_logged(
        &self,
        tx: TxId,
        guard: &mut PageWriteGuard,
        op: PageOp,
    ) -> Result<Lsn, BTreeError> {
        self.apply_logged_all(tx, guard, [op])
    }

    /// Logs `ops` on the latched page in one call
    /// ([`TxnManager::log_updates`]), then redoes them in order; returns
    /// the last one's LSN.
    fn apply_logged_all<const N: usize>(
        &self,
        tx: TxId,
        guard: &mut PageWriteGuard,
        ops: [PageOp; N],
    ) -> Result<Lsn, BTreeError> {
        let prev = Lsn(guard.page_lsn());
        let mut last = prev;
        for (lsn, op) in self.txn.log_updates(tx, guard.page_id(), prev, ops)? {
            op.redo(&mut *guard)
                .expect("op fits: the page is latched in its pre-op state");
            guard.mark_dirty(lsn);
            last = lsn;
        }
        Ok(last)
    }

    /// Splits `pid` at its payload midpoint, creating a foster child.
    fn split(&self, pid: PageId) -> Result<(), BTreeError> {
        let undo = PoolUndo::new(&self.pool);
        let outcome = self.txn.run_system(
            &undo,
            SYS_ATTEMPTS,
            |sys| -> Result<SysAttempt<NodeKind>, BTreeError> {
                Ok(match self.split_inner(sys, pid)? {
                    Some(kind) => SysAttempt::Done(kind),
                    None => SysAttempt::Conflict,
                })
            },
        )?;
        match outcome {
            Some(NodeKind::Leaf) => TreeStatCounters::bump(&self.stats.leaf_splits),
            Some(NodeKind::Branch) => TreeStatCounters::bump(&self.stats.branch_splits),
            None => {
                TreeStatCounters::bump(&self.stats.restructure_conflicts);
                self.obs().emit(EventKind::Restructure, pid.0, 0);
            }
        }
        Ok(())
    }

    /// Forces a foster split of `pid` regardless of its fill level — the
    /// load-balancing/maintenance entry point, and the restructure the
    /// concurrency tests inject from a [`ReacquireHook`] to drive the
    /// foster-chain retry path deterministically.
    pub fn force_split(&self, pid: PageId) -> Result<(), BTreeError> {
        self.split(pid)
    }

    /// Returns the split node's kind, or `None` when the node has fewer
    /// than two payload records — under concurrency that means a racing
    /// split already divided it, so there is nothing left to move.
    fn split_inner(&self, sys: TxId, pid: PageId) -> Result<Option<NodeKind>, BTreeError> {
        let mut guard = self.pool.fetch_mut(pid)?;
        let view = NodeView::new(&guard)?;
        let kind = view.kind();
        let level = view.level();
        let range = view.payload_range();
        let len = range.end - range.start;
        if len < 2 {
            return Ok(None);
        }
        let split_pos = range.start + len / 2;

        // The separator: first moved key (leaf) or the upper bound of the
        // last kept entry (branch).
        let separator = match kind {
            NodeKind::Leaf => {
                let (k, _, _) = view.leaf_entry(split_pos)?;
                Bound::Key(k.to_vec())
            }
            NodeKind::Branch => view.branch_entry(split_pos - 1)?.1.to_bound(),
        };
        let high = view.high_fence()?.to_bound();
        let old_foster = if view.has_foster() {
            Some((view.foster_pid(), view.foster_separator()?.to_bound()))
        } else {
            None
        };

        // Records moving to the foster child.
        let moved: Vec<RawRecord> = (split_pos..range.end)
            .map(|pos| {
                let (bytes, ghost) =
                    guard
                        .record_at(pos)
                        .ok_or_else(|| BTreeError::NodeCorrupt {
                            page: pid,
                            detail: format!("missing slot {pos} during split"),
                        })?;
                Ok((bytes.to_vec(), ghost))
            })
            .collect::<Result<_, BTreeError>>()?;

        let new_pid = self.alloc.allocate().ok_or(BTreeError::AllocFailed)?;

        // Build and install the foster child. It inherits this node's old
        // foster pointer, extending the chain.
        let child_image = build_node(
            self.page_size,
            new_pid,
            kind,
            level,
            (&separator, &high),
            &moved,
            old_foster.as_ref().map(|(p, s)| (*p, s)),
        );
        format_new(&self.pool, &self.txn, sys, child_image)?;

        // Shrink this node and point its foster at the new child.
        self.apply_logged(
            sys,
            &mut guard,
            PageOp::RemoveRange {
                pos: split_pos,
                records: moved,
            },
        )?;
        match &old_foster {
            Some((_, old_sep)) => {
                // Replace the old separator with the new one; structure
                // area now points at the new (nearer) foster child.
                let sep_slot = guard.slot_count() - 2;
                self.apply_logged(
                    sys,
                    &mut guard,
                    PageOp::replace(
                        sep_slot,
                        Vec::new(),
                        &crate::keys::encode_fence(old_sep),
                        &crate::keys::encode_fence(&separator),
                    ),
                )?;
                self.apply_logged(
                    sys,
                    &mut guard,
                    PageOp::WriteStructure {
                        old: structure_bytes(level, old_foster.as_ref().map(|(p, _)| *p)),
                        new: structure_bytes(level, Some(new_pid)),
                    },
                )?;
            }
            None => {
                let high_slot = guard.slot_count() - 1;
                self.apply_logged(
                    sys,
                    &mut guard,
                    PageOp::InsertRecord {
                        pos: high_slot, // before the high fence
                        bytes: crate::keys::encode_fence(&separator),
                        ghost: true,
                    },
                )?;
                self.apply_logged(
                    sys,
                    &mut guard,
                    PageOp::WriteStructure {
                        old: structure_bytes(level, None),
                        new: structure_bytes(level, Some(new_pid)),
                    },
                )?;
            }
        }
        Ok(Some(kind))
    }

    /// Adopts `child`'s foster child into `parent` (paper: the temporary
    /// foster relationship ends when the permanent parent takes over).
    ///
    /// Runs as a system transaction with bounded retry: latches are
    /// taken top-down (parent, then child — the global latch order) and
    /// with try-latches, so maintenance backs off rather than stalling
    /// or deadlocking against foreground descents. After re-latching,
    /// the plan is re-validated: a vanished entry or foster pointer
    /// means a concurrent restructure already did the work.
    ///
    /// Returns whether the tree changed. A try-latch that backed off did
    /// nothing, and a caller that counted it as structural progress would
    /// spend its whole retry budget on a root that readers keep latched.
    fn adopt(&self, parent: PageId, child: PageId) -> Result<bool, BTreeError> {
        let undo = PoolUndo::new(&self.pool);
        let outcome = self.txn.run_system(
            &undo,
            SYS_ATTEMPTS,
            |sys| -> Result<SysAttempt<AdoptStep>, BTreeError> {
                Ok(match self.adopt_inner(sys, parent, child)? {
                    AdoptStep::Busy => SysAttempt::Conflict,
                    done => SysAttempt::Done(done),
                })
            },
        )?;
        match outcome {
            Some(AdoptStep::Adopted) => {
                TreeStatCounters::bump(&self.stats.adoptions);
                Ok(true)
            }
            Some(AdoptStep::ParentFull) => {
                // Make room one level up, then let a later pass adopt.
                // This holds for the root too: a full root without a
                // foster cannot grow (growth absorbs a foster chain), so
                // foster-split it first — the next maintenance pass sees
                // the root's foster and grows the tree by one level.
                self.split(parent)?;
                Ok(true)
            }
            Some(AdoptStep::Nothing) | Some(AdoptStep::Busy) => Ok(false),
            None => {
                TreeStatCounters::bump(&self.stats.restructure_conflicts);
                self.obs().emit(EventKind::Restructure, parent.0, 0);
                Ok(false)
            }
        }
    }

    fn adopt_inner(
        &self,
        sys: TxId,
        parent: PageId,
        child: PageId,
    ) -> Result<AdoptStep, BTreeError> {
        let Some(mut pguard) = self.pool.try_fetch_mut(parent)? else {
            return Ok(AdoptStep::Busy);
        };
        // Re-validate under the parent latch: find the child's entry.
        let (entry_pos, upper, parent_low) = {
            let pview = NodeView::new(&pguard)?;
            if pview.kind() != NodeKind::Branch {
                return Ok(AdoptStep::Nothing); // stale plan
            }
            let mut found = None;
            for pos in pview.payload_range() {
                let (c, entry_upper) = pview.branch_entry(pos)?;
                if c == child {
                    found = Some((pos, entry_upper.to_bound()));
                    break;
                }
            }
            match found {
                Some((pos, entry_upper)) => (pos, entry_upper, pview.low_fence()?.to_bound()),
                // The entry moved into one of the parent's own foster
                // children; a later maintenance pass sees the new
                // topology.
                None => return Ok(AdoptStep::Nothing),
            }
        };
        // Parent must have room for one more entry (a branch entry is at
        // most a key + pid + slot overhead) — checked under the latch.
        let need = self.max_record_size().min(256) + spf_storage::slotted::SLOT_SIZE;
        if !self.fits(&mut pguard, need) {
            return Ok(AdoptStep::ParentFull);
        }
        let Some(mut cguard) = self.pool.try_fetch_mut(child)? else {
            return Ok(AdoptStep::Busy);
        };
        let (foster_pid, separator, high, level) = {
            let cview = NodeView::new(&cguard)?;
            if !cview.has_foster() {
                return Ok(AdoptStep::Nothing); // already adopted
            }
            let high = cview.high_fence()?.to_bound();
            if upper != high {
                // Both pages are write-latched, so this cannot be a
                // racing restructure: the parent promises `upper`, the
                // chain ends at `high` — real damage.
                return Err(BTreeError::FenceMismatch {
                    page: child,
                    expected_low: parent_low,
                    expected_high: upper,
                    found_low: cview.low_fence()?.to_bound(),
                    found_high: high,
                });
            }
            (
                cview.foster_pid(),
                cview.foster_separator()?.to_bound(),
                high,
                cview.level(),
            )
        };

        // Update the parent: entry (child, high) becomes (child, separator)
        // followed by (foster, high).
        self.apply_logged(
            sys,
            &mut pguard,
            PageOp::replace(
                entry_pos,
                Vec::new(),
                &branch_record(child, &high),
                &branch_record(child, &separator),
            ),
        )?;
        self.apply_logged(
            sys,
            &mut pguard,
            PageOp::InsertRecord {
                pos: entry_pos + 1,
                bytes: branch_record(foster_pid, &high),
                ghost: false,
            },
        )?;
        drop(pguard);

        // Update the child: drop the foster separator slot, lower the high
        // fence to the separator, clear the foster pointer.
        let sep_slot = cguard.slot_count() - 2;
        self.apply_logged(
            sys,
            &mut cguard,
            PageOp::RemoveRecord {
                pos: sep_slot,
                old_bytes: crate::keys::encode_fence(&separator),
                old_ghost: true,
            },
        )?;
        let high_slot = cguard.slot_count() - 1;
        self.apply_logged(
            sys,
            &mut cguard,
            PageOp::replace(
                high_slot,
                Vec::new(),
                &crate::keys::encode_fence(&high),
                &crate::keys::encode_fence(&separator),
            ),
        )?;
        self.apply_logged(
            sys,
            &mut cguard,
            PageOp::WriteStructure {
                old: structure_bytes(level, Some(foster_pid)),
                new: structure_bytes(level, None),
            },
        )?;
        Ok(AdoptStep::Adopted)
    }

    /// Grows the tree: the root's content moves to a fresh page, and the
    /// root becomes a one-entry branch above it. The root's page id never
    /// changes, so the tree has a stable anchor.
    fn grow_root(&self) -> Result<(), BTreeError> {
        let undo = PoolUndo::new(&self.pool);
        let grown = self
            .txn
            .run_system(&undo, SYS_ATTEMPTS, |sys| {
                self.grow_root_inner(sys).map(SysAttempt::Done)
            })?
            .unwrap_or(false);
        if grown {
            TreeStatCounters::bump(&self.stats.root_growths);
        }
        Ok(())
    }

    /// Returns whether the root actually grew. The root's write latch is
    /// held from re-validation to the in-place rewrite, so no concurrent
    /// descent or split can observe (or create) an intermediate state:
    /// growth is required for progress, hence a blocking latch rather
    /// than the adoption path's try-latch.
    fn grow_root_inner(&self, sys: TxId) -> Result<bool, BTreeError> {
        let mut guard = self.pool.fetch_mut(self.root)?;
        let (low, high, level) = {
            let view = NodeView::new(&guard)?;
            if !view.has_foster() {
                // A concurrent growth already absorbed the root's chain.
                return Ok(false);
            }
            (
                view.low_fence()?.to_bound(),
                view.high_fence()?.to_bound(),
                view.level(),
            )
        };

        // Copy the root's entire image (records, foster state and all) to
        // a fresh page. The fresh pid is unreferenced, so `put_new`
        // cannot contend with the root latch this thread holds.
        let new_pid = self.alloc.allocate().ok_or(BTreeError::AllocFailed)?;
        let mut copy = (*guard).clone();
        copy.set_page_id(new_pid);
        copy.reset_update_count();
        format_new(&self.pool, &self.txn, sys, copy)?;

        // Rewrite the root as a branch with a single entry covering
        // everything the copied node (and its chain) covers — through the
        // held guard, not `put_new` (the page latch is not reentrant).
        let entries: Vec<RawRecord> = vec![(branch_record(new_pid, &high), false)];
        let new_root = build_node(
            self.page_size,
            self.root,
            NodeKind::Branch,
            level + 1,
            (&low, &high),
            &entries,
            None,
        );
        // Through the held guard: `put_new` would self-deadlock (the page
        // latch is not reentrant), and root growth keeps the root latched
        // from re-validation to rewrite.
        format_latched(&self.pool, &self.txn, sys, &mut guard, new_root)?;
        Ok(true)
    }

    /// Physically removes ghost records from `pid` under a system
    /// transaction. Returns true if anything was reclaimed.
    pub fn reclaim_ghosts(&self, pid: PageId) -> Result<bool, BTreeError> {
        let undo = PoolUndo::new(&self.pool);
        let reclaimed = self
            .txn
            .run_system(&undo, SYS_ATTEMPTS, |sys| {
                self.reclaim_inner(sys, pid).map(SysAttempt::Done)
            })?
            .unwrap_or(false);
        if reclaimed {
            TreeStatCounters::bump(&self.stats.ghost_reclaims);
        }
        Ok(reclaimed)
    }

    fn reclaim_inner(&self, sys: TxId, pid: PageId) -> Result<bool, BTreeError> {
        let mut guard = self.pool.fetch_mut(pid)?;
        let ghost_slots: Vec<u16> = {
            let view = NodeView::new(&guard)?;
            if view.kind() != NodeKind::Leaf {
                return Ok(false);
            }
            view.payload_range()
                .filter(|&pos| guard.record_at(pos).map(|(_, g)| g).unwrap_or(false))
                .collect()
        };
        let mut reclaimed = false;
        for &pos in ghost_slots.iter().rev() {
            let (bytes, _) = guard.record_at(pos).expect("slot exists");
            let old_bytes = bytes.to_vec();
            self.apply_logged(
                sys,
                &mut guard,
                PageOp::RemoveRecord {
                    pos,
                    old_bytes,
                    old_ghost: true,
                },
            )?;
            reclaimed = true;
        }
        if reclaimed {
            // Compaction is contents-neutral byte shuffling; redo is
            // slot-positional, so it needs no log record.
            SlottedPage::new(&mut guard).compact();
        }
        Ok(reclaimed)
    }

    // ------------------------------------------------------------------
    // Page migration
    // ------------------------------------------------------------------

    /// Moves node `pid` to a freshly allocated page, updating its single
    /// incoming pointer, and returns the new page id.
    ///
    /// Paper, Section 5.1.3: because Foster B-trees "permit only a single
    /// incoming pointer per node at all times … they support efficient
    /// page migration and defragmentation". Section 5.2.3 uses exactly
    /// this after single-page recovery: "once the page contents has been
    /// recovered …, the page can be moved to a new location. The old,
    /// failed location can be deallocated … or registered in an
    /// appropriate data structure to prevent future use (bad block list)."
    ///
    /// The migration runs as a system transaction; the new page's format
    /// record doubles as its backup copy (Section 5.2.1), so the migrated
    /// page is immediately recoverable again. The root cannot migrate
    /// (its id is the tree's stable anchor).
    ///
    /// `retire_old` controls the old location's fate: `true` puts it on
    /// the allocator's bad-block list, `false` returns it to the free
    /// pool.
    pub fn migrate_page(&self, pid: PageId, retire_old: bool) -> Result<PageId, BTreeError> {
        if pid == self.root {
            return Err(BTreeError::NodeCorrupt {
                page: pid,
                detail: "the root page cannot migrate (stable anchor)".into(),
            });
        }
        let sys = self.txn.begin(TxKind::System);
        let result = self.migrate_inner(sys, pid);
        match result {
            Ok(new_pid) => {
                self.txn.commit(sys, TraceCtx::NONE)?;
                self.pool.discard_page(pid);
                if retire_old {
                    self.alloc.retire(pid);
                } else {
                    self.alloc.deallocate(pid);
                }
                Ok(new_pid)
            }
            Err(e) => {
                let _ = self.txn.abort(sys, &PoolUndo::new(&self.pool));
                Err(e)
            }
        }
    }

    fn migrate_inner(&self, sys: TxId, pid: PageId) -> Result<PageId, BTreeError> {
        // Find the single incoming pointer by descending toward a key
        // inside the node's range.
        let (probe_key, level) = {
            let guard = self.pool.fetch(pid)?;
            let view = NodeView::new(&guard)?;
            let probe = match view.low_fence()? {
                BoundRef::Key(k) => k.to_vec(),
                BoundRef::NegInf => Vec::new(),
                BoundRef::PosInf => {
                    return Err(BTreeError::NodeCorrupt {
                        page: pid,
                        detail: "low fence is +∞".into(),
                    })
                }
            };
            (probe, view.level())
        };

        enum Incoming {
            ParentEntry {
                parent: PageId,
                pos: u16,
                upper: Bound,
            },
            FosterPointer {
                foster_parent: PageId,
            },
        }

        let mut current = self.root;
        let mut hops = 0usize;
        let incoming = loop {
            hops += 1;
            if hops > MAX_RETRIES * 4 {
                // Concurrent restructures kept moving the incoming
                // pointer; migration is invoked on quiesced/failed pages,
                // so give up rather than loop forever.
                return Err(BTreeError::TooManyRetries { retries: hops });
            }
            let guard = self.pool.fetch(current)?;
            let view = NodeView::new(&guard)?;
            match view.route(&probe_key)? {
                Descent::Foster { child, .. } => {
                    if child == pid {
                        break Incoming::FosterPointer {
                            foster_parent: current,
                        };
                    }
                    current = child;
                }
                Descent::Child {
                    pos, child, high, ..
                } => {
                    if child == pid {
                        break Incoming::ParentEntry {
                            parent: current,
                            pos,
                            upper: high.to_bound(),
                        };
                    }
                    current = child;
                }
                Descent::Leaf { .. } => {
                    return Err(BTreeError::NodeCorrupt {
                        page: pid,
                        detail: "no incoming pointer found during migration".into(),
                    })
                }
            }
        };

        // Copy the node to a fresh page; the format record is its backup.
        let new_pid = self.alloc.allocate().ok_or(BTreeError::AllocFailed)?;
        let mut copy = {
            let guard = self.pool.fetch(pid)?;
            (*guard).clone()
        };
        copy.set_page_id(new_pid);
        copy.reset_update_count();
        format_new(&self.pool, &self.txn, sys, copy)?;

        // Redirect the single incoming pointer.
        match incoming {
            Incoming::ParentEntry { parent, pos, upper } => {
                let mut pguard = self.pool.fetch_mut(parent)?;
                self.apply_logged(
                    sys,
                    &mut pguard,
                    PageOp::replace(
                        pos,
                        Vec::new(),
                        &branch_record(pid, &upper),
                        &branch_record(new_pid, &upper),
                    ),
                )?;
            }
            Incoming::FosterPointer { foster_parent } => {
                let mut fguard = self.pool.fetch_mut(foster_parent)?;
                let flevel = NodeView::new(&fguard)?.level();
                debug_assert_eq!(flevel, level);
                self.apply_logged(
                    sys,
                    &mut fguard,
                    PageOp::WriteStructure {
                        old: structure_bytes(flevel, Some(pid)),
                        new: structure_bytes(flevel, Some(new_pid)),
                    },
                )?;
            }
        }
        Ok(new_pid)
    }

    // ------------------------------------------------------------------
    // Offline verification
    // ------------------------------------------------------------------

    /// Full-tree structural verification: every node's fences against its
    /// parent, every in-node invariant, every foster chain. Returns all
    /// violations (empty = healthy).
    pub fn verify_full(&self) -> Result<Vec<Violation>, BTreeError> {
        let mut violations = Vec::new();
        // (page, expected_low, expected_high, expected_level or None)
        let mut stack: Vec<(PageId, Bound, Bound, Option<u8>)> =
            vec![(self.root, Bound::NegInf, Bound::PosInf, None)];
        let mut visited = std::collections::HashSet::new();
        while let Some((pid, low, high, level)) = stack.pop() {
            if !visited.insert(pid) {
                violations.push(Violation {
                    page: pid,
                    detail: "page reachable via multiple pointers".into(),
                });
                continue;
            }
            let guard = match self.pool.fetch(pid) {
                Ok(g) => g,
                Err(e) => {
                    violations.push(Violation {
                        page: pid,
                        detail: format!("unreadable: {e}"),
                    });
                    continue;
                }
            };
            let view = match NodeView::new(&guard) {
                Ok(v) => v,
                Err(e) => {
                    violations.push(Violation {
                        page: pid,
                        detail: e.to_string(),
                    });
                    continue;
                }
            };
            let (found_low, found_high) = match (view.low_fence(), view.high_fence()) {
                (Ok(l), Ok(h)) => (l, h),
                (l, h) => {
                    violations.push(Violation {
                        page: pid,
                        detail: format!("unreadable fences: {l:?} {h:?}"),
                    });
                    continue;
                }
            };
            if found_low != low || found_high != high {
                violations.push(Violation {
                    page: pid,
                    detail: format!(
                        "fences [{found_low}, {found_high}) do not match parent promise [{low}, {high})"
                    ),
                });
            }
            if let Some(lvl) = level {
                if view.level() != lvl {
                    violations.push(Violation {
                        page: pid,
                        detail: format!("level {} where parent implies {lvl}", view.level()),
                    });
                }
            }
            for v in view.check_invariants() {
                violations.push(Violation {
                    page: pid,
                    detail: v,
                });
            }
            // Foster chain: the foster child continues this node's range.
            if view.has_foster() {
                if let Ok(sep) = view.foster_separator() {
                    stack.push((
                        view.foster_pid(),
                        sep.to_bound(),
                        found_high.to_bound(),
                        Some(view.level()),
                    ));
                }
            }
            if view.kind() == NodeKind::Branch {
                let mut prev = found_low;
                for pos in view.payload_range() {
                    match view.branch_entry(pos) {
                        Ok((child, upper)) => {
                            stack.push((
                                child,
                                prev.to_bound(),
                                upper.to_bound(),
                                Some(view.level().saturating_sub(1)),
                            ));
                            prev = upper;
                        }
                        Err(e) => violations.push(Violation {
                            page: pid,
                            detail: e.to_string(),
                        }),
                    }
                }
            }
        }
        Ok(violations)
    }

    /// Tree height: 1 for a single leaf.
    pub fn height(&self) -> Result<u8, BTreeError> {
        let guard = self.pool.fetch(self.root)?;
        let view = NodeView::new(&guard)?;
        Ok(view.level() + 1)
    }
}
