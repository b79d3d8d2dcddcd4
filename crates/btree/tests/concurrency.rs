//! Concurrency tests for the Foster B-tree: latch-crabbed descents under
//! concurrent restructures.
//!
//! Three storms (disjoint writers, overlapping upserts, readers during
//! splits/adoptions) check that no committed write is ever lost and that
//! the structure stays verifiable afterwards — `verify_full` walks every
//! reachable node through `NodeView::check_invariants` and re-checks all
//! fence promises. Two deterministic tests then use the write path's
//! release/re-acquire hook to drive the foster-chain retry path on
//! purpose, covering both recovery (bounded hops succeed) and
//! `TooManyRetries` (a lowered limit trips with an exact retry count); a
//! third shows that a lookup has no such window, and a fourth that a
//! writer is not starved by readers that never leave the root.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spf_btree::{BTreeError, BumpAllocator, FosterBTree, PageAllocator, VerifyMode};
use spf_buffer::{BufferPool, BufferPoolConfig};
use spf_obs::TraceCtx;
use spf_storage::{MemDevice, PageId, DEFAULT_PAGE_SIZE};
use spf_txn::{TxKind, TxnManager};
use spf_wal::{LogManager, TxId};

struct Fixture {
    pool: BufferPool,
    txn: TxnManager,
    alloc: Arc<BumpAllocator>,
}

fn fixture(frames: usize, capacity: u64) -> Fixture {
    let device = MemDevice::for_testing(DEFAULT_PAGE_SIZE, capacity);
    let log = LogManager::for_testing();
    let pool = BufferPool::new(
        BufferPoolConfig { frames },
        Arc::new(device.clone()),
        log.clone(),
    );
    let txn = TxnManager::new(log);
    let alloc = Arc::new(BumpAllocator::new(1, capacity));
    Fixture { pool, txn, alloc }
}

fn foster_tree(fx: &Fixture, verify: VerifyMode) -> FosterBTree {
    FosterBTree::create(
        fx.pool.clone(),
        fx.txn.clone(),
        fx.alloc.clone() as Arc<dyn PageAllocator>,
        PageId(0),
        DEFAULT_PAGE_SIZE,
        verify,
    )
    .expect("create tree")
}

/// A second handle over the same pages, for hooks that restructure while
/// the handle under test is mid-operation.
fn second_handle(fx: &Fixture) -> FosterBTree {
    FosterBTree::open(
        fx.pool.clone(),
        fx.txn.clone(),
        fx.alloc.clone() as Arc<dyn PageAllocator>,
        PageId(0),
        DEFAULT_PAGE_SIZE,
        VerifyMode::Continuous,
    )
}

/// Per-thread upsert observations: (key index, new value, replaced value).
type Observations = Vec<Vec<(u64, Vec<u8>, Option<Vec<u8>>)>>;

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(thread: usize, seq: u64) -> Vec<u8> {
    format!("t{thread:02}-{seq:012}").into_bytes()
}

/// Post-storm structural check: every node's invariants and every fence
/// promise, then the fence-verification counters from the storm itself.
fn assert_structurally_clean(tree: &FosterBTree) {
    let violations = tree.verify_full().expect("verify_full");
    assert!(
        violations.is_empty(),
        "violations after storm: {violations:?}"
    );
    assert_eq!(
        tree.stats().fence_failures,
        0,
        "continuous verification flagged a fence during the storm"
    );
}

#[test]
fn disjoint_writers_every_committed_key_readable() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 400;
    let fx = fixture(512, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = &tree;
            let txn = &fx.txn;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let base = t as u64 * PER_THREAD;
                let mut tx = txn.begin(TxKind::User);
                for i in 0..PER_THREAD {
                    tree.insert(tx, &key(base + i), &val(t, i)).unwrap();
                    if i % 25 == 24 {
                        txn.commit(tx, TraceCtx::NONE).unwrap();
                        tx = txn.begin(TxKind::User);
                    }
                }
                txn.commit(tx, TraceCtx::NONE).unwrap();
            });
        }
    });

    for t in 0..THREADS {
        let base = t as u64 * PER_THREAD;
        for i in 0..PER_THREAD {
            assert_eq!(
                tree.get(&key(base + i)).unwrap(),
                Some(val(t, i)),
                "committed key {} lost",
                base + i
            );
        }
    }
    let all = tree.collect_all().unwrap();
    assert_eq!(all.len(), THREADS * PER_THREAD as usize);
    assert_structurally_clean(&tree);
    assert!(
        tree.stats().leaf_splits > 0,
        "storm too small to exercise concurrent splits"
    );
}

#[test]
fn overlapping_upserts_form_a_linear_chain_per_key() {
    const THREADS: usize = 4;
    const OPS: u64 = 300;
    const KEYS: u64 = 100;
    let fx = fixture(512, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let barrier = Barrier::new(THREADS);

    // Each committed upsert is one observation: (key, new value, value it
    // replaced). Values are globally unique, so the observations on a key
    // must chain final → … → None if no update was lost or torn.
    let observations: Observations = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tree = &tree;
                let txn = &fx.txn;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t as u64);
                    let mut seen = Vec::with_capacity(OPS as usize);
                    for seq in 0..OPS {
                        let k = rng.gen_range(0..KEYS);
                        let v = val(t, seq);
                        let tx = txn.begin(TxKind::User);
                        let prev = tree.upsert(tx, &key(k), &v, TraceCtx::NONE).unwrap();
                        txn.commit(tx, TraceCtx::NONE).unwrap();
                        seen.push((k, v, prev));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reconstruct the per-key linearization from the prev-value pointers.
    let mut by_new: BTreeMap<u64, BTreeMap<Vec<u8>, Option<Vec<u8>>>> = BTreeMap::new();
    for (k, new, prev) in observations.into_iter().flatten() {
        let dup = by_new.entry(k).or_default().insert(new, prev);
        assert!(dup.is_none(), "value written twice");
    }
    for (k, chain) in &by_new {
        let mut cursor = tree.get(&key(*k)).unwrap();
        let mut walked = BTreeSet::new();
        while let Some(value) = cursor {
            assert!(walked.insert(value.clone()), "cycle in update chain");
            cursor = chain
                .get(&value)
                .unwrap_or_else(|| panic!("final value of key {k} not written by any op"))
                .clone();
        }
        assert_eq!(
            walked.len(),
            chain.len(),
            "key {k}: {} of {} upserts missing from the chain — lost update",
            chain.len() - walked.len(),
            chain.len()
        );
    }
    assert_structurally_clean(&tree);
}

/// Keys the reader storm's writer commits.
const TOTAL: u64 = 600;

/// One writer inserts keys `0..TOTAL` with `insert`, commits every `BATCH`
/// and publishes the committed count; three readers check random committed
/// keys and short scans until the writer is done — or gone: the scope
/// joins the writer before it releases the readers, so a writer that
/// panics fails the test instead of leaving them spinning on a watermark
/// that will never move.
fn reader_storm(fx: &Fixture, tree: &FosterBTree, insert: impl Fn(TxId, u64) + Send) {
    const BATCH: u64 = 20;
    const READERS: usize = 3;
    let watermark = AtomicU64::new(0);
    let writer_exited = AtomicBool::new(false);

    std::thread::scope(|s| {
        let txn = &fx.txn;
        let watermark = &watermark;
        let writer_exited = &writer_exited;
        let writer = s.spawn(move || {
            let mut tx = txn.begin(TxKind::User);
            for i in 0..TOTAL {
                insert(tx, i);
                if (i + 1) % BATCH == 0 {
                    txn.commit(tx, TraceCtx::NONE).unwrap();
                    watermark.store(i + 1, Ordering::Release);
                    tx = txn.begin(TxKind::User);
                }
            }
            txn.commit(tx, TraceCtx::NONE).unwrap();
        });
        for r in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 + r as u64);
                loop {
                    // Read before the watermark: a writer seen as exited
                    // has published its last watermark, so one more pass
                    // checks everything it committed.
                    let exited = writer_exited.load(Ordering::Acquire);
                    let committed = watermark.load(Ordering::Acquire);
                    if committed > 0 {
                        let i = rng.gen_range(0..committed);
                        assert_eq!(
                            tree.get(&key(i)).unwrap(),
                            Some(val(0, i)),
                            "committed key {i} invisible mid-storm"
                        );
                        // Crabbed scans must stay sorted and duplicate-free
                        // while the chain restructures underneath them.
                        let run = tree.scan(&key(i), 16).unwrap();
                        assert!(
                            run.windows(2).all(|w| w[0].0 < w[1].0),
                            "scan produced unsorted or duplicate keys"
                        );
                    }
                    if exited {
                        break;
                    }
                }
            });
        }
        let outcome = writer.join();
        writer_exited.store(true, Ordering::Release);
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn readers_see_all_committed_keys_during_splits_and_adoptions() {
    let fx = fixture(512, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    reader_storm(&fx, &tree, |tx, i| {
        tree.insert(tx, &key(i), &val(0, i)).unwrap();
    });

    assert_eq!(tree.collect_all().unwrap().len(), TOTAL as usize);
    assert_structurally_clean(&tree);
    let stats = tree.stats();
    assert!(stats.leaf_splits > 0 && stats.adoptions > 0);
}

/// The harness itself: a writer that dies mid-storm (as `insert` did with
/// `TooManyRetries` on a 2-core box) must fail the test, not leave the
/// readers spinning on the watermark.
#[test]
#[should_panic(expected = "injected writer failure")]
fn a_dead_writer_fails_the_reader_storm_instead_of_hanging() {
    let fx = fixture(512, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    reader_storm(&fx, &tree, |tx, i| {
        assert!(i < TOTAL / 2, "injected writer failure at key {i}");
        tree.insert(tx, &key(i), &val(0, i)).unwrap();
    });
}

/// One full leaf (the root) holding keys `0..40`.
fn one_full_leaf(fx: &Fixture) -> FosterBTree {
    let tree = foster_tree(fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..40 {
        tree.insert(tx, &key(i), &val(0, i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    tree
}

/// Arms `tree`'s release/re-acquire hook to split the target leaf four
/// times, once: each split halves the leaf and pushes the upper range one
/// node deeper into the foster chain (leaf → f4 → f3 → f2 → f1), so key 39
/// ends up four hops from where the descent found it. Returns the flag the
/// hook raises when it fires.
fn arm_four_splits(fx: &Fixture, tree: &FosterBTree) -> Arc<AtomicBool> {
    let splitter = second_handle(fx);
    let fired = Arc::new(AtomicBool::new(false));
    let hook_fired = Arc::clone(&fired);
    tree.set_reacquire_hook(Some(Arc::new(move |leaf: PageId| {
        if !hook_fired.swap(true, Ordering::SeqCst) {
            for _ in 0..4 {
                splitter.force_split(leaf).unwrap();
            }
        }
    })));
    fired
}

/// Lets the hook split the leaf several times in the window between a
/// write's descent releasing its shared latch and the write re-latching
/// the leaf exclusively: the upsert must recover by hopping the foster
/// chain, and the hops are visible in `descent_retries`.
#[test]
fn injected_splits_drive_foster_hops_and_recovery() {
    let fx = fixture(64, 256);
    let tree = one_full_leaf(&fx);
    let fired = arm_four_splits(&fx, &tree);

    // key 39 now lives at the chain's tail: four hops to reach it.
    let tx = fx.txn.begin(TxKind::User);
    assert_eq!(
        tree.upsert(tx, &key(39), &val(1, 39), TraceCtx::NONE)
            .unwrap(),
        Some(val(0, 39))
    );
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    assert!(fired.load(Ordering::SeqCst), "hook never fired");
    assert_eq!(
        tree.stats().descent_retries,
        4,
        "expected exactly one hop per injected split"
    );
    tree.set_reacquire_hook(None);
    assert_eq!(tree.get(&key(39)).unwrap(), Some(val(1, 39)));
    assert_structurally_clean(&tree);
}

/// Same injection with the retry limit lowered to 2: the third hop must
/// fail with `TooManyRetries` carrying the exact retry count, and the
/// tree must remain fully usable afterwards.
#[test]
fn too_many_retries_reports_count_and_tree_survives() {
    let fx = fixture(64, 256);
    let tree = one_full_leaf(&fx);
    arm_four_splits(&fx, &tree);
    tree.set_retry_limit(2);

    let tx = fx.txn.begin(TxKind::User);
    let err = tree
        .upsert(tx, &key(39), &val(1, 39), TraceCtx::NONE)
        .unwrap_err();
    match &err {
        BTreeError::TooManyRetries { retries } => {
            assert_eq!(*retries, 3, "limit 2 must trip on the third hop");
            assert!(
                err.to_string().contains('3'),
                "display must carry the count: {err}"
            );
        }
        other => panic!("expected TooManyRetries, got {other}"),
    }

    // Recovery: with the hook disarmed nothing restructures inside the
    // window, the descent follows the chain under crabbed latches, and
    // even the low limit suffices — for the failed write's own retry too.
    tree.set_reacquire_hook(None);
    assert_eq!(
        tree.upsert(tx, &key(39), &val(1, 39), TraceCtx::NONE)
            .unwrap(),
        Some(val(0, 39))
    );
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    assert_eq!(tree.get(&key(39)).unwrap(), Some(val(1, 39)));
    assert_eq!(tree.get(&key(0)).unwrap(), Some(val(0, 0)));
    assert_structurally_clean(&tree);
}

/// A reader has no such window: it copies the value out under the shared
/// latch its descent ends on. With the same hook armed, `get` returns the
/// right value, the hook never fires, and nothing is retried.
#[test]
fn get_finishes_on_the_descent_latch() {
    let fx = fixture(64, 256);
    let tree = one_full_leaf(&fx);
    let fired = arm_four_splits(&fx, &tree);

    for i in [0, 17, 39] {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(val(0, i)));
    }
    assert_eq!(tree.get(&key(40)).unwrap(), None);
    assert!(
        !fired.load(Ordering::SeqCst),
        "a lookup released its latch before it was done"
    );
    assert_eq!(tree.stats().descent_retries, 0);
    assert_eq!(tree.stats().leaf_splits, 0);
}

/// Four readers keep the root and the subtrees under it latched shared,
/// back to back, while one writer inserts through leaf splits, branch
/// adoptions and root growth. The writer's conflict retries pause before
/// re-descending (spin, then yield), so at the default retry limit it
/// must get through without `TooManyRetries` — at any core count, which
/// is why the readers outnumber the cores CI pins this suite to.
#[test]
fn writer_splits_through_readers_pinned_on_the_root() {
    const READERS: usize = 4;
    const KEYS: u64 = 1500;
    let fx = fixture(512, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let (tree, txn, start, done) = (&tree, &fx.txn, &start, &done);
        let writer = s.spawn(move || {
            start.wait();
            let tx = txn.begin(TxKind::User);
            let outcome = (0..KEYS).try_for_each(|i| tree.insert(tx, &key(i), &val(0, i)));
            txn.commit(tx, TraceCtx::NONE).unwrap();
            outcome
        });
        for r in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + r as u64);
                start.wait();
                while !done.load(Ordering::Acquire) {
                    // Hit or miss, every lookup latches the root first.
                    tree.get(&key(rng.gen_range(0..KEYS))).unwrap();
                }
            });
        }
        let outcome = writer.join();
        done.store(true, Ordering::Release);
        match outcome {
            Ok(result) => result.expect("writer starved by readers"),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });

    assert_eq!(tree.collect_all().unwrap().len(), KEYS as usize);
    assert_structurally_clean(&tree);
    let stats = tree.stats();
    assert!(
        stats.leaf_splits >= 8 && stats.adoptions > 0 && stats.root_growths > 0,
        "storm too small to restructure under the readers: {stats:?}"
    );
}
