//! Integration tests for the Foster B-tree and the standard baseline:
//! correctness against a model, structural invariants under churn, fence
//! verification behaviour, and the detection-coverage asymmetry.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spf_btree::node::Descent;
use spf_btree::{
    BTreeError, BumpAllocator, FosterBTree, NodeView, PageAllocator, StandardBTree, VerifyMode,
};
use spf_buffer::{BufferPool, BufferPoolConfig};
use spf_obs::TraceCtx;
use spf_storage::{Device, PageId, StorageDevice, DEFAULT_PAGE_SIZE};
use spf_txn::{TxKind, TxnManager};
use spf_wal::LogManager;

struct Fixture {
    device: Device,
    pool: BufferPool,
    txn: TxnManager,
    alloc: Arc<BumpAllocator>,
}

fn fixture(frames: usize, capacity: u64) -> Fixture {
    let device = Device::for_testing(DEFAULT_PAGE_SIZE, capacity);
    let log = LogManager::for_testing();
    let pool = BufferPool::new(
        BufferPoolConfig { frames },
        Arc::new(device.clone()),
        log.clone(),
    );
    let txn = TxnManager::new(log);
    let alloc = Arc::new(BumpAllocator::new(1, capacity));
    Fixture {
        device,
        pool,
        txn,
        alloc,
    }
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

fn standard_tree(fx: &Fixture) -> StandardBTree {
    StandardBTree::create(
        fx.pool.clone(),
        fx.txn.clone(),
        fx.alloc.clone() as Arc<dyn PageAllocator>,
        PageId(0),
        DEFAULT_PAGE_SIZE,
    )
    .expect("create tree")
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i:08}-{}", "x".repeat((i % 40) as usize)).into_bytes()
}

#[test]
fn insert_get_roundtrip_small() {
    let fx = fixture(64, 256);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..50 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    for i in 0..50 {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)), "key {i}");
    }
    assert_eq!(tree.get(b"absent").unwrap(), None);
    assert!(tree.verify_full().unwrap().is_empty());
}

#[test]
fn duplicate_insert_rejected_upsert_replaces() {
    let fx = fixture(64, 256);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    tree.insert(tx, b"k", b"v1").unwrap();
    assert!(matches!(
        tree.insert(tx, b"k", b"v2"),
        Err(BTreeError::DuplicateKey)
    ));
    assert_eq!(
        tree.upsert(tx, b"k", b"v2", TraceCtx::NONE).unwrap(),
        Some(b"v1".to_vec())
    );
    assert_eq!(tree.get(b"k").unwrap(), Some(b"v2".to_vec()));
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
}

#[test]
fn delete_ghosts_and_reinsert() {
    let fx = fixture(64, 256);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    tree.insert(tx, b"gone", b"old").unwrap();
    assert_eq!(tree.delete(tx, b"gone").unwrap(), b"old".to_vec());
    assert_eq!(tree.get(b"gone").unwrap(), None);
    assert!(matches!(
        tree.delete(tx, b"gone"),
        Err(BTreeError::KeyNotFound)
    ));
    // Re-insert over the ghost resurrects the slot.
    tree.insert(tx, b"gone", b"new").unwrap();
    assert_eq!(tree.get(b"gone").unwrap(), Some(b"new".to_vec()));
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    assert!(tree.verify_full().unwrap().is_empty());
}

#[test]
fn growth_through_many_splits() {
    let fx = fixture(256, 4096);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    let n = 5_000u64;
    for i in 0..n {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();

    let stats = tree.stats();
    assert!(
        stats.leaf_splits > 10,
        "expected many leaf splits, got {stats:?}"
    );
    assert!(
        stats.adoptions > 0,
        "foster children must be adopted over time"
    );
    assert!(stats.root_growths >= 1, "tree must have grown");
    assert!(tree.height().unwrap() >= 2);

    for i in (0..n).step_by(97) {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)), "key {i}");
    }
    let violations = tree.verify_full().unwrap();
    assert!(
        violations.is_empty(),
        "tree must verify clean: {violations:?}"
    );
    // No fence check ever failed during healthy operation.
    assert_eq!(tree.stats().fence_failures, 0);
    assert!(tree.stats().fence_checks > 0);
}

/// Regression test: a root (or any branch) that fills up must
/// foster-split so the tree can grow another level. Near-max-size
/// records pack only a handful of entries per leaf, so the branch above
/// them fills while the tree is still small; the broken behaviour was an
/// adoption livelock (`TooManyRetries`) because growing a full root was
/// only possible once it already had a foster chain — which a merely
/// full root never gets without being split first.
#[test]
fn full_branches_split_so_the_tree_keeps_growing() {
    let fx = fixture(256, 8192);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let big = vec![b'v'; 1_000];
    let n = 3_000u64;
    for chunk in 0..(n / 100) {
        let tx = fx.txn.begin(TxKind::User);
        for i in (chunk * 100)..((chunk + 1) * 100) {
            tree.insert(tx, &key(i), &big).unwrap();
        }
        fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    }

    let stats = tree.stats();
    assert!(
        stats.branch_splits >= 1,
        "a full branch must foster-split: {stats:?}"
    );
    assert!(
        stats.root_growths >= 2,
        "the tree must grow past two levels: {stats:?}"
    );
    assert!(tree.height().unwrap() >= 3);
    for i in (0..n).step_by(61) {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(big.clone()), "key {i}");
    }
    let violations = tree.verify_full().unwrap();
    assert!(violations.is_empty(), "tree must verify: {violations:?}");
}

#[test]
fn reverse_and_random_insert_orders() {
    for seed in [1u64, 2, 3] {
        let fx = fixture(128, 2048);
        let tree = foster_tree(&fx, VerifyMode::Continuous);
        let tx = fx.txn.begin(TxKind::User);
        let mut keys: Vec<u64> = (0..1500).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Shuffle (or reverse on seed 1).
        if seed == 1 {
            keys.reverse();
        } else {
            for i in (1..keys.len()).rev() {
                let j = rng.gen_range(0..=i);
                keys.swap(i, j);
            }
        }
        for &i in &keys {
            tree.insert(tx, &key(i), &val(i)).unwrap();
        }
        fx.txn.commit(tx, TraceCtx::NONE).unwrap();
        let all = tree.collect_all().unwrap();
        assert_eq!(all.len(), 1500);
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "scan must be ordered"
        );
        assert!(tree.verify_full().unwrap().is_empty(), "seed {seed}");
    }
}

#[test]
fn scan_ranges() {
    let fx = fixture(128, 1024);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..1000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    // Delete a band in the middle.
    for i in 400..420 {
        tree.delete(tx, &key(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();

    let out = tree.scan(&key(395), 10).unwrap();
    let got: Vec<Vec<u8>> = out.into_iter().map(|(k, _)| k).collect();
    let want: Vec<Vec<u8>> = [395, 396, 397, 398, 399, 420, 421, 422, 423, 424]
        .iter()
        .map(|&i| key(i))
        .collect();
    assert_eq!(
        got, want,
        "scan must skip ghosts and cross chain boundaries"
    );

    assert_eq!(tree.scan(&key(999), 100).unwrap().len(), 1);
    assert_eq!(tree.scan(b"zzzz", 100).unwrap().len(), 0);
    assert_eq!(tree.collect_all().unwrap().len(), 980);
}

#[test]
fn rollback_undoes_tree_updates() {
    let fx = fixture(128, 1024);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let setup = fx.txn.begin(TxKind::User);
    for i in 0..100 {
        tree.insert(setup, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(setup, TraceCtx::NONE).unwrap();

    let tx = fx.txn.begin(TxKind::User);
    for i in 100..150 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    for i in 0..10 {
        tree.delete(tx, &key(i)).unwrap();
    }
    tree.upsert(tx, &key(50), b"changed", TraceCtx::NONE)
        .unwrap();

    // Roll back through the per-transaction chain.
    fx.txn
        .abort(tx, &spf_btree::tree::PoolUndo::new(&fx.pool))
        .unwrap();

    // All effects gone.
    for i in 100..150 {
        assert_eq!(
            tree.get(&key(i)).unwrap(),
            None,
            "inserted key {i} must vanish"
        );
    }
    for i in 0..10 {
        assert_eq!(
            tree.get(&key(i)).unwrap(),
            Some(val(i)),
            "deleted key {i} must return"
        );
    }
    assert_eq!(tree.get(&key(50)).unwrap(), Some(val(50)));
    assert!(tree.verify_full().unwrap().is_empty());
}

#[test]
fn fence_verification_counts_are_plausible() {
    let fx = fixture(128, 1024);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..2000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    let checks_before = tree.stats().fence_checks;
    for i in 0..100 {
        let _ = tree.get(&key(i * 17)).unwrap();
    }
    let per_lookup = (tree.stats().fence_checks - checks_before) as f64 / 100.0;
    let height = tree.height().unwrap() as f64;
    assert!(
        per_lookup >= height - 1.0 && per_lookup <= height + 2.0,
        "≈ one fence check per pointer traversal: {per_lookup} vs height {height}"
    );
}

#[test]
fn verify_off_does_no_checks() {
    let fx = fixture(128, 1024);
    let tree = foster_tree(&fx, VerifyMode::Off);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..500 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    for i in 0..500 {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)));
    }
    assert_eq!(tree.stats().fence_checks, 0);
}

/// The E2 asymmetry in miniature: a swapped child pointer (internally
/// valid pages!) is caught by the Foster tree's fence checks on the very
/// next traversal, while the standard B+-tree silently mis-routes.
#[test]
fn cross_page_corruption_detection_asymmetry() {
    // --- Foster tree detects ---
    let fx = fixture(16, 1024);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..2000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    fx.pool.flush_all().unwrap();

    // Corrupt on "disk": swap the images of two distinct leaves, fixing
    // checksums and self-ids so every in-page test passes.
    let (a, b) = find_two_leaves(&fx.device);
    swap_pages_consistently(&fx.device, a, b);
    // Drop cached copies so the next traversal reads from the device.
    fx.pool.discard_all();

    let mut detected = 0;
    for i in 0..2000 {
        if let Err(BTreeError::FenceMismatch { .. }) = tree.get(&key(i)) {
            detected += 1;
            break;
        }
    }
    assert!(
        detected > 0,
        "Foster tree must detect the swapped pages via fences"
    );

    // --- Standard tree does not ---
    let fx = fixture(16, 1024);
    let tree = standard_tree(&fx);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..2000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    fx.pool.flush_all().unwrap();
    let (a, b) = find_two_leaves(&fx.device);
    swap_pages_consistently(&fx.device, a, b);
    fx.pool.discard_all();

    let mut wrong_answers = 0;
    let mut detections = 0;
    for i in 0..2000 {
        match tree.get(&key(i)) {
            Ok(Some(v)) if v == val(i) => {}
            Ok(_) => wrong_answers += 1,
            Err(_) => detections += 1,
        }
    }
    assert!(
        wrong_answers > 0,
        "standard tree silently returns wrong results (got {detections} detections)"
    );
}

/// A branch page whose level byte says 0 (every in-page test passes: the
/// type, the fences and the one entry are all well-formed). The descent
/// expects a branch's children one level down; it must report the node as
/// a detected single-page failure — in debug builds this used to be an
/// arithmetic-overflow panic, in release a child "expected" at level 255.
#[test]
fn branch_with_level_zero_is_detected_not_a_panic() {
    use spf_btree::node::{branch_record, build_empty_leaf, build_node, NodeKind};
    use spf_btree::Bound;

    let fx = fixture(16, 64);
    let (root, leaf) = (PageId(0), PageId(1));
    let mut bad_root = build_node(
        DEFAULT_PAGE_SIZE,
        root,
        NodeKind::Branch,
        0,
        (&Bound::NegInf, &Bound::PosInf),
        &[(branch_record(leaf, &Bound::PosInf), false)],
        None,
    );
    let mut child = build_empty_leaf(DEFAULT_PAGE_SIZE, leaf);
    for page in [&mut bad_root, &mut child] {
        page.finalize_checksum();
        fx.device.raw_overwrite(page.page_id(), page.as_bytes());
    }
    let tree = FosterBTree::open(
        fx.pool.clone(),
        fx.txn.clone(),
        fx.alloc.clone() as Arc<dyn PageAllocator>,
        root,
        DEFAULT_PAGE_SIZE,
        VerifyMode::Continuous,
    );

    let tx = fx.txn.begin(TxKind::User);
    let failures = [
        tree.get(&key(1)).map(|_| ()),
        tree.scan(&key(1), 10).map(|_| ()),
        tree.upsert(tx, &key(1), &val(1), TraceCtx::NONE)
            .map(|_| ()),
    ];
    for outcome in failures {
        let err = outcome.expect_err("level-0 branch must be refused");
        assert!(
            matches!(&err, BTreeError::NodeCorrupt { detail, .. } if detail.contains("level 0")),
            "unexpected error: {err}"
        );
        assert_eq!(err.detected_page(), Some(root));
    }
}

/// Finds two distinct leaf pages on the device.
fn find_two_leaves(device: &Device) -> (PageId, PageId) {
    let mut leaves = Vec::new();
    for i in 0..device.capacity() {
        let image = spf_storage::Page::from_bytes(device.raw_image(PageId(i)));
        if image.page_type() == Some(spf_storage::PageType::BTreeLeaf)
            && image.slot_count() > 4
            && image.page_id() == PageId(i)
        {
            leaves.push(PageId(i));
        }
        if leaves.len() >= 4 {
            break;
        }
    }
    assert!(leaves.len() >= 2, "need two leaves to swap");
    (leaves[leaves.len() - 2], leaves[leaves.len() - 1])
}

/// Swaps two page images, rewriting self-ids and checksums so the result
/// passes every in-page test (models misdirected writes by firmware).
fn swap_pages_consistently(device: &Device, a: PageId, b: PageId) {
    let mut img_a = spf_storage::Page::from_bytes(device.raw_image(a));
    let mut img_b = spf_storage::Page::from_bytes(device.raw_image(b));
    img_a.set_page_id(b);
    img_b.set_page_id(a);
    img_a.finalize_checksum();
    img_b.finalize_checksum();
    device.raw_overwrite(b, img_a.as_bytes());
    device.raw_overwrite(a, img_b.as_bytes());
}

#[test]
fn standard_tree_basic_operations() {
    let fx = fixture(128, 2048);
    let tree = standard_tree(&fx);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..3000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    for i in 0..50 {
        tree.delete(tx, &key(i * 3)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    for i in 0..3000 {
        let got = tree.get(&key(i)).unwrap();
        if i < 150 && i % 3 == 0 {
            assert_eq!(got, None, "deleted {i}");
        } else {
            assert_eq!(got, Some(val(i)), "key {i}");
        }
    }
    let all = tree.collect_all().unwrap();
    assert_eq!(all.len(), 2950);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(tree.verify_in_node_only().unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The Foster B-tree behaves exactly like BTreeMap under arbitrary
    /// interleavings of insert/upsert/delete, while continuously passing
    /// its own structural verification.
    #[test]
    fn prop_foster_matches_model(ops in proptest::collection::vec(
        (0u8..4, 0u64..400, any::<u16>()), 1..400
    )) {
        let fx = fixture(64, 4096);
        let tree = foster_tree(&fx, VerifyMode::Continuous);
        let tx = fx.txn.begin(TxKind::User);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (op, k, v) in ops {
            let k = key(k);
            let v = format!("v{v}").into_bytes();
            match op {
                0 => {
                    let expect_dup = model.contains_key(&k);
                    match tree.insert(tx, &k, &v) {
                        Ok(()) => {
                            prop_assert!(!expect_dup);
                            model.insert(k, v);
                        }
                        Err(BTreeError::DuplicateKey) => prop_assert!(expect_dup),
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                1 => {
                    let old = tree.upsert(tx, &k, &v, TraceCtx::NONE).unwrap();
                    prop_assert_eq!(old, model.insert(k, v));
                }
                2 => {
                    match tree.delete(tx, &k) {
                        Ok(old) => {
                            let model_old = model.remove(&k);
                            prop_assert_eq!(Some(old), model_old);
                        }
                        Err(BTreeError::KeyNotFound) => prop_assert!(!model.contains_key(&k)),
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                _ => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        fx.txn.commit(tx, TraceCtx::NONE).unwrap();
        let all = tree.collect_all().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(all, want);
        let violations = tree.verify_full().unwrap();
        prop_assert!(violations.is_empty(), "{:?}", violations);
        prop_assert_eq!(tree.stats().fence_failures, 0);
    }
}

#[test]
fn page_migration_preserves_tree() {
    let fx = fixture(128, 4096);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..3000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    fx.pool.flush_all().unwrap();

    // Migrate several leaves and a branch, retiring the old locations.
    let leaves = find_two_leaves(&fx.device);
    let new_a = tree.migrate_page(leaves.0, true).unwrap();
    let new_b = tree.migrate_page(leaves.1, false).unwrap();
    assert_ne!(new_a, leaves.0);
    assert_ne!(new_b, leaves.1);

    // All data reachable, structure intact, fences still verify.
    let all = tree.collect_all().unwrap();
    assert_eq!(all.len(), 3000);
    assert!(tree.verify_full().unwrap().is_empty());

    // The retired page never comes back from the allocator; the freed one
    // may.
    assert!(fx.alloc.bad_blocks().contains(&leaves.0));
    assert!(!fx.alloc.bad_blocks().contains(&leaves.1));

    // Root refuses to migrate.
    assert!(tree.migrate_page(tree.root(), true).is_err());
}

#[test]
fn migrated_page_remains_recoverable_reference() {
    // After migration the new location's format record is its backup: a
    // later write and re-read round-trips.
    let fx = fixture(64, 2048);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..1000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    fx.pool.flush_all().unwrap();
    let (victim, _) = find_two_leaves(&fx.device);
    let new_pid = tree.migrate_page(victim, true).unwrap();
    fx.pool.flush_all().unwrap();

    let tx = fx.txn.begin(TxKind::User);
    for i in 0..1000 {
        tree.upsert(tx, &key(i), b"after-migration", TraceCtx::NONE)
            .unwrap();
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    assert_eq!(
        tree.get(&key(500)).unwrap(),
        Some(b"after-migration".to_vec())
    );
    assert!(new_pid.is_valid());
    assert!(tree.verify_full().unwrap().is_empty());
}

/// Pool fetches so far, hits and misses alike.
fn fetches(fx: &Fixture) -> u64 {
    let stats = fx.pool.stats();
    stats.hits + stats.misses
}

/// The leaf `key` routes to, and the node whose branch entry or foster
/// pointer leads there.
fn parent_and_leaf(fx: &Fixture, tree: &FosterBTree, key: &[u8]) -> (PageId, PageId) {
    let (mut parent, mut current) = (PageId::INVALID, tree.root());
    loop {
        let guard = fx.pool.fetch(current).unwrap();
        match NodeView::new(&guard).unwrap().route(key).unwrap() {
            Descent::Leaf { .. } => return (parent, current),
            Descent::Child { child, .. } | Descent::Foster { child, .. } => {
                parent = current;
                current = child;
            }
        }
    }
}

/// A write descends once: root, inner node and leaf shared, then the leaf
/// once more exclusive — four pool fetches, three of them node visits. A
/// lookup is the three shared fetches alone.
#[test]
fn a_resident_write_costs_four_fetches_and_a_lookup_three() {
    let fx = fixture(4096, 4096);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..60_000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    // A first write runs whatever adoption or growth the probe's path
    // still needs; after it the path has no foster hop.
    let probe = key(31_337);
    tree.upsert(tx, &probe, b"settle", TraceCtx::NONE).unwrap();
    assert_eq!(tree.height().unwrap(), 3, "the budget is for three levels");

    let (before, visits) = (fetches(&fx), tree.stats().node_visits);
    tree.upsert(tx, &probe, b"second", TraceCtx::NONE).unwrap();
    assert_eq!(fetches(&fx) - before, 4, "one write, one descent");
    assert_eq!(tree.stats().node_visits - visits, 3);

    let before = fetches(&fx);
    assert_eq!(tree.get(&probe).unwrap(), Some(b"second".to_vec()));
    assert_eq!(fetches(&fx) - before, 3);
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
}

/// Foster-chain maintenance happens on the write that meets it: a split
/// leaf is adopted by the next write under it. An adoption that backs off
/// (a reader holds the parent, so its try-latch fails) does not stall the
/// write, which goes over the foster hop; the next write adopts.
#[test]
fn a_write_adopts_the_foster_child_it_meets_and_a_backed_off_adoption_does_not_stall_it() {
    let fx = fixture(256, 4096);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..2_000 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    let probe = key(1_500);
    tree.upsert(tx, &probe, b"settle", TraceCtx::NONE).unwrap();

    let (_, leaf) = parent_and_leaf(&fx, &tree, &probe);
    tree.force_split(leaf).unwrap();
    let adoptions = tree.stats().adoptions;
    tree.upsert(tx, &probe, b"adopted", TraceCtx::NONE).unwrap();
    assert_eq!(tree.stats().adoptions, adoptions + 1);
    assert!(tree.verify_full().unwrap().is_empty());

    let (parent, leaf) = parent_and_leaf(&fx, &tree, &probe);
    tree.force_split(leaf).unwrap();
    let before = tree.stats();
    let held = fx.pool.fetch(parent).unwrap();
    assert_eq!(
        tree.upsert(tx, &probe, b"backed off", TraceCtx::NONE)
            .unwrap(),
        Some(b"adopted".to_vec())
    );
    drop(held);
    let after = tree.stats();
    assert_eq!(
        after.adoptions, before.adoptions,
        "the try-latch backed off"
    );
    assert_eq!(
        after.restructure_conflicts,
        before.restructure_conflicts + 1
    );
    assert_eq!(tree.get(&probe).unwrap(), Some(b"backed off".to_vec()));

    tree.upsert(tx, &probe, b"adopted late", TraceCtx::NONE)
        .unwrap();
    assert_eq!(tree.stats().adoptions, before.adoptions + 1);
    assert!(tree.verify_full().unwrap().is_empty());
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
}

/// Rollback finds a user transaction's record by its key. The update is
/// logged as a delta against the record; a split then moves the record
/// to a new page. Both an abort and restart's undo of the same
/// transaction as a loser (on a fresh transaction manager, as restart
/// builds one) splice the old bytes back into the record where it is now.
#[test]
fn undo_by_key_restores_a_record_a_split_moved() {
    for as_loser in [false, true] {
        let fx = fixture(64, 256);
        let tree = foster_tree(&fx, VerifyMode::Continuous);
        let setup = fx.txn.begin(TxKind::User);
        for i in 0..40 {
            tree.insert(setup, &key(i), &val(i)).unwrap();
        }
        fx.txn.commit(setup, TraceCtx::NONE).unwrap();

        let tx = fx.txn.begin(TxKind::User);
        let (stays, moves) = (key(0), key(39));
        tree.upsert(tx, &stays, b"value-00000000-new", TraceCtx::NONE)
            .unwrap();
        tree.upsert(tx, &moves, b"value-00000039-new", TraceCtx::NONE)
            .unwrap();
        let (_, before) = parent_and_leaf(&fx, &tree, &moves);
        tree.force_split(before).unwrap();
        let (_, after) = parent_and_leaf(&fx, &tree, &moves);
        assert_ne!(before, after, "the split must move the updated record");

        if as_loser {
            let (_, active) = fx.txn.active_txns();
            let last = active.iter().find(|(t, _)| *t == tx).unwrap().1;
            let restarted = TxnManager::new(fx.txn.log().clone());
            let kind = restarted
                .roll_back_loser(tx, last, Some(TxKind::User), &tree)
                .unwrap();
            assert_eq!(kind, TxKind::User);
        } else {
            fx.txn.abort(tx, &tree).unwrap();
        }
        for i in 0..40 {
            assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        assert!(tree.verify_full().unwrap().is_empty());
    }
}

/// A root that carries a foster chain is grown by the next write.
#[test]
fn a_write_grows_a_root_that_carries_a_foster_chain() {
    let fx = fixture(64, 256);
    let tree = foster_tree(&fx, VerifyMode::Continuous);
    let tx = fx.txn.begin(TxKind::User);
    for i in 0..40 {
        tree.insert(tx, &key(i), &val(i)).unwrap();
    }
    assert_eq!(tree.height().unwrap(), 1);
    tree.force_split(tree.root()).unwrap();
    let growths = tree.stats().root_growths;
    tree.upsert(tx, &key(7), b"grown", TraceCtx::NONE).unwrap();
    assert_eq!(tree.stats().root_growths, growths + 1);
    assert_eq!(tree.height().unwrap(), 2);
    assert_eq!(tree.get(&key(7)).unwrap(), Some(b"grown".to_vec()));
    assert!(tree.verify_full().unwrap().is_empty());
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
}
