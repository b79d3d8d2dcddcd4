//! Linearizability oracle for concurrent Foster B-tree histories.
//!
//! A property test generates a seeded plan (per-thread key sequences),
//! executes it concurrently through `upsert` with globally unique values,
//! then *infers* the linearization from the replaced-value pointers each
//! upsert returned: per key the observations must chain final → … → None.
//! The inferred history is replayed against a fresh single-threaded model
//! tree and the final range scans of both trees must be equal.
//!
//! The vendored proptest does not shrink, so failures are minimized by a
//! greedy delta-debugging shrinker over the plan (drop threads, then
//! binary-chop each thread's op sequence). A meta-test injects a failure
//! predicate and proves the shrinker reduces a 3×40-op plan to exactly
//! the one op that matters — a real failure would be reported the same
//! way, as a minimal interleaving.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use spf_btree::{BumpAllocator, FosterBTree, PageAllocator, VerifyMode};
use spf_buffer::{BufferPool, BufferPoolConfig};
use spf_obs::TraceCtx;
use spf_storage::{MemDevice, PageId, DEFAULT_PAGE_SIZE};
use spf_txn::{TxKind, TxnManager};
use spf_wal::LogManager;

/// One thread's op list: the keys it upserts, in order. Values are derived
/// from (thread, index) so every write in a plan is globally unique.
type Plan = Vec<Vec<u64>>;

/// Per-thread upsert observations: (key index, new value, replaced value).
type Observations = Vec<Vec<(u64, Vec<u8>, Option<Vec<u8>>)>>;

fn make_tree() -> (TxnManager, FosterBTree) {
    let device = MemDevice::for_testing(DEFAULT_PAGE_SIZE, 4096);
    let log = LogManager::for_testing();
    let pool = BufferPool::new(
        BufferPoolConfig { frames: 256 },
        Arc::new(device.clone()),
        log.clone(),
    );
    let txn = TxnManager::new(log);
    let alloc = Arc::new(BumpAllocator::new(1, 4096));
    let tree = FosterBTree::create(
        pool,
        txn.clone(),
        alloc as Arc<dyn PageAllocator>,
        PageId(0),
        DEFAULT_PAGE_SIZE,
        VerifyMode::Continuous,
    )
    .expect("create tree");
    (txn, tree)
}

fn key(k: u64) -> Vec<u8> {
    format!("key-{k:08}").into_bytes()
}

fn val(thread: usize, i: usize) -> Vec<u8> {
    format!("t{thread:02}-{i:012}").into_bytes()
}

/// Executes `plan` concurrently, infers the linearization, replays it on a
/// single-threaded model tree, and compares final range scans. `Err`
/// describes the first divergence (the shrinker's failure predicate).
fn run_plan(plan: &Plan) -> Result<(), String> {
    let (txn, tree) = make_tree();
    let barrier = Barrier::new(plan.len().max(1));

    let observations: Observations = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(t, keys)| {
                let tree = &tree;
                let txn = &txn;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut seen = Vec::with_capacity(keys.len());
                    for (i, &k) in keys.iter().enumerate() {
                        let tx = txn.begin(TxKind::User);
                        let prev = tree
                            .upsert(tx, &key(k), &val(t, i), TraceCtx::NONE)
                            .unwrap();
                        txn.commit(tx, TraceCtx::NONE).unwrap();
                        seen.push((k, val(t, i), prev));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // value → the value it replaced, per key.
    let mut chains: BTreeMap<u64, BTreeMap<Vec<u8>, Option<Vec<u8>>>> = BTreeMap::new();
    for (k, new, prev) in observations.into_iter().flatten() {
        if chains.entry(k).or_default().insert(new, prev).is_some() {
            return Err(format!("key {k}: a value was written twice"));
        }
    }

    // Infer the per-key linear order by walking back from the final value.
    let mut linearized: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    for (k, chain) in &chains {
        let mut order = Vec::with_capacity(chain.len());
        let mut cursor = tree
            .get(&key(*k))
            .map_err(|e| format!("key {k}: final get failed: {e}"))?;
        while let Some(value) = cursor {
            if order.contains(&value) {
                return Err(format!("key {k}: cycle in replaced-value chain"));
            }
            cursor = chain
                .get(&value)
                .ok_or_else(|| format!("key {k}: final value not written by any op"))?
                .clone();
            order.push(value);
        }
        if order.len() != chain.len() {
            return Err(format!(
                "key {k}: only {} of {} upserts in the chain — lost update",
                order.len(),
                chain.len()
            ));
        }
        order.reverse();
        linearized.insert(*k, order);
    }

    // Replay the inferred history on a single-threaded model tree. Ops on
    // distinct keys commute, so key-major replay is a valid linearization.
    let (model_txn, model) = make_tree();
    let tx = model_txn.begin(TxKind::User);
    for (k, order) in &linearized {
        for value in order {
            model
                .upsert(tx, &key(*k), value, TraceCtx::NONE)
                .map_err(|e| format!("model replay failed: {e}"))?;
        }
    }
    model_txn
        .commit(tx, TraceCtx::NONE)
        .map_err(|e| e.to_string())?;

    let got = tree.collect_all().map_err(|e| e.to_string())?;
    let want = model.collect_all().map_err(|e| e.to_string())?;
    if got != want {
        return Err(format!(
            "final range scan diverges from model: {} vs {} records",
            got.len(),
            want.len()
        ));
    }
    let violations = tree.verify_full().map_err(|e| e.to_string())?;
    if !violations.is_empty() {
        return Err(format!("structural violations: {violations:?}"));
    }
    Ok(())
}

/// Greedy delta-debugging over plans: repeatedly drop whole threads, then
/// binary-chop each thread's op list, keeping any candidate on which
/// `fails` still holds. Terminates because every accepted candidate is
/// strictly smaller; the result is 1-minimal for the passes applied.
fn shrink_plan(plan: &Plan, fails: &dyn Fn(&Plan) -> bool) -> Plan {
    let mut cur = plan.clone();
    loop {
        let mut improved = false;
        // Pass 1: drop whole threads.
        let mut t = 0;
        while t < cur.len() && cur.len() > 1 {
            let mut cand = cur.clone();
            cand.remove(t);
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                t += 1;
            }
        }
        // Pass 2: remove chunks of each thread's ops, halving chunk size.
        for t in 0..cur.len() {
            let mut chunk = cur[t].len().div_ceil(2).max(1);
            loop {
                let mut start = 0;
                while start < cur[t].len() {
                    let mut cand = cur.clone();
                    let end = (start + chunk).min(cand[t].len());
                    cand[t].drain(start..end);
                    if fails(&cand) {
                        cur = cand;
                        improved = true;
                        // Re-test the same offset on the shortened list.
                    } else {
                        start += chunk;
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk = chunk.div_ceil(2);
            }
        }
        if !improved {
            return cur;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_concurrent_histories_linearize(plan in proptest::collection::vec(
        proptest::collection::vec(0u64..48, 1..60),
        2..4,
    )) {
        if let Err(e) = run_plan(&plan) {
            // Concurrent failures can be flaky: the predicate retries so
            // the shrinker does not discard a still-racy candidate.
            let fails = |p: &Plan| (0..3).any(|_| run_plan(p).is_err());
            let minimal = shrink_plan(&plan, &fails);
            return Err(TestCaseError::fail(format!(
                "history not linearizable: {e}\nminimal repro plan: {minimal:?}"
            )));
        }
    }
}

/// Proves the shrinker actually minimizes: inject a predicate that fails
/// whenever the plan still contains the magic key, and check a 3-thread,
/// 121-op plan shrinks to exactly that one op.
#[test]
fn shrinker_reduces_to_single_relevant_op() {
    const MAGIC: u64 = 999;
    let mut plan: Plan = (0..3u64)
        .map(|t| (0..40).map(|i| (t * 40 + i) % 48).collect())
        .collect();
    plan[1].insert(17, MAGIC);
    let fails = |p: &Plan| p.iter().flatten().any(|&k| k == MAGIC);

    let minimal = shrink_plan(&plan, &fails);

    let total: usize = minimal.iter().map(Vec::len).sum();
    assert_eq!(total, 1, "not minimal: {minimal:?}");
    assert_eq!(
        minimal.len(),
        1,
        "irrelevant empty threads kept: {minimal:?}"
    );
    assert_eq!(minimal[0], vec![MAGIC]);
}
