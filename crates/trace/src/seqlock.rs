//! The engine's one per-thread seqlock ring.
//!
//! A [`RingSet`] hands every pushing thread its own bounded ring of
//! versioned fixed-width slots. Only the owning thread writes a ring, so
//! a push is wait-free (no CAS loop, no lock); any thread may read, and a
//! reader keeps a slot only if its version word is even and unchanged
//! across the payload reads — a torn slot is skipped, never returned. The
//! newest [`RING_SLOTS`] entries per thread survive; older ones are
//! overwritten, which bounds memory however long the engine runs.
//!
//! The ring knows nothing about what it carries: an entry is a 16-bit tag
//! plus up to [`PAYLOAD_WORDS`] words. The span [`Tracer`](crate::Tracer)
//! and `spf-obs`'s flight recorder are codecs over it, and differ only in
//! how they read: the recorder takes a non-consuming
//! [`snapshot`](RingSet::snapshot), the tracer a [`drain`](RingSet::drain)
//! that hands each entry out once.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Entries retained per pushing thread (power of two).
pub const RING_SLOTS: usize = 256;

/// Payload words per entry.
pub const PAYLOAD_WORDS: usize = 7;

/// The tag lives in the top two bytes of word 0; a 48-bit per-thread
/// sequence number below it doubles as the stale-slot detector.
const SEQ_MASK: u64 = (1 << 48) - 1;

/// One entry read back from a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Pushing thread's ring id (stable for the thread's lifetime).
    pub thread: u64,
    /// Per-thread sequence number (strictly increasing within a thread).
    pub seq: u64,
    /// The tag given to [`RingSet::push`].
    pub tag: u16,
    /// The payload given to [`RingSet::push`]. Words past the pushed
    /// slice hold whatever an older entry left there.
    pub words: [u64; PAYLOAD_WORDS],
}

/// One seqlock-protected slot: `ver` is odd while a write is in flight.
struct Slot {
    ver: AtomicU64,
    tag_seq: AtomicU64,
    words: [AtomicU64; PAYLOAD_WORDS],
}

/// A single-writer ring. Only the owning thread pushes; any thread may
/// collect.
struct ThreadRing {
    id: u64,
    /// Next sequence number; doubles as the ring head.
    head: AtomicU64,
    /// Everything below this sequence number was handed out by an
    /// earlier drain. Only touched under the set's ring-list lock
    /// (readers serialize); the owning writer never reads it.
    drained: AtomicU64,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new(id: u64) -> Self {
        Self {
            id,
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| Slot {
                    ver: AtomicU64::new(0),
                    tag_seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    fn push(&self, tag: u16, payload: &[u64]) {
        let seq = self.head.load(Ordering::Relaxed) & SEQ_MASK;
        let slot = &self.slots[(seq as usize) & (RING_SLOTS - 1)];
        let v = slot.ver.load(Ordering::Relaxed);
        slot.ver.store(v | 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.tag_seq
            .store((u64::from(tag) << 48) | seq, Ordering::Relaxed);
        for (word, value) in slot.words.iter().zip(payload) {
            word.store(*value, Ordering::Relaxed);
        }
        slot.ver.store((v | 1).wrapping_add(1), Ordering::Release);
        self.head.store(seq.wrapping_add(1), Ordering::Release);
    }

    /// Seqlock read side. A consuming read skips what an earlier one
    /// handed out, leaves entries pushed after its head snapshot for the
    /// next one, and advances the watermark.
    fn collect(&self, consume: bool, out: &mut Vec<Entry>) {
        let (floor, ceiling) = if consume {
            (
                self.drained.load(Ordering::Relaxed),
                self.head.load(Ordering::Acquire) & SEQ_MASK,
            )
        } else {
            (0, u64::MAX)
        };
        for (idx, slot) in self.slots.iter().enumerate() {
            let v1 = slot.ver.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue;
            }
            let tag_seq = slot.tag_seq.load(Ordering::Relaxed);
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.ver.load(Ordering::Relaxed) != v1 {
                continue; // torn: writer landed mid-read
            }
            let seq = tag_seq & SEQ_MASK;
            if (seq as usize) & (RING_SLOTS - 1) != idx {
                continue; // stale slot from before a wrap reset
            }
            if seq < floor || seq >= ceiling {
                continue; // already drained, or pushed mid-collect
            }
            out.push(Entry {
                thread: self.id,
                seq,
                tag: (tag_seq >> 48) as u16,
                words,
            });
        }
        if consume {
            self.drained.store(ceiling, Ordering::Relaxed);
        }
    }
}

static SET_UID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (set uid → this thread's ring) cache. A Vec beats a map at the
    /// expected size of two sets (recorder + tracer) per engine.
    static TLS_RINGS: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// The registry of per-thread rings behind one recorder or tracer.
pub struct RingSet {
    /// Globally unique id; thread-local caches are keyed by it so two
    /// sets (e.g. twin oracle engines) never share a ring.
    uid: u64,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl Default for RingSet {
    fn default() -> Self {
        Self::new()
    }
}

impl RingSet {
    /// Creates an empty set; rings appear as threads push.
    #[must_use]
    pub fn new() -> Self {
        Self {
            uid: SET_UID.fetch_add(1, Ordering::Relaxed),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Pushes one entry into the calling thread's ring. The ring is
    /// borrowed straight out of the thread-local cache — no `Arc`
    /// refcount traffic on the hot path.
    pub fn push(&self, tag: u16, payload: &[u64]) {
        debug_assert!(payload.len() <= PAYLOAD_WORDS);
        TLS_RINGS.with(|cell| {
            let mut cache = cell.borrow_mut();
            let pos = match cache.iter().position(|(uid, _)| *uid == self.uid) {
                Some(pos) => pos,
                None => {
                    // A ring whose set is gone has this cache as its only
                    // owner: let go of it here, or a thread would keep a
                    // ring alive (and scan past it on every push) for
                    // every engine it ever touched.
                    cache.retain(|(_, ring)| Arc::strong_count(ring) > 1);
                    let mut rings = self.rings.lock();
                    let ring = Arc::new(ThreadRing::new(rings.len() as u64));
                    rings.push(Arc::clone(&ring));
                    cache.push((self.uid, ring));
                    cache.len() - 1
                }
            };
            cache[pos].1.push(tag, payload);
        });
    }

    /// Every stable entry of every ring, leaving the rings as they are.
    /// Rings keep recording while this runs; torn slots are skipped.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Entry> {
        self.collect(false)
    }

    /// Like [`snapshot`](RingSet::snapshot), but each entry is handed
    /// out by exactly one drain.
    #[must_use]
    pub fn drain(&self) -> Vec<Entry> {
        self.collect(true)
    }

    fn collect(&self, consume: bool) -> Vec<Entry> {
        let rings = self.rings.lock();
        let mut out = Vec::new();
        for ring in rings.iter() {
            ring.collect(consume, &mut out);
        }
        out
    }

    /// Number of registered per-thread rings (bounded-memory check).
    #[must_use]
    pub fn ring_count(&self) -> usize {
        self.rings.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_and_payload_round_trip() {
        let set = RingSet::new();
        set.push(0x0c05, &[1, 2, 3, 4, 5, 6, 7]);
        set.push(7, &[42]);
        let got = set.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].thread, got[0].seq, got[0].tag), (0, 0, 0x0c05));
        assert_eq!(got[0].words, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!((got[1].seq, got[1].tag, got[1].words[0]), (1, 7, 42));
    }

    #[test]
    fn newest_entries_survive() {
        let set = RingSet::new();
        for i in 0..(RING_SLOTS as u64 * 3) {
            set.push(1, &[i]);
        }
        let got = set.snapshot();
        assert_eq!(got.len(), RING_SLOTS);
        let oldest = got.iter().map(|e| e.words[0]).min().unwrap();
        assert_eq!(oldest, RING_SLOTS as u64 * 2, "only the newest survive");
    }

    #[test]
    fn per_thread_sequences_are_monotone() {
        let set = RingSet::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        set.push(1, &[i]);
                    }
                });
            }
        });
        assert_eq!(set.ring_count(), 4);
        let got = set.snapshot();
        for tid in 0..4 {
            let seqs: Vec<u64> = got
                .iter()
                .filter(|e| e.thread == tid)
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs.len(), 100);
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "thread {tid} order");
        }
    }

    #[test]
    fn no_torn_entry_under_concurrent_snapshot_and_drain() {
        // Writers spin while one reader snapshots and one drains; every
        // entry read must be internally consistent (each word a fixed
        // function of the first, as written), and no entry may be
        // drained twice.
        fn check(e: &Entry) {
            let i = e.words[0];
            assert_eq!(e.tag, (i & 0xffff) as u16, "torn entry: {e:?}");
            for (k, w) in e.words.iter().enumerate() {
                assert_eq!(*w, i.wrapping_mul(k as u64 + 1), "torn entry: {e:?}");
            }
        }
        let set = RingSet::new();
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut i = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let words: [u64; PAYLOAD_WORDS] =
                            std::array::from_fn(|k| i.wrapping_mul(k as u64 + 1));
                        set.push((i & 0xffff) as u16, &words);
                        i += 1;
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..200 {
                    set.snapshot().iter().for_each(check);
                }
            });
            s.spawn(|| {
                let mut last = [None::<u64>; 3];
                for _ in 0..200 {
                    let mut got = set.drain();
                    got.sort_by_key(|e| (e.thread, e.seq));
                    for e in &got {
                        check(e);
                        let prev = &mut last[e.thread as usize];
                        assert!(prev.is_none_or(|p| p < e.seq), "drained twice: {e:?}");
                        *prev = Some(e.seq);
                    }
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(100));
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(set.ring_count(), 3, "readers never allocate rings");
    }

    #[test]
    fn two_sets_never_share_a_ring() {
        let a = RingSet::new();
        let b = RingSet::new();
        a.push(1, &[10]);
        b.push(2, &[20]);
        let (ea, eb) = (a.snapshot(), b.snapshot());
        assert_eq!((ea.len(), ea[0].tag, ea[0].words[0]), (1, 1, 10));
        assert_eq!((eb.len(), eb[0].tag, eb[0].words[0]), (1, 2, 20));
        // A snapshot leaves the ring as it was; a drain empties it.
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.drain().len(), 1);
        assert!(b.drain().is_empty());
        assert_eq!(b.snapshot().len(), 1, "draining only moves the watermark");
    }

    #[test]
    fn thread_cache_lets_go_of_dead_sets() {
        // Run on a fresh thread so its cache starts empty.
        std::thread::spawn(|| {
            for i in 0..50 {
                let set = RingSet::new();
                set.push(1, &[i]);
                assert_eq!(set.snapshot().len(), 1);
            }
            // The 50th set is dropped too, but nothing has registered
            // since: its ring is the one the cache still holds.
            assert_eq!(TLS_RINGS.with(|c| c.borrow().len()), 1);
        })
        .join()
        .unwrap();
    }
}
