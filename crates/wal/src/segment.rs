//! The segmented, reservation-based log buffer.
//!
//! The log's in-memory representation used to be one `Vec<u8>` behind a
//! global mutex: every append copied its bytes while holding the lock,
//! so N appenders serialized on one cache line. This module replaces the
//! vector with a chain of fixed-size **segments** and an atomic
//! **reservation counter** (the scalable-logging design popularized by
//! Aether's consolidated log-buffer reservation):
//!
//! 1. an appender reserves `[lsn, lsn + len)` with one `fetch_add` on
//!    the tail counter — this is the *only* serialization point of the
//!    append path, and it is a single atomic instruction;
//! 2. it copies its encoded record directly into the owning segment(s)
//!    with no exclusive lock held (a shared read-lock on the segment
//!    directory keeps the directory stable during the copy; appends
//!    proceed in parallel under it);
//! 3. it publishes completion by adding its byte count to each touched
//!    segment's **filled watermark** with `Release` ordering.
//!
//! The force path derives "how far is the buffer contiguously complete"
//! from the filled watermarks (see [`SegmentedBuffer::complete_end`]);
//! everything below that line is safe to flush and to read.
//!
//! Segment bytes are stored in `AtomicU64` words, which keeps the whole
//! crate inside `#![forbid(unsafe_code)]` while copying at word speed:
//! a reservation's interior words belong to it alone (plain relaxed
//! stores), and the one word it may share with a neighbouring
//! reservation at each edge is written with `fetch_or` into its own
//! byte lanes — sound because every byte lane is written exactly once
//! between crashes over a zeroed buffer (the crash path re-zeroes the
//! recycled tail). The `Release`-watermark / `Acquire`-reader pairing
//! makes the relaxed word writes visible before any reader may look.
//!
//! LSNs remain *virtual* byte offsets: truncation
//! ([`SegmentedBuffer::truncate_to`]) retires whole segments below the
//! cut, reclaiming their memory while every surviving LSN stays valid.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Segment capacity in bytes. Records freely straddle segment
/// boundaries (and may exceed one segment, e.g. large checkpoint or
/// full-page-image records); the copy is split across the owners.
pub(crate) const SEG_BYTES: u64 = 64 * 1024;

const SEG_WORDS: usize = (SEG_BYTES / 8) as usize;

/// One fixed-size slab of log bytes covering the virtual range
/// `[start, start + SEG_BYTES)`.
struct Segment {
    /// Virtual offset of the first byte.
    start: u64,
    /// The bytes, little-endian packed 8 per word.
    words: Box<[AtomicU64]>,
    /// How many bytes of this segment have been fully copied in.
    /// `fetch_add(n, Release)` after each copy; when it equals the
    /// reserved portion of the segment, every byte here is complete.
    filled: AtomicUsize,
}

impl Segment {
    fn new(start: u64) -> Self {
        let mut words = Vec::with_capacity(SEG_WORDS);
        words.resize_with(SEG_WORDS, || AtomicU64::new(0));
        Self {
            start,
            words: words.into_boxed_slice(),
            filled: AtomicUsize::new(0),
        }
    }

    /// One past this segment's last virtual offset.
    fn end(&self) -> u64 {
        self.start + SEG_BYTES
    }

    /// Copies `bytes` to byte offset `local`, relaxed. Interior words
    /// are plain stores; edge words shared with a neighbouring
    /// reservation are merged with `fetch_or` into this range's lanes.
    fn write_bytes(&self, local: usize, bytes: &[u8]) {
        let mut i = 0usize;
        let mut off = local;
        while i < bytes.len() && !off.is_multiple_of(8) {
            let shift = (off % 8) * 8;
            self.words[off / 8].fetch_or(u64::from(bytes[i]) << shift, Ordering::Relaxed);
            i += 1;
            off += 1;
        }
        while bytes.len() - i >= 8 {
            let v = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
            self.words[off / 8].store(v, Ordering::Relaxed);
            i += 8;
            off += 8;
        }
        while i < bytes.len() {
            let shift = (off % 8) * 8;
            self.words[off / 8].fetch_or(u64::from(bytes[i]) << shift, Ordering::Relaxed);
            i += 1;
            off += 1;
        }
    }

    /// Fills `out` from byte offset `local`.
    fn read_into(&self, local: usize, out: &mut [u8]) {
        let mut off = local;
        let mut i = 0usize;
        while i < out.len() && !off.is_multiple_of(8) {
            out[i] = (self.words[off / 8].load(Ordering::Relaxed) >> ((off % 8) * 8)) as u8;
            i += 1;
            off += 1;
        }
        while out.len() - i >= 8 {
            out[i..i + 8]
                .copy_from_slice(&self.words[off / 8].load(Ordering::Relaxed).to_le_bytes());
            i += 8;
            off += 8;
        }
        while i < out.len() {
            out[i] = (self.words[off / 8].load(Ordering::Relaxed) >> ((off % 8) * 8)) as u8;
            i += 1;
            off += 1;
        }
    }

    /// Appends `len` bytes starting at byte offset `local` to `out`.
    fn read_bytes(&self, local: usize, len: usize, out: &mut Vec<u8>) {
        let mut off = local;
        let end = local + len;
        while off < end && !off.is_multiple_of(8) {
            out.push((self.words[off / 8].load(Ordering::Relaxed) >> ((off % 8) * 8)) as u8);
            off += 1;
        }
        while end - off >= 8 {
            out.extend_from_slice(&self.words[off / 8].load(Ordering::Relaxed).to_le_bytes());
            off += 8;
        }
        while off < end {
            out.push((self.words[off / 8].load(Ordering::Relaxed) >> ((off % 8) * 8)) as u8);
            off += 1;
        }
    }

    /// Zeroes every byte at or above byte offset `keep` (crash path:
    /// the recycled tail must read as zero for `fetch_or` edge writes).
    fn zero_from(&self, keep: usize) {
        let first_whole = keep.div_ceil(8);
        if !keep.is_multiple_of(8) {
            let mask = (1u64 << ((keep % 8) * 8)) - 1;
            self.words[keep / 8].fetch_and(mask, Ordering::Relaxed);
        }
        for w in &self.words[first_whole..] {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// Contiguous run of live segments, indexable by virtual offset.
struct Directory {
    /// `segs[0].start / SEG_BYTES`; segments are contiguous after it.
    first_index: u64,
    segs: Vec<Arc<Segment>>,
}

impl Directory {
    /// Position of the segment containing `off`, if it is live.
    fn pos_of(&self, off: u64) -> Option<usize> {
        let idx = off / SEG_BYTES;
        let pos = idx.checked_sub(self.first_index)? as usize;
        (pos < self.segs.len()).then_some(pos)
    }

    /// One past the highest virtual offset any live segment can hold.
    fn covered_end(&self) -> u64 {
        (self.first_index + self.segs.len() as u64) * SEG_BYTES
    }
}

/// Distinguishes buffers (several logs can coexist in one process) in
/// the thread-local segment cache.
static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The segment this thread last touched. Records are ~100 bytes and
    /// segments 64 KiB, so almost every append (and most single-record
    /// reads) lands in the cached segment and runs with **no lock at
    /// all** — the directory's reader/writer lock is only taken on
    /// segment rollover and multi-segment ranges. The `Arc` keeps a
    /// cached segment memory-safe even if truncation retires it.
    static CACHED_SEG: RefCell<Option<CachedSeg>> = const { RefCell::new(None) };
}

struct CachedSeg {
    /// Which [`SegmentedBuffer`] the segment belongs to.
    buffer: u64,
    /// The buffer's crash generation at caching time: a crash rewinds
    /// the reservation counter and may rebuild segments at the same
    /// indexes, so stale handles must miss.
    generation: u64,
    /// `seg.start / SEG_BYTES`.
    index: u64,
    seg: Arc<Segment>,
}

/// The segmented log buffer: reservation counter, segment directory,
/// and the truncation point.
pub(crate) struct SegmentedBuffer {
    /// Virtual offset of the truncation point: the first offset still
    /// addressed by the log. Only advanced under the directory write
    /// lock (by `truncate_to`).
    base: AtomicU64,
    /// Next unreserved virtual offset — the append serialization point.
    reserved: AtomicU64,
    /// Monotone cache of the highest proven complete end: once a prefix
    /// is proven fully copied it stays copied, so the cache both makes
    /// the watermark monotone (an in-flight copy must not hide a
    /// previously proven prefix behind its segment's start) and
    /// shortens the segment walk.
    complete_cache: AtomicU64,
    /// Identity in the thread-local segment cache.
    id: u64,
    /// Bumped by every crash; invalidates thread-local handles.
    generation: AtomicU64,
    dir: RwLock<Directory>,
}

impl SegmentedBuffer {
    /// A buffer whose first `header_len` bytes are a pre-filled
    /// (all-zero) header region, so offset 0 is never a record.
    pub(crate) fn new(header_len: u64) -> Self {
        debug_assert!(header_len < SEG_BYTES);
        Self::starting_at(header_len, 0)
    }

    /// An empty buffer resuming a log truncated at `cut`, as if
    /// [`truncate_to`](SegmentedBuffer::truncate_to) had run: offsets
    /// below `cut` read as truncated, and only the segment holding `cut`
    /// is allocated.
    pub(crate) fn truncated_at(cut: u64) -> Self {
        Self::starting_at(cut, cut)
    }

    /// Appends resume at `start`, the truncation point is `base`.
    fn starting_at(start: u64, base: u64) -> Self {
        let first_index = start / SEG_BYTES;
        let seg = Segment::new(first_index * SEG_BYTES);
        // The bytes below `start` are header or truncated: never copied
        // in, but complete as far as the force path is concerned.
        seg.filled
            .store((start % SEG_BYTES) as usize, Ordering::Relaxed);
        Self {
            base: AtomicU64::new(base),
            reserved: AtomicU64::new(start),
            complete_cache: AtomicU64::new(start),
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            dir: RwLock::new(Directory {
                first_index,
                segs: vec![Arc::new(seg)],
            }),
        }
    }

    /// Runs `f` on this thread's cached segment if it is exactly segment
    /// `index` of this buffer's current generation; `None` on a miss.
    fn with_cached<R>(&self, index: u64, f: impl FnOnce(&Segment) -> R) -> Option<R> {
        CACHED_SEG.with(|cell| {
            let cached = cell.borrow();
            let cs = cached.as_ref()?;
            (cs.buffer == self.id
                && cs.index == index
                && cs.generation == self.generation.load(Ordering::Relaxed))
            .then(|| f(&cs.seg))
        })
    }

    /// Installs `seg` as this thread's cached segment.
    fn remember(&self, index: u64, seg: &Arc<Segment>) {
        CACHED_SEG.with(|cell| {
            *cell.borrow_mut() = Some(CachedSeg {
                buffer: self.id,
                generation: self.generation.load(Ordering::Relaxed),
                index,
                seg: Arc::clone(seg),
            });
        });
    }

    /// First virtual offset still addressed by the buffer.
    pub(crate) fn base(&self) -> u64 {
        self.base.load(Ordering::Acquire)
    }

    /// One past the last reserved byte (some of which may still be
    /// mid-copy — see [`SegmentedBuffer::complete_end`]).
    pub(crate) fn end(&self) -> u64 {
        self.reserved.load(Ordering::Acquire)
    }

    /// Reserves `len` bytes, returning the start of the reserved range.
    /// The caller must complete the reservation with exactly one
    /// [`SegmentedBuffer::write`] of `len` bytes at that offset.
    pub(crate) fn reserve(&self, len: u64) -> u64 {
        self.reserved.fetch_add(len, Ordering::AcqRel)
    }

    /// Copies `bytes` into the reserved range starting at `lsn`, then
    /// publishes completion. The common case — the whole range inside
    /// this thread's cached segment — takes no lock at all; rollover and
    /// multi-segment ranges go through the directory's shared lock, and
    /// an exclusive lock is only taken when the directory must grow.
    pub(crate) fn write(&self, lsn: u64, bytes: &[u8]) {
        let end = lsn + bytes.len() as u64;
        let first_index = lsn / SEG_BYTES;
        if first_index == (end - 1) / SEG_BYTES {
            let hit = self.with_cached(first_index, |seg| {
                seg.write_bytes((lsn - seg.start) as usize, bytes);
                seg.filled.fetch_add(bytes.len(), Ordering::Release);
            });
            if hit.is_some() {
                return;
            }
        }
        loop {
            let dir = self.dir.read();
            if dir.covered_end() < end {
                drop(dir);
                let mut dir = self.dir.write();
                while dir.covered_end() < end {
                    let start = dir.covered_end();
                    dir.segs.push(Arc::new(Segment::new(start)));
                }
                continue; // re-enter through the shared path
            }
            let mut off = lsn;
            let mut rest = bytes;
            while !rest.is_empty() {
                let pos = dir.pos_of(off).expect("reserved range is live");
                let seg = &dir.segs[pos];
                let n = ((seg.end().min(end)) - off) as usize;
                seg.write_bytes((off - seg.start) as usize, &rest[..n]);
                seg.filled.fetch_add(n, Ordering::Release);
                off += n as u64;
                rest = &rest[n..];
            }
            // The next append from this thread will very likely land in
            // the segment holding the end of this one.
            let tail_pos = dir.pos_of(end - 1).expect("reserved range is live");
            self.remember(dir.first_index + tail_pos as u64, &dir.segs[tail_pos]);
            return;
        }
    }

    /// Largest virtual offset `W ≥ floor` such that every byte in
    /// `[floor, W)` has been fully copied in. `floor` must itself be a
    /// known-complete offset (callers pass the durable end).
    ///
    /// Per segment the check is: *load `filled` first, then the
    /// reservation counter*. `filled` only ever counts completed copies,
    /// so `filled ≥ reserved-bytes-in-segment` (with the later load!)
    /// proves every reservation the counter had admitted is copied —
    /// loading in the other order would let a late, already-copied
    /// reservation mask an earlier one still in flight.
    pub(crate) fn complete_end(&self, floor: u64) -> u64 {
        let floor = floor.max(self.complete_cache.load(Ordering::Acquire));
        let dir = self.dir.read();
        let Some(start_pos) = dir.pos_of(floor) else {
            return floor; // floor sits exactly at the unextended tail
        };
        let mut end = floor;
        for seg in &dir.segs[start_pos..] {
            let filled = seg.filled.load(Ordering::Acquire) as u64;
            let reserved = self.reserved.load(Ordering::Acquire);
            let expected = reserved.min(seg.end()).saturating_sub(seg.start);
            if filled < expected {
                break;
            }
            end = seg.start + expected;
            if reserved <= seg.end() {
                break; // tail segment
            }
        }
        let end = end.max(floor);
        self.complete_cache.fetch_max(end, Ordering::AcqRel);
        end
    }

    /// Copies the range `[from, to)` out of the buffer, clamped to the
    /// live tail: the result is shorter than requested if `to` runs
    /// past the last allocated segment (readers probe ahead of records
    /// they hold, and a concurrent `reserve` may have moved the
    /// reservation counter past the tail segment *before* its `write`
    /// allocates the next one — that gap holds no bytes yet). Errors
    /// with the current truncation point if `from` has been truncated
    /// away. The caller is responsible for only *using* bytes below
    /// [`SegmentedBuffer::complete_end`] (or bytes it wrote itself).
    pub(crate) fn copy(&self, from: u64, to: u64) -> Result<Vec<u8>, u64> {
        let base = self.base.load(Ordering::Acquire);
        if from < base {
            return Err(base);
        }
        let first_index = from / SEG_BYTES;
        if to > from && first_index == (to - 1) / SEG_BYTES {
            // Lock-free single-segment read via the thread-local cache
            // (a racing truncation is linearized before this read: the
            // `Arc` keeps the bytes alive and valid).
            let hit = self.with_cached(first_index, |seg| {
                let mut out = Vec::with_capacity((to - from) as usize);
                seg.read_bytes((from - seg.start) as usize, (to - from) as usize, &mut out);
                out
            });
            if let Some(out) = hit {
                return Ok(out);
            }
        }
        let dir = self.dir.read();
        let base = self.base.load(Ordering::Acquire);
        if from < base {
            return Err(base);
        }
        let mut out = Vec::with_capacity((to - from) as usize);
        let mut off = from;
        while off < to {
            let Some(pos) = dir.pos_of(off) else {
                break; // past the live tail: clamp
            };
            let seg = &dir.segs[pos];
            let n = (seg.end().min(to) - off) as usize;
            seg.read_bytes((off - seg.start) as usize, n, &mut out);
            off += n as u64;
        }
        if let Some(pos) = dir.pos_of(from) {
            self.remember(dir.first_index + pos as u64, &dir.segs[pos]);
        }
        Ok(out)
    }

    /// Copies up to `out.len()` bytes starting at `from` into the
    /// caller's buffer — the allocation-free little sibling of
    /// [`SegmentedBuffer::copy`] for the single-record read path. Like
    /// [`copy`](SegmentedBuffer::copy), the read clamps at the live
    /// tail: bytes of `out` past the last allocated segment are left
    /// untouched (callers probing ahead of a record they hold pass a
    /// zeroed buffer and validate by checksum).
    pub(crate) fn copy_to(&self, from: u64, out: &mut [u8]) -> Result<(), u64> {
        let base = self.base.load(Ordering::Acquire);
        if from < base {
            return Err(base);
        }
        let to = from + out.len() as u64;
        let first_index = from / SEG_BYTES;
        if !out.is_empty() && first_index == (to - 1) / SEG_BYTES {
            let hit = self.with_cached(first_index, |seg| {
                seg.read_into((from - seg.start) as usize, out);
            });
            if hit.is_some() {
                return Ok(());
            }
        }
        let dir = self.dir.read();
        let base = self.base.load(Ordering::Acquire);
        if from < base {
            return Err(base);
        }
        let mut off = from;
        let mut rest = out;
        while !rest.is_empty() {
            let Some(pos) = dir.pos_of(off) else {
                break; // past the live tail: clamp
            };
            let seg = &dir.segs[pos];
            let n = ((seg.end().min(to)) - off) as usize;
            let (chunk, tail) = rest.split_at_mut(n);
            seg.read_into((off - seg.start) as usize, chunk);
            off += n as u64;
            rest = tail;
        }
        if let Some(pos) = dir.pos_of(from) {
            self.remember(dir.first_index + pos as u64, &dir.segs[pos]);
        }
        Ok(())
    }

    /// Advances the truncation point to `cut`, dropping (and freeing)
    /// every segment that lies wholly below it. The segment straddling
    /// the cut survives until the cut passes its end.
    pub(crate) fn truncate_to(&self, cut: u64) {
        let mut dir = self.dir.write();
        let drop_count = dir.segs.iter().take_while(|s| s.end() <= cut).count();
        dir.segs.drain(..drop_count);
        dir.first_index += drop_count as u64;
        self.base.store(cut, Ordering::Release);
    }

    /// Simulated crash: every byte at or above `durable` is discarded.
    /// The recycled tail is re-zeroed so future edge-word `fetch_or`
    /// writes land on clean lanes. Must not race appends or forces (the
    /// crash owns the system).
    pub(crate) fn crash_to(&self, durable: u64) {
        let mut dir = self.dir.write();
        // Rewinding the reservation counter can rebuild segments at the
        // same indexes: every thread-local handle must miss from now on.
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.reserved.store(durable, Ordering::Release);
        self.complete_cache.store(durable, Ordering::Release);
        dir.segs.retain(|s| s.start < durable);
        if let Some(tail) = dir.segs.last() {
            let keep = (durable - tail.start) as usize;
            tail.zero_from(keep);
            tail.filled.store(keep, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_write_read_round_trip() {
        let buf = SegmentedBuffer::new(8);
        let payload: Vec<u8> = (0..200u8).collect();
        let lsn = buf.reserve(payload.len() as u64);
        assert_eq!(lsn, 8);
        buf.write(lsn, &payload);
        assert_eq!(buf.complete_end(8), 8 + 200);
        assert_eq!(buf.copy(lsn, lsn + 200).unwrap(), payload);
    }

    #[test]
    fn unaligned_writes_round_trip() {
        // Drive the edge-word (fetch_or) and interior (store) paths
        // through every alignment combination.
        let buf = SegmentedBuffer::new(8);
        let mut expected = Vec::new();
        let mut cursor = 8u64;
        for len in 1..=41usize {
            let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ (len as u8)).collect();
            let lsn = buf.reserve(len as u64);
            assert_eq!(lsn, cursor);
            buf.write(lsn, &payload);
            expected.extend_from_slice(&payload);
            cursor += len as u64;
        }
        assert_eq!(buf.copy(8, cursor).unwrap(), expected);
        assert_eq!(buf.complete_end(8), cursor);
    }

    #[test]
    fn writes_straddle_segment_boundaries() {
        let buf = SegmentedBuffer::new(8);
        // Fill up to just below the first boundary, then write across it.
        let filler = SEG_BYTES - 8 - 3;
        let a = buf.reserve(filler);
        buf.write(a, &vec![0xAA; filler as usize]);
        let payload: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        let b = buf.reserve(payload.len() as u64);
        assert_eq!(b, SEG_BYTES - 3, "range must straddle the boundary");
        buf.write(b, &payload);
        assert_eq!(buf.complete_end(8), b + 64);
        assert_eq!(buf.copy(b, b + 64).unwrap(), payload);
    }

    #[test]
    fn oversized_record_spans_multiple_segments() {
        let buf = SegmentedBuffer::new(8);
        let big = vec![0x5Eu8; (SEG_BYTES * 2 + 100) as usize];
        let lsn = buf.reserve(big.len() as u64);
        buf.write(lsn, &big);
        assert_eq!(buf.complete_end(8), lsn + big.len() as u64);
        assert_eq!(buf.copy(lsn, lsn + big.len() as u64).unwrap(), big);
    }

    #[test]
    fn complete_end_stops_at_a_hole() {
        let buf = SegmentedBuffer::new(8);
        let a = buf.reserve(100); // reserved, not yet written
        let b = buf.reserve(50);
        buf.write(b, &[7u8; 50]); // later reservation completes first
        assert_eq!(
            buf.complete_end(8),
            8,
            "an unfilled earlier reservation must hold the watermark back"
        );
        buf.write(a, &[9u8; 100]);
        assert_eq!(buf.complete_end(8), b + 50);
    }

    #[test]
    fn truncate_frees_whole_segments_and_guards_reads() {
        let buf = SegmentedBuffer::new(8);
        let total = SEG_BYTES * 3;
        let lsn = buf.reserve(total);
        buf.write(lsn, &vec![1u8; total as usize]);
        let cut = SEG_BYTES + 17;
        buf.truncate_to(cut);
        assert_eq!(buf.base(), cut);
        assert!(buf.copy(8, 16).is_err(), "below the cut is gone");
        // The straddling segment still serves offsets at and above the cut.
        assert_eq!(buf.copy(cut, cut + 8).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn crash_discards_tail_and_allows_reuse() {
        let buf = SegmentedBuffer::new(8);
        let a = buf.reserve(40);
        buf.write(a, &[3u8; 40]);
        let durable = a + 40;
        let b = buf.reserve(SEG_BYTES * 2); // volatile, spans new segments
        buf.write(b, &vec![4u8; (SEG_BYTES * 2) as usize]);
        buf.crash_to(durable);
        assert_eq!(buf.end(), durable);
        assert_eq!(buf.complete_end(8), durable);
        // Appends resume over the recycled (re-zeroed) tail.
        let c = buf.reserve(16);
        assert_eq!(c, durable);
        buf.write(c, &[8u8; 16]);
        assert_eq!(buf.copy(c, c + 16).unwrap(), vec![8u8; 16]);
        assert_eq!(buf.copy(a, a + 40).unwrap(), vec![3u8; 40]);
    }

    #[test]
    fn reads_clamp_at_the_unallocated_tail() {
        // A reader probing ahead of a record it holds may race an
        // appender whose `reserve` already crossed the tail segment's
        // boundary but whose `write` has not yet allocated the next
        // segment. The probe must clamp, not panic.
        let buf = SegmentedBuffer::new(8);
        let filler = SEG_BYTES - 8 - 40;
        let a = buf.reserve(filler);
        buf.write(a, &vec![2u8; filler as usize]);
        // Reservation crossing into a segment that does not exist yet.
        let b = buf.reserve(100);
        assert_eq!(b, SEG_BYTES - 40);
        let probe_start = SEG_BYTES - 48;
        let mut probe = [0xFFu8; 192];
        buf.copy_to(probe_start, &mut probe).unwrap();
        assert_eq!(&probe[..8], &[2u8; 8], "written bytes returned");
        assert_eq!(&probe[8..48], &[0u8; 40], "allocated-but-unwritten zeros");
        assert_eq!(&probe[48..], &[0xFFu8; 144], "unallocated tail untouched");
        let short = buf.copy(probe_start, probe_start + 192).unwrap();
        assert_eq!(short.len(), 48, "copy clamps at the live tail");
    }

    #[test]
    fn crash_mid_word_keeps_durable_bytes_and_zeroes_the_rest() {
        let buf = SegmentedBuffer::new(8);
        let a = buf.reserve(13); // durable end lands mid-word
        buf.write(a, &[0xEEu8; 13]);
        buf.crash_to(a + 13);
        // Rewrite the discarded region with different bytes: edge-word
        // fetch_or must land on zeroed lanes, not stale 0xEE lanes.
        let b = buf.reserve(24);
        assert_eq!(b, a + 13);
        let payload: Vec<u8> = (0..24).map(|i| 0x40 | i as u8).collect();
        buf.write(b, &payload);
        assert_eq!(buf.copy(a, a + 13).unwrap(), vec![0xEE; 13]);
        assert_eq!(buf.copy(b, b + 24).unwrap(), payload);
    }

    #[test]
    fn a_buffer_resumed_past_a_cut_allocates_only_the_cut_segment() {
        // A log restored after truncation starts far past offset 0; the
        // segments below the cut were never written and must not exist.
        let cut = 1000 * SEG_BYTES + 24;
        let buf = SegmentedBuffer::truncated_at(cut);
        assert_eq!(
            (buf.base(), buf.end(), buf.complete_end(cut)),
            (cut, cut, cut)
        );
        let lsn = buf.reserve(40);
        assert_eq!(lsn, cut);
        buf.write(lsn, &[7u8; 40]);
        assert_eq!(buf.complete_end(cut), cut + 40);
        assert_eq!(buf.copy(lsn, lsn + 40).unwrap(), vec![7u8; 40]);
        assert_eq!(
            buf.copy(cut - 8, cut),
            Err(cut),
            "below the cut is truncated"
        );
        assert_eq!(buf.dir.read().segs.len(), 1);
    }
}
