//! Durable backing for the log buffer: the [`LogSink`] trait and its
//! file-based implementation, [`WalFiles`].
//!
//! The in-memory segmented log buffer gives the log its virtual
//! address space; a sink makes the durable prefix *actually*
//! durable. The force path hands the sink each newly forced byte range
//! **before** publishing the new durable LSN, and a force does not
//! return until the sink's `sync` has — so `durable_lsn` never claims
//! more than the operating system has acknowledged to stable storage.
//! A process kill therefore loses exactly the unforced tail, which is
//! the contract every commit and write-back already assumes.
//!
//! [`WalFiles`] stores the log as numbered segment files in a
//! directory, each file named by the virtual offset of its first byte
//! (`{base:020}.wal`). Appends go to the newest file at the position
//! `at - base`, so a restart that discarded a torn tail simply
//! overwrites it in place. Rotation closes a file once it passes the
//! segment cap: the closed file is fsynced, and the directory is
//! fsynced after the successor is created so the new name itself is
//! durable. Log truncation unlinks files that lie wholly below the cut
//! — partial files are never rewritten, matching how real systems
//! recycle whole log segments.
//!
//! Because a file is synced when it is closed, a tear can only sit in
//! the newest file: restart ([`LogManager::restore`](crate::LogManager::restore))
//! treats a bad record in an older file as damage, not as the end of
//! the log, and trimming a torn tail never cuts below the newest
//! file's first byte.
//!
//! The directory also holds the log's checkpoint image
//! ([`CHECKPOINT_IMAGE_FILE`], see [`LogSink::save_image`]), replaced
//! crash-atomically by the create–rename–fsync protocol of
//! [`spf_util::atomic_file`].

use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use spf_util::atomic_file::{self, sync_dir};

/// Destination for forced log bytes. Implementations must be safe to
/// call from whichever thread wins the group-commit leadership.
///
/// Errors are not survivable: a sink that cannot persist the log cannot
/// honour any durability promise, so the force path treats a sink error
/// as fatal (it panics rather than acknowledging a commit it did not
/// persist).
pub trait LogSink: Send + Sync {
    /// Writes `bytes` at virtual log offset `at`. Ranges arrive in
    /// order and contiguously from the durable end, except after a
    /// restart where the first append may overwrite a discarded torn
    /// tail in place.
    fn append(&self, at: u64, bytes: &[u8]) -> io::Result<()>;

    /// Durability barrier: returns once every appended byte is on
    /// stable storage.
    fn sync(&self) -> io::Result<()>;

    /// Releases storage below virtual offset `cut` (best effort; the
    /// sink may retain more).
    fn truncate_to(&self, cut: u64) -> io::Result<()>;

    /// Durably replaces the stored checkpoint image with `bytes`: when
    /// this returns, a restarted log finds exactly these bytes (see
    /// [`LogManager::save_checkpoint_image`](crate::LogManager::save_checkpoint_image)).
    fn save_image(&self, bytes: &[u8]) -> io::Result<()>;
}

/// File name of the checkpoint image inside a WAL directory.
pub const CHECKPOINT_IMAGE_FILE: &str = "checkpoint.spfc";

/// Default segment-file capacity. Segments rotate once they pass this
/// size; a single oversized append may overshoot it.
pub const DEFAULT_SEGMENT_BYTES: u64 = 256 * 1024;

/// A closed (rotated) segment file.
#[derive(Debug)]
struct Closed {
    base: u64,
    len: u64,
}

#[derive(Debug)]
struct Current {
    file: File,
    base: u64,
    len: u64,
}

#[derive(Debug)]
struct State {
    closed: Vec<Closed>,
    current: Option<Current>,
    /// Where the next segment starts when `current` is `None`.
    next_base: u64,
}

/// Directory of numbered WAL segment files (see the module docs).
#[derive(Debug)]
pub struct WalFiles {
    dir: PathBuf,
    segment_bytes: u64,
    state: Mutex<State>,
}

fn segment_name(base: u64) -> String {
    format!("{base:020}.wal")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".wal")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

impl WalFiles {
    /// Creates an empty WAL directory with one empty segment starting
    /// at virtual offset `start` (the log's header length, so offset 0
    /// is never a record). Fails if the directory already holds
    /// segments.
    pub fn create(dir: &Path, start: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .any(|e| parse_segment_name(&e.file_name().to_string_lossy()).is_some())
        {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("WAL directory {} already holds segments", dir.display()),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(dir.join(segment_name(start)))?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            state: Mutex::new(State {
                closed: Vec::new(),
                current: Some(Current {
                    file,
                    base: start,
                    len: 0,
                }),
                next_base: start,
            }),
        })
    }

    /// Opens an existing WAL directory. Fails if it holds no segment,
    /// if the segments do not tile one contiguous byte range, or if
    /// that range starts past half the LSN space (no log grows that
    /// far, and one that started there could not grow at all). The
    /// bytes are streamed by [`LogManager::restore`](crate::LogManager::restore),
    /// which also decides how much of the tail is a valid record stream.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut bases: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.file_name().to_string_lossy()))
            .collect();
        bases.sort_unstable();
        let Some(&first) = bases.first() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no WAL segments in {}", dir.display()),
            ));
        };
        if first > u64::MAX / 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL segment offset {first} in {} is no log's",
                    dir.display()
                ),
            ));
        }
        let mut closed = Vec::new();
        let mut current = None;
        let mut expected = first;
        for (i, &base) in bases.iter().enumerate() {
            if base != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL segment gap in {}: expected offset {expected}, found {base}",
                        dir.display()
                    ),
                ));
            }
            let last = i == bases.len() - 1;
            let file = OpenOptions::new()
                .read(true)
                .write(last)
                .open(dir.join(segment_name(base)))?;
            let len = file.metadata()?.len();
            expected = base + len;
            if last {
                current = Some(Current { file, base, len });
            } else {
                closed.push(Closed { base, len });
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            state: Mutex::new(State {
                closed,
                current,
                next_base: expected,
            }),
        })
    }

    /// Every stored segment as `(virtual offset of its first byte,
    /// length)`, in log order; the last one is the newest (the only one
    /// a kill can have torn).
    pub(crate) fn stored_segments(&self) -> Vec<(u64, u64)> {
        let st = self.state.lock();
        st.closed
            .iter()
            .map(|c| (c.base, c.len))
            .chain(st.current.as_ref().map(|c| (c.base, c.len)))
            .collect()
    }

    /// The file holding the segment that starts at virtual offset `base`.
    pub(crate) fn segment_path(&self, base: u64) -> PathBuf {
        self.dir.join(segment_name(base))
    }

    /// The stored checkpoint image, if one was ever saved.
    pub(crate) fn load_image(&self) -> io::Result<Option<Vec<u8>>> {
        atomic_file::read(&self.dir, CHECKPOINT_IMAGE_FILE)
    }

    /// Overrides the rotation threshold (tests use small segments to
    /// exercise rotation cheaply).
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Physically discards stored bytes at or above virtual offset
    /// `end` — the torn tail a restart's record walk rejected. Without
    /// this, stale bytes from before the crash could sit beyond the new
    /// logical end and be misread as records after a *second* crash.
    ///
    /// Only the newest file can be torn (older ones were synced when
    /// they closed), so a cut below its first byte is refused with
    /// [`io::ErrorKind::InvalidData`] rather than carried out.
    pub(crate) fn trim_to(&self, end: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        if let Some(cur) = st.current.as_mut() {
            if end < cur.base {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "refusing to trim {} below its first byte {}: only the newest \
                         WAL segment can hold a torn tail",
                        self.dir.join(segment_name(cur.base)).display(),
                        cur.base
                    ),
                ));
            }
            if end < cur.base + cur.len {
                let keep = end.saturating_sub(cur.base);
                cur.file.set_len(keep)?;
                cur.file.sync_all()?;
                cur.len = keep;
            }
        }
        st.next_base = st.next_base.min(end);
        Ok(())
    }
}

impl LogSink for WalFiles {
    fn append(&self, at: u64, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.current.is_none() {
            // Previous append rotated; start the successor where the
            // log resumed (contiguity is the force path's invariant).
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(self.dir.join(segment_name(at)))?;
            // The new name must survive a crash before its bytes
            // matter, or open() would see a segment gap.
            sync_dir(&self.dir)?;
            st.current = Some(Current {
                file,
                base: at,
                len: 0,
            });
        }
        let cur = st.current.as_mut().expect("current segment exists");
        debug_assert!(
            at >= cur.base && at <= cur.base + cur.len,
            "non-contiguous WAL append: at={at}, segment [{}, {})",
            cur.base,
            cur.base + cur.len
        );
        let off = at - cur.base;
        // One positioned write: no separate seek syscall per force.
        cur.file.write_all_at(bytes, off)?;
        cur.len = cur.len.max(off + bytes.len() as u64);
        if cur.len >= self.segment_bytes {
            cur.file.sync_all()?;
            let closed = Closed {
                base: cur.base,
                len: cur.len,
            };
            st.next_base = closed.base + closed.len;
            st.closed.push(closed);
            st.current = None;
        }
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let st = self.state.lock();
        if let Some(cur) = st.current.as_ref() {
            cur.file.sync_data()?;
        }
        Ok(())
    }

    fn truncate_to(&self, cut: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let mut removed = false;
        st.closed.retain(|c| {
            if c.base + c.len <= cut {
                let _ = fs::remove_file(self.dir.join(segment_name(c.base)));
                removed = true;
                false
            } else {
                true
            }
        });
        if removed {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    fn save_image(&self, bytes: &[u8]) -> io::Result<()> {
        atomic_file::replace(&self.dir, CHECKPOINT_IMAGE_FILE, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempdir::TempDir;

    /// The first stored offset and every stored byte, in log order.
    fn read_all(dir: &Path) -> (u64, Vec<u8>) {
        let files = WalFiles::open(dir).unwrap();
        let segments = files.stored_segments();
        let mut bytes = Vec::new();
        for &(base, _) in &segments {
            bytes.extend(fs::read(files.segment_path(base)).unwrap());
        }
        (segments[0].0, bytes)
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        let files = WalFiles::create(&dir, 16).unwrap();
        files.append(16, b"hello ").unwrap();
        files.append(22, b"world").unwrap();
        files.sync().unwrap();
        drop(files);
        let (base, bytes) = read_all(&dir);
        assert_eq!(base, 16);
        assert_eq!(bytes, b"hello world");
    }

    #[test]
    fn rotation_splits_into_numbered_files_and_reopen_concatenates() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        let files = WalFiles::create(&dir, 0).unwrap().with_segment_bytes(8);
        let mut expect = Vec::new();
        let mut at = 0u64;
        for i in 0u8..10 {
            let chunk = [i; 5];
            files.append(at, &chunk).unwrap();
            files.sync().unwrap();
            expect.extend_from_slice(&chunk);
            at += chunk.len() as u64;
        }
        drop(files);
        let names: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        assert!(names.len() > 1, "expected rotation, got {names:?}");
        let (base, bytes) = read_all(&dir);
        assert_eq!(base, 0);
        assert_eq!(bytes, expect);
    }

    #[test]
    fn trim_discards_tail_and_overwrite_in_place_works() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        let files = WalFiles::create(&dir, 0).unwrap();
        files.append(0, b"goodrecordTORNTA").unwrap();
        files.sync().unwrap();
        drop(files);
        let (base, bytes) = read_all(&dir);
        assert_eq!((base, bytes.len()), (0, 16));
        let files = WalFiles::open(&dir).unwrap();
        // Restart decided only the first 10 bytes parse as records.
        files.trim_to(10).unwrap();
        files.append(10, b"NEW").unwrap();
        files.sync().unwrap();
        drop(files);
        let (_, bytes) = read_all(&dir);
        assert_eq!(bytes, b"goodrecordNEW");
    }

    #[test]
    fn truncate_to_unlinks_wholly_covered_segments() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        let files = WalFiles::create(&dir, 0).unwrap().with_segment_bytes(4);
        for i in 0u64..6 {
            files.append(i * 4, &[i as u8; 4]).unwrap();
        }
        files.sync().unwrap();
        files.truncate_to(9).unwrap();
        let mut names: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        names.sort_unstable();
        // Segments [0,4) and [4,8) are gone; [8,12) still holds byte 9.
        assert_eq!(names.first(), Some(&8));
        let (base, bytes) = read_all(&dir);
        assert_eq!(base, 8);
        assert_eq!(bytes.len(), 16);
    }

    #[test]
    fn trim_never_cuts_below_the_newest_file() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        let files = WalFiles::create(&dir, 0).unwrap().with_segment_bytes(4);
        for i in 0u64..3 {
            files.append(i * 4, &[i as u8; 4]).unwrap();
        }
        files.append(12, b"ab").unwrap();
        files.sync().unwrap();
        drop(files);
        let files = WalFiles::open(&dir).unwrap();
        let err = files.trim_to(7).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(files);
        let (_, bytes) = read_all(&dir);
        assert_eq!(bytes.len(), 14, "nothing was cut");
    }

    /// The image save uses the manifest's protocol: a crash at any step
    /// leaves the old or the new image, and a later open reads it.
    #[test]
    fn image_save_crash_at_any_step_leaves_old_or_new() {
        for step in 0..4 {
            let tmp = TempDir::new("walfiles").unwrap();
            let dir = tmp.path().join("wal");
            let files = WalFiles::create(&dir, 0).unwrap();
            assert_eq!(files.load_image().unwrap(), None);
            files.save_image(b"old image").unwrap();
            atomic_file::replace_until_step(&dir, CHECKPOINT_IMAGE_FILE, b"new image!", step)
                .unwrap();
            drop(files);
            let got = WalFiles::open(&dir).unwrap().load_image().unwrap().unwrap();
            assert!(got == b"old image" || got == b"new image!", "step {step}");
            if step >= 2 {
                assert_eq!(got, b"new image!");
            }
        }
    }

    #[test]
    fn create_refuses_nonempty_directory() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        WalFiles::create(&dir, 0).unwrap();
        assert!(WalFiles::create(&dir, 0).is_err());
    }
}
