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

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

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
}

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

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
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
    /// bytes are read by [`LogManager::restore`](crate::LogManager::restore),
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

    /// The virtual offset of the first stored byte, and every stored
    /// byte in log order.
    pub(crate) fn read_stored(&self) -> io::Result<(u64, Vec<u8>)> {
        let st = self.state.lock();
        let mut bases = st
            .closed
            .iter()
            .map(|c| c.base)
            .chain(st.current.as_ref().map(|c| c.base))
            .peekable();
        let first = bases.peek().copied().unwrap_or(st.next_base);
        let mut bytes = Vec::new();
        for base in bases {
            File::open(self.dir.join(segment_name(base)))?.read_to_end(&mut bytes)?;
        }
        Ok((first, bytes))
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
    pub(crate) fn trim_to(&self, end: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        if let Some(cur) = st.current.as_mut() {
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
        cur.file.seek(SeekFrom::Start(off))?;
        cur.file.write_all(bytes)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempdir::TempDir;

    fn read_all(dir: &Path) -> (u64, Vec<u8>) {
        WalFiles::open(dir).unwrap().read_stored().unwrap()
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
        let files = WalFiles::open(&dir).unwrap();
        let (base, bytes) = files.read_stored().unwrap();
        assert_eq!((base, bytes.len()), (0, 16));
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
    fn create_refuses_nonempty_directory() {
        let tmp = TempDir::new("walfiles").unwrap();
        let dir = tmp.path().join("wal");
        WalFiles::create(&dir, 0).unwrap();
        assert!(WalFiles::create(&dir, 0).is_err());
    }
}
