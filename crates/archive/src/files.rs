//! On-disk persistence for archive runs: one file per run in a flat
//! directory, named `l{level:02}-r{id:08}.spfa`.
//!
//! Runs are immutable, so the protocol is simple: a run becomes durable
//! by writing its encoded bytes (magic + CRC-32C footer included, see
//! [`ArchiveRun::encode`]) to a `.tmp` file, fsyncing it, renaming it
//! into place, and fsyncing the directory. A merge writes the merged
//! run's file *before* the in-memory swap and deletes the input files
//! after — so a crash anywhere in between leaves overlapping runs on
//! disk, never missing history. [`load_dir`] resolves that overlap on
//! the next open: a run whose window is contained in another run's
//! window is redundant (the containing, merged run holds the same
//! records) and its file is removed; stray `.tmp` files are removed
//! too.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use spf_util::atomic_file::{replace, sync_dir};

use crate::run::ArchiveRun;
use crate::ArchiveError;

/// File name for run `id` living on `level`.
#[must_use]
pub(crate) fn run_file_name(level: usize, id: u64) -> String {
    format!("l{level:02}-r{id:08}.spfa")
}

/// Parses a run file name back into `(level, id)`.
fn parse_run_file_name(name: &str) -> Option<(usize, u64)> {
    let stem = name.strip_suffix(".spfa")?;
    let (level, id) = stem.split_once("-")?;
    let level = level.strip_prefix('l')?;
    let id = id.strip_prefix('r')?;
    if level.len() != 2 || id.len() != 8 {
        return None;
    }
    Some((level.parse().ok()?, id.parse().ok()?))
}

fn io_err(context: &str, e: &io::Error) -> ArchiveError {
    ArchiveError::Io {
        detail: format!("{context}: {e}"),
    }
}

/// Durably writes `run`'s file into `dir` (tmp, fsync, rename, fsync
/// dir). When this returns the run survives any crash.
pub(crate) fn write_run_file(
    dir: &Path,
    level: usize,
    run: &ArchiveRun,
) -> Result<(), ArchiveError> {
    replace(dir, &run_file_name(level, run.id()), &run.encode())
        .map_err(|e| io_err("writing archive run file", &e))
}

/// Removes run files (post-merge input cleanup). Best effort per file;
/// the directory is synced once at the end.
pub(crate) fn remove_run_files(dir: &Path, files: impl IntoIterator<Item = (usize, u64)>) {
    for (level, id) in files {
        let _ = fs::remove_file(dir.join(run_file_name(level, id)));
    }
    let _ = sync_dir(dir);
}

/// Loads every run file in `dir`, returning `(level, run)` pairs with
/// crash leftovers cleaned up: stray `.tmp` files are deleted, and a
/// run whose window is contained in another loaded run's window (a
/// merge input whose merged output was already durable) is dropped and
/// its file deleted.
pub(crate) fn load_dir(dir: &Path) -> Result<Vec<(usize, ArchiveRun)>, ArchiveError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("reading archive directory", &e))?;
    let mut named: Vec<(usize, u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading archive directory", &e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if let Some((level, id)) = parse_run_file_name(&name) {
            named.push((level, id, entry.path()));
        }
    }
    let mut runs: Vec<(usize, ArchiveRun, PathBuf)> = Vec::with_capacity(named.len());
    for (level, id, path) in named {
        let bytes = fs::read(&path).map_err(|e| io_err("reading archive run file", &e))?;
        let run = ArchiveRun::from_bytes(&bytes)?;
        run.verify()?;
        if run.id() != id {
            return Err(ArchiveError::Corrupt {
                run: run.id(),
                detail: format!("run file {} names id {id}", path.display()),
            });
        }
        runs.push((level, run, path));
    }
    // Containment dedupe: sort by (window start asc, window end desc)
    // so any contained run follows its container; a run whose window
    // end fits under the current covering end is redundant.
    runs.sort_by_key(|(_, run, _)| {
        let (start, end) = run.window();
        (start, std::cmp::Reverse(end))
    });
    let mut kept: Vec<(usize, ArchiveRun)> = Vec::with_capacity(runs.len());
    let mut covering_end = None;
    for (level, run, path) in runs {
        let (_, end) = run.window();
        if covering_end.is_some_and(|cov| end <= cov) {
            let _ = fs::remove_file(path);
            continue;
        }
        covering_end = Some(end);
        kept.push((level, run));
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_file_names_round_trip() {
        assert_eq!(run_file_name(0, 7), "l00-r00000007.spfa");
        assert_eq!(parse_run_file_name("l00-r00000007.spfa"), Some((0, 7)));
        assert_eq!(parse_run_file_name("l03-r00000123.spfa"), Some((3, 123)));
        assert_eq!(parse_run_file_name("l3-r123.spfa"), None);
        assert_eq!(parse_run_file_name("manifest.spfm"), None);
        assert_eq!(parse_run_file_name("l00-r00000007.spfa.tmp"), None);
    }
}
