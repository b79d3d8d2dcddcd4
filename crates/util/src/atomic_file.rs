//! Crash-atomic replacement of a small file: the classic
//! create–rename–fsync protocol every piece of root metadata in a
//! database directory is saved with (the manifest, the checkpoint image).
//!
//! [`replace`] writes `{name}.tmp`, fsyncs it, renames it over `name`
//! and fsyncs the directory. A crash at any point leaves either the old
//! or the new file under `name` — never a torn one — and [`read`]
//! discards a leftover `{name}.tmp` from an interrupted save: its rename
//! never happened, so it is dead weight either way. The file's own
//! format must still prove which version it got (a CRC); this protocol
//! only guarantees it is one of the two.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The temporary name [`replace`] writes before renaming over `name`.
#[must_use]
pub fn tmp_name(name: &str) -> String {
    format!("{name}.tmp")
}

/// Durably replaces `dir/name` with `bytes` (create–rename–fsync).
pub fn replace(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    replace_until_step(dir, name, bytes, usize::MAX)
}

/// The crash-point-enumerable core of [`replace`]. `steps` counts how
/// many protocol steps complete before a simulated crash: 0 = a partial
/// tmp file was written, 1 = the tmp file is complete and fsynced but
/// not renamed, 2 = renamed but the directory entry is not yet fsynced,
/// 3+ = the full protocol ran. Production code calls [`replace`].
pub fn replace_until_step(dir: &Path, name: &str, bytes: &[u8], steps: usize) -> io::Result<()> {
    let tmp: PathBuf = dir.join(tmp_name(name));
    let mut file = File::create(&tmp)?;
    if steps == 0 {
        // Crash mid-write: only a prefix of the bytes reaches disk.
        file.write_all(&bytes[..bytes.len() / 2])?;
        file.sync_all()?;
        return Ok(());
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    if steps == 1 {
        return Ok(());
    }
    fs::rename(&tmp, dir.join(name))?;
    if steps == 2 {
        return Ok(());
    }
    sync_dir(dir)
}

/// Reads `dir/name` as [`replace`] left it, first removing a leftover
/// tmp file of an interrupted save. `Ok(None)` when the file does not
/// exist.
pub fn read(dir: &Path, name: &str) -> io::Result<Option<Vec<u8>>> {
    let tmp = dir.join(tmp_name(name));
    if tmp.exists() {
        let _ = fs::remove_file(&tmp);
    }
    let mut bytes = Vec::new();
    match File::open(dir.join(name)) {
        Ok(mut f) => f.read_to_end(&mut bytes).map(|_| Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Fsyncs a directory so a just-created or just-renamed entry survives
/// power loss.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    OpenOptions::new().read(true).open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fresh scratch directory under the system temp dir (spf-util has
    /// no dependencies, `tempdir` included).
    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spf-util-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_file_reads_as_none() {
        let dir = scratch("missing");
        assert_eq!(read(&dir, "f").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A crash at any step of the protocol leaves the old or the new
        /// bytes under the name — never a torn hybrid — and no tmp file
        /// survives the next read. After the rename step the new bytes
        /// win.
        #[test]
        fn crash_at_any_step_leaves_old_or_new(
            old in proptest::collection::vec(any::<u8>(), 1..64),
            new in proptest::collection::vec(any::<u8>(), 1..64),
            step in 0usize..4,
        ) {
            let dir = scratch("crash");
            replace(&dir, "f", &old).unwrap();
            replace_until_step(&dir, "f", &new, step).unwrap();
            let got = read(&dir, "f").unwrap().unwrap();
            prop_assert!(got == old || got == new);
            if step >= 2 {
                prop_assert_eq!(&got, &new);
            }
            prop_assert!(!dir.join(tmp_name("f")).exists());
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
