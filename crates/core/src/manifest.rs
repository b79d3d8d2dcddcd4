//! The database manifest: a tiny CRC-guarded root record for a
//! file-backed database directory.
//!
//! The manifest is the one piece of metadata that cannot be rebuilt from
//! the WAL — it tells restart how to *find* the WAL: the page geometry,
//! the fault-injector seed, whether a mirror device exists, how much of
//! the log has been archived, and where backup-slot allocation must
//! resume. It is updated with the create–rename–fsync protocol of
//! [`spf_util::atomic_file`] (shared with the checkpoint image): a crash at any
//! point leaves either the old or the new manifest intact — never a
//! torn one — and [`Manifest::load`] proves which one it got via a
//! CRC-32C over the whole record.

use std::io;
use std::path::Path;

use spf_storage::PAGE_HEADER_SIZE;
use spf_util::{atomic_file, crc32c, Decoder, Encoder};
use spf_wal::Lsn;

/// File name of the manifest inside a database directory.
pub const MANIFEST_FILE: &str = "manifest.spfm";

const MAGIC: u32 = 0x5350_464D; // "SPFM"
/// Bumped whenever the bytes of the directory's files change meaning, so
/// an older directory is refused here rather than deep in restart.
///
/// * 2: varint log-record bodies and delta replaces.
/// * 3: user transactions log no begin record (a chain without one is a
///   user transaction's), and a single-update transaction's update
///   record (tag 11) commits it.
const VERSION: u16 = 3;

/// Page sizes the engine can format (`Page::new_formatted`): room for
/// the header and a record heap, and slot offsets that fit a `u16`.
const PAGE_SIZES: std::ops::RangeInclusive<usize> = PAGE_HEADER_SIZE + 64..=1 << 15;

/// Durable root metadata for a file-backed database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Page size in bytes; every device in the directory uses it.
    pub page_size: usize,
    /// Capacity of the data device in pages.
    pub data_pages: u64,
    /// Fault-injector RNG seed the database was created with.
    pub seed: u64,
    /// Whether `mirror.dat` exists and is kept synchronously up to date.
    pub mirror: bool,
    /// Everything below this LSN is covered by the log archive (or was
    /// never needed); restart re-arms the archiver's watermark from it.
    pub archived_through: Lsn,
    /// High-water mark of page allocation: every `PageId` below this may
    /// be in use, so restart's allocator must not hand them out again.
    pub alloc_high_water: u64,
    /// The most recent full backup, if any: first backup slot and the
    /// LSN it was taken at.
    pub last_full_backup: Option<(u64, Lsn)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(self.page_size as u64);
        enc.put_u64(self.data_pages);
        enc.put_u64(self.seed);
        enc.put_u8(u8::from(self.mirror));
        enc.put_u64(self.archived_through.0);
        enc.put_u64(self.alloc_high_water);
        match self.last_full_backup {
            Some((slot, lsn)) => {
                enc.put_u8(1);
                enc.put_u64(slot);
                enc.put_u64(lsn.0);
            }
            None => enc.put_u8(0),
        }
        let crc = crc32c(enc.as_slice());
        enc.put_u32(crc);
        enc.finish()
    }

    /// Decodes a manifest, refusing one whose CRC does not match, whose
    /// bytes run past the last field, or whose geometry the engine
    /// cannot use: a CRC only proves the bytes are the ones written, not
    /// that a writer wrote something sensible.
    fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 4 {
            return Err("manifest too short".into());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32c(body) != stored {
            return Err("manifest checksum mismatch".into());
        }
        let mut dec = Decoder::new(body);
        let mut take = || -> Result<Self, spf_util::codec::DecodeError> {
            let magic = dec.get_u32()?;
            if magic != MAGIC {
                return Err(spf_util::codec::DecodeError::InvalidTag {
                    tag: (magic & 0xFF) as u8,
                    what: "manifest magic",
                });
            }
            let version = dec.get_u16()?;
            if version != VERSION {
                return Err(spf_util::codec::DecodeError::InvalidTag {
                    tag: version as u8,
                    what: "manifest version",
                });
            }
            let page_size = dec.get_u64()? as usize;
            let data_pages = dec.get_u64()?;
            let seed = dec.get_u64()?;
            let mirror = dec.get_u8()? != 0;
            let archived_through = Lsn(dec.get_u64()?);
            let alloc_high_water = dec.get_u64()?;
            let last_full_backup = match dec.get_u8()? {
                0 => None,
                _ => {
                    let slot = dec.get_u64()?;
                    let lsn = Lsn(dec.get_u64()?);
                    Some((slot, lsn))
                }
            };
            Ok(Self {
                page_size,
                data_pages,
                seed,
                mirror,
                archived_through,
                alloc_high_water,
                last_full_backup,
            })
        };
        let manifest = take().map_err(|e| format!("manifest decode failed: {e}"))?;
        if !dec.is_exhausted() {
            return Err(format!("manifest has {} trailing bytes", dec.remaining()));
        }
        if !PAGE_SIZES.contains(&manifest.page_size) {
            return Err(format!(
                "manifest page size {} outside {PAGE_SIZES:?}",
                manifest.page_size
            ));
        }
        Ok(manifest)
    }

    /// Durably writes the manifest into `dir` with create–rename–fsync.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_file::replace(dir, MANIFEST_FILE, &self.encode())
    }

    /// Loads the manifest from `dir`, validating magic, version, and
    /// CRC (a leftover tmp file of an interrupted save is discarded).
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(MANIFEST_FILE);
        match atomic_file::read(dir, MANIFEST_FILE) {
            Ok(Some(bytes)) => Self::decode(&bytes),
            Ok(None) => Err(format!("cannot read {}: no such file", path.display())),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempdir::TempDir;

    fn sample(seed: u64) -> Manifest {
        Manifest {
            page_size: 4096,
            data_pages: 128,
            seed,
            mirror: seed.is_multiple_of(2),
            archived_through: Lsn(seed * 7),
            alloc_high_water: seed + 3,
            last_full_backup: if seed.is_multiple_of(3) {
                Some((seed, Lsn(seed * 11)))
            } else {
                None
            },
        }
    }

    #[test]
    fn round_trip() {
        let dir = TempDir::new("manifest").unwrap();
        let m = sample(6);
        m.save(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), m);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = TempDir::new("manifest").unwrap();
        sample(1).save(dir.path()).unwrap();
        let path = dir.path().join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Manifest::load(dir.path()).is_err());
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = TempDir::new("manifest").unwrap();
        assert!(Manifest::load(dir.path()).is_err());
    }

    /// `bytes` with its CRC trailer recomputed over the (mutated) body.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 4;
        let crc = crc32c(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn implausible_page_size_and_trailing_bytes_are_refused() {
        for page_size in [0, 1, PAGE_HEADER_SIZE + 63, (1 << 15) + 1, usize::MAX] {
            let m = Manifest {
                page_size,
                ..sample(1)
            };
            let err = Manifest::decode(&m.encode()).unwrap_err();
            assert!(err.contains("page size"), "{page_size}: {err}");
        }
        let mut bytes = sample(1).encode();
        bytes.insert(bytes.len() - 4, 0);
        let err = Manifest::decode(&reseal(bytes)).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The CRC only guards against accidents: a manifest whose
        /// trailer was recomputed over mutated fields, or over a cut or
        /// extended body, reaches every check in `decode` — which
        /// answers `Ok` or `Err`, never panics, and never accepts a
        /// page size the engine cannot format.
        #[test]
        fn resealed_mutations_never_panic_decode(
            seed in 0u64..1000,
            at in any::<usize>(),
            byte in any::<u8>(),
            shape in 0u8..3,
        ) {
            let mut bytes = sample(seed).encode();
            let body = bytes.len() - 4;
            match shape {
                0 => bytes[at % body] = byte,
                1 => {
                    bytes.drain(at % body..body);
                }
                _ => bytes.insert(at % (body + 1), byte),
            }
            if let Ok(m) = Manifest::decode(&reseal(bytes)) {
                prop_assert!(PAGE_SIZES.contains(&m.page_size));
            }
        }

        /// A crash at any step of the create–rename–fsync protocol
        /// leaves either the old or the new manifest readable — never a
        /// torn hybrid. (The step-2 "renamed but directory unsynced"
        /// case can surface either version on real hardware; on a live
        /// filesystem the rename is visible, so we assert it reads as
        /// exactly old-or-new too.)
        #[test]
        fn crash_during_save_leaves_old_or_new(seed in 0u64..1000, step in 0usize..4) {
            let dir = TempDir::new("manifest-crash").unwrap();
            let old = sample(seed);
            old.save(dir.path()).unwrap();
            let new = sample(seed + 1);
            atomic_file::replace_until_step(dir.path(), MANIFEST_FILE, &new.encode(), step).unwrap();
            let got = Manifest::load(dir.path()).unwrap();
            prop_assert!(got == old || got == new, "torn manifest: {got:?}");
            // After the rename step the new version must win.
            if step >= 2 {
                prop_assert_eq!(got, new);
            }
        }
    }
}
