//! End-to-end durability of the WAL through [`WalFiles`]: forced bytes
//! survive a "process kill" (dropping every in-memory structure and
//! reopening from the directory), unforced bytes do not, and a torn
//! tail — the file ending mid-record — is detected and discarded by
//! [`LogManager::restore`]. Segment files a crash left behind are
//! hostile input: whatever they hold, `restore` answers `Ok` with a
//! prefix that re-decodes record by record, or `Err` — it never panics.
//! Only the newest segment can be torn; damage to an older one is an
//! `Err`, never a reason to cut the log short.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use spf_obs::Obs;
use spf_storage::PageId;
use spf_util::{IoCostModel, SimClock};
use spf_wal::manager::make_record;
use spf_wal::record::PageOp;
use spf_wal::{LogError, LogManager, LogPayload, LogRecord, LogSink, Lsn, TxId, WalFiles};
use tempdir::TempDir;

fn update_record(tx: u64, prev_tx: Lsn, page: u64, prev_page: Lsn) -> LogRecord {
    make_record(
        TxId(tx),
        prev_tx,
        PageId(page),
        prev_page,
        LogPayload::Update {
            op: PageOp::InsertRecord {
                pos: 0,
                bytes: vec![tx as u8; 16],
                ghost: false,
            },
        },
    )
}

fn checkpoint_record() -> LogRecord {
    make_record(
        TxId(0),
        Lsn::NULL,
        PageId(u64::MAX),
        Lsn::NULL,
        LogPayload::CheckpointBegin {
            dirty_pages: Vec::new(),
            active_txns: Vec::new(),
        },
    )
}

fn quiet_obs(clock: &Arc<SimClock>) -> Arc<Obs> {
    Arc::new(Obs::new(Arc::clone(clock), false))
}

/// A fresh log born with `files` as its sink.
fn log_over(files: WalFiles) -> LogManager {
    let clock = Arc::new(SimClock::new());
    let obs = quiet_obs(&clock);
    LogManager::new(clock, IoCostModel::free(), obs, Some(Arc::new(files)))
}

fn fresh_log_with_files(dir: &Path) -> LogManager {
    log_over(WalFiles::create(dir, Lsn::FIRST.0).unwrap())
}

fn restore(dir: &Path) -> std::io::Result<LogManager> {
    let clock = Arc::new(SimClock::new());
    let obs = quiet_obs(&clock);
    LogManager::restore(clock, IoCostModel::free(), obs, WalFiles::open(dir)?)
}

/// Reopens `dir` the way a restarted process does; returns the log and
/// the durable end its record walk accepted.
fn reopen(dir: &Path) -> (LogManager, Lsn) {
    let log = restore(dir).unwrap();
    let end = log.durable_lsn();
    (log, end)
}

#[test]
fn forced_records_survive_reopen_unforced_do_not() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    let b = log.append(&update_record(1, a, 11, Lsn::NULL));
    log.force();
    let durable_end = log.durable_lsn();
    // Appended after the force: in the buffer, never in the files.
    let c = log.append(&update_record(2, Lsn::NULL, 12, Lsn::NULL));
    assert!(c >= durable_end);
    let rec_a = log.read_record(a).unwrap();
    let rec_b = log.read_record(b).unwrap();
    drop(log); // the "kill": no flush, no shutdown protocol

    let (log, valid_end) = reopen(&dir);
    assert_eq!(valid_end, durable_end, "recovers exactly the forced prefix");
    assert_eq!(log.durable_lsn(), durable_end);
    assert_eq!(log.read_record(a).unwrap(), rec_a);
    assert_eq!(log.read_record(b).unwrap(), rec_b);
    assert!(log.read_record(c).is_err(), "unforced record is gone");
}

#[test]
fn checkpoint_image_survives_reopen_and_appends_continue() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    log.force();
    log.save_checkpoint_image(b"image one".to_vec()).unwrap();
    drop(log);

    let (log, _) = reopen(&dir);
    assert_eq!(log.checkpoint_image().as_deref(), Some(&b"image one"[..]));

    // The log keeps working: append, force, save, reopen again.
    let d = log.append(&update_record(3, Lsn::NULL, 13, a));
    log.force();
    log.save_checkpoint_image(b"image two".to_vec()).unwrap();
    let rec_d = log.read_record(d).unwrap();
    drop(log);
    let (log, _) = reopen(&dir);
    assert_eq!(log.read_record(d).unwrap(), rec_d);
    assert_eq!(log.checkpoint_image().as_deref(), Some(&b"image two"[..]));
}

/// One bad byte in an old, closed segment is damage, not a torn tail:
/// restore refuses the directory and leaves every file as it was —
/// above all the newest, which holds the most recent commits.
#[test]
fn a_bad_record_in_an_old_segment_is_refused_not_trimmed() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = log_over(
        WalFiles::create(&dir, Lsn::FIRST.0)
            .unwrap()
            .with_segment_bytes(128),
    );
    let mut prev = Lsn::NULL;
    for i in 0..20 {
        prev = log.append(&update_record(1, prev, 10 + i, Lsn::NULL));
        log.force();
    }
    drop(log);
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "the log must span several segments");
    let mut old = std::fs::read(&names[1]).unwrap();
    old[20] ^= 0x5A;
    std::fs::write(&names[1], &old).unwrap();
    let before: Vec<Vec<u8>> = names.iter().map(|p| std::fs::read(p).unwrap()).collect();

    let err = restore(&dir).map(drop).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let file_name = names[1].file_name().unwrap().to_string_lossy().into_owned();
    assert!(err.to_string().contains(&file_name), "{err}");
    let after: Vec<Vec<u8>> = names.iter().map(|p| std::fs::read(p).unwrap()).collect();
    assert_eq!(before, after, "no segment may change");
}

/// A log longer than one restore chunk, with records larger than it,
/// streams back record for record.
#[test]
fn a_log_longer_than_the_restore_chunk_streams_back_whole() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);
    let big = |i: u64| {
        make_record(
            TxId(0),
            Lsn::NULL,
            PageId(u64::MAX),
            Lsn::NULL,
            LogPayload::CheckpointBegin {
                // Full-width LSNs: ten varint bytes apiece.
                dirty_pages: (0..100_000)
                    .map(|p| (PageId(p + i), Lsn(u64::MAX - p)))
                    .collect(),
                active_txns: Vec::new(),
            },
        )
    };
    assert!(big(0).encode().len() > spf_wal::manager::RESTORE_CHUNK_BYTES);
    let mut written = Vec::new();
    let mut prev = Lsn::NULL;
    for i in 0..3000u64 {
        let record = if i % 1000 == 500 {
            big(i)
        } else {
            update_record(i, prev, i % 50, Lsn::NULL)
        };
        prev = log.append(&record);
        written.push((prev, record));
    }
    log.force();
    drop(log);

    let (log, end) = reopen(&dir);
    let served = log.scan_from(Lsn::NULL).unwrap();
    assert_eq!(served, written);
    assert_eq!(end, log.end_lsn());
}

#[test]
fn torn_tail_is_detected_and_discarded() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    let b = log.append(&update_record(1, a, 11, Lsn::NULL));
    log.force();
    let durable_end = log.durable_lsn();
    drop(log);

    // Simulate a kill between the sink's append and its sync: some
    // bytes of the next record reached the file, but not all of it.
    let files = WalFiles::open(&dir).unwrap();
    let torn = update_record(2, Lsn::NULL, 12, Lsn::NULL).encode();
    files
        .append(durable_end.0, &torn[..torn.len() / 2])
        .unwrap();
    files.sync().unwrap();
    drop(files);

    let (log, valid_end) = reopen(&dir);
    assert_eq!(valid_end, durable_end, "torn record rejected");
    assert_eq!(
        log.read_record(b).unwrap(),
        update_record(1, a, 11, Lsn::NULL)
    );

    // A fresh append lands where the torn record was and overwrites it.
    let d = log.append(&update_record(4, Lsn::NULL, 14, Lsn::NULL));
    assert_eq!(d, durable_end);
    log.force();
    drop(log);
    let (log, _) = reopen(&dir);
    assert_eq!(
        log.read_record(d).unwrap(),
        update_record(4, Lsn::NULL, 14, Lsn::NULL)
    );
}

#[test]
fn truncation_unlinks_old_segments_and_reopen_starts_at_new_base() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = log_over(
        WalFiles::create(&dir, Lsn::FIRST.0)
            .unwrap()
            .with_segment_bytes(128),
    );

    let mut prev = Lsn::NULL;
    let mut lsns = Vec::new();
    for i in 0..20 {
        let lsn = log.append(&update_record(1, prev, 10 + i, Lsn::NULL));
        prev = lsn;
        lsns.push(lsn);
        log.force();
    }
    let cut = lsns[10];
    log.set_archive_watermark(cut);
    let dropped = log.truncate_until(cut).unwrap();
    assert!(dropped > 0);
    drop(log);

    let (log, _) = reopen(&dir);
    // The unlinked segments come back as a truncation, not as a hole:
    // recovery reads the truncation point to know the archive holds
    // the rest.
    let floor = log.truncate_point();
    assert!(floor > Lsn::FIRST && floor <= cut, "truncated at {floor:?}");
    assert!(
        matches!(log.read_record(lsns[5]), Err(LogError::Truncated { .. })),
        "below the new base"
    );
    for &lsn in &lsns[10..] {
        assert!(log.read_record(lsn).is_ok(), "retained record at {lsn:?}");
    }
}

/// Writes `stored` into an empty WAL directory as segment files named
/// the way `WalFiles` names them (`{base:020}.wal`), split at `split`
/// into two files when that falls inside the bytes.
fn write_segments(dir: &Path, base: u64, stored: &[u8], split: usize) {
    std::fs::create_dir_all(dir).unwrap();
    let name = |at: u64| dir.join(format!("{at:020}.wal"));
    if split > 0 && split < stored.len() {
        std::fs::write(name(base), &stored[..split]).unwrap();
        std::fs::write(name(base + split as u64), &stored[split..]).unwrap();
    } else {
        std::fs::write(name(base), stored).unwrap();
    }
}

/// What `restore` may make of `stored` written at `base`: `Err`, or a
/// log whose durable range is a prefix of `stored` that re-decodes
/// record by record into exactly the records the log serves — and that
/// a second restore finds again (the rejected tail was trimmed, not
/// left behind).
fn check_restore(stored: &[u8], base: u64, split: usize) -> Result<(), TestCaseError> {
    let tmp = TempDir::new("hostile-wal").unwrap();
    let dir = tmp.path().join("wal");
    write_segments(&dir, base, stored, split);
    let Ok(log) = restore(&dir) else {
        return Ok(());
    };
    let end = log.durable_lsn().0;
    prop_assert!(end >= base && end - base <= stored.len() as u64);
    let prefix = &stored[..(end - base) as usize];
    let served = log.scan_from(Lsn(base)).unwrap();
    let mut off = 0usize;
    for (lsn, record) in &served {
        prop_assert_eq!(lsn.0, base + off as u64);
        let decoded = LogRecord::decode(&prefix[off..]);
        prop_assert!(decoded.is_ok(), "accepted bytes at {off} do not decode");
        let (again, len) = decoded.unwrap();
        prop_assert_eq!(&again, record);
        off += len;
    }
    prop_assert_eq!(off, prefix.len());
    drop(log);
    let reopened = restore(&dir);
    prop_assert!(reopened.is_ok(), "a restored directory must reopen");
    prop_assert_eq!(reopened.unwrap().durable_lsn().0, end);
    Ok(())
}

/// A valid stream of `n` records of varied sizes and kinds.
fn valid_stream(n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n as u64 {
        let record = match i % 3 {
            2 => checkpoint_record(),
            _ => update_record(i, Lsn::NULL, 10 + i, Lsn::NULL),
        };
        out.extend_from_slice(&record.encode());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_segment_bytes_never_panic_restore(
        stored in proptest::collection::vec(any::<u8>(), 0..600),
        split in 0usize..600,
    ) {
        check_restore(&stored, Lsn::FIRST.0, split)?;
    }

    #[test]
    fn a_flipped_byte_or_a_cut_tail_keeps_a_decodable_prefix(
        records in 1usize..8,
        at in any::<usize>(),
        flip in 1u8..=255,
        cut in any::<bool>(),
        split in 0usize..400,
    ) {
        let mut stored = valid_stream(records);
        let at = at % stored.len();
        if cut {
            stored.truncate(at);
        } else {
            stored[at] ^= flip;
        }
        check_restore(&stored, Lsn::FIRST.0, split)?;
    }

    #[test]
    fn a_segment_named_past_any_real_log_is_refused_or_restored(
        base in any::<u64>(),
        records in 0usize..4,
    ) {
        check_restore(&valid_stream(records), base, 0)?;
    }
}
