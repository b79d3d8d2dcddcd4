//! A black box, a log record, an archive run or a checkpoint image is
//! read back by a later process from a directory a crash left behind:
//! its bytes are hostile. `BlackBox::decode`, `SpanRecord::decode`,
//! `LogRecord::decode`, `ArchiveRun::from_bytes` (and the slice decoders
//! behind its lookups) and `CheckpointImage::decode` must answer `Ok` or
//! `Err` — never panic, never reserve more than the input could hold.

use proptest::prelude::*;

use spf_archive::{ArchiveRun, RunBuilder};
use spf_obs::{BlackBox, Event, EventKind, SpanKind, SpanRecord};
use spf_recovery::{CheckpointImage, PriEntry};
use spf_storage::{Page, PageId, PageType, DEFAULT_PAGE_SIZE};
use spf_util::codec::DecodeError;
use spf_util::{crc32c, Decoder, SimDuration};
use spf_wal::{BackupRef, CompressedPageImage, LogPayload, LogRecord, Lsn, PageOp, TxId};

fn sample_box(events: usize, spans: usize) -> BlackBox {
    BlackBox {
        reason: "panic: injected".into(),
        events: (0..events as u64)
            .map(|i| Event {
                thread: i % 3,
                seq: i,
                kind: EventKind::ALL[i as usize % EventKind::ALL.len()],
                sim: SimDuration::from_nanos(i * 10),
                wall_nanos: i * 11,
                a: i,
                b: !i,
            })
            .collect(),
        spans: (0..spans as u64)
            .map(|i| {
                let kind = SpanKind::ALL[i as usize % SpanKind::ALL.len()];
                SpanRecord {
                    thread: 0,
                    seq: i,
                    trace_id: 1 + i / 4,
                    span_id: 1 + i,
                    parent: i,
                    kind,
                    class: kind.class(),
                    start_nanos: i * 100,
                    dur_nanos: 50,
                    a: i,
                    link: 0,
                }
            })
            .collect(),
        metrics_json: "{\"pool\":{\"hits\":3}}".into(),
    }
}

/// Whatever `decode` makes of `bytes`, an accepted box holds no more
/// than the bytes could encode (49 per event, 74 per span).
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(b) = BlackBox::decode(bytes) {
        prop_assert!(b.events.capacity() * 49 <= bytes.len());
        prop_assert!(b.spans.capacity() * SpanRecord::ENCODED_LEN <= bytes.len());
        prop_assert!(b.reason.len() + b.metrics_json.len() <= bytes.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        check(&bytes)?;
        let _ = SpanRecord::decode(&mut Decoder::new(&bytes));
    }

    /// The CRC only guards against accidents: a box whose trailer was
    /// recomputed over a mutated body reaches every length and tag check,
    /// `SpanRecord::decode`'s included.
    #[test]
    fn mutated_box_with_a_valid_crc_never_panics(
        events in 0usize..6,
        spans in 0usize..6,
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in 0usize..64,
    ) {
        let mut bytes = sample_box(events, spans).encode();
        let body = bytes.len() - 4;
        bytes[at % body] = byte;
        // Also drop a tail of the body, so that counts outrun it.
        bytes.truncate(body.saturating_sub(cut));
        let crc = crc32c(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        check(&bytes)?;
    }
}

fn record(payload: LogPayload) -> LogRecord {
    LogRecord {
        tx_id: TxId(1),
        prev_tx_lsn: Lsn(8),
        page_id: PageId(3),
        prev_page_lsn: Lsn(16),
        payload,
    }
}

/// Valid records of every payload shape whose counts size a
/// reservation, plus a fixed-size one, a page image, a delta replace, a
/// structure-area write, a header whose LSNs take five varint bytes
/// and whose page id nine, and a `put_auto`'s self-committing replace.
fn sample_records() -> Vec<LogRecord> {
    let page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(3), PageType::BTreeLeaf);
    let range = vec![(b"alpha".to_vec(), false), (b"beta".to_vec(), true)];
    vec![
        record(LogPayload::Update {
            op: PageOp::InsertRange {
                pos: 0,
                records: range.clone(),
            },
        }),
        record(LogPayload::Clr {
            op: PageOp::RemoveRange {
                pos: 0,
                records: range,
            },
            undo_next: Lsn(40),
        }),
        record(LogPayload::CheckpointBegin {
            active_txns: vec![(TxId(1), Lsn(8)), (TxId(2), Lsn(16))],
            dirty_pages: vec![(PageId(3), Lsn(24))],
        }),
        record(LogPayload::PriUpdate {
            page_lsn: Lsn(9),
            backup: BackupRef::FullBackup {
                first_slot: 1,
                pages: 8,
            },
        }),
        record(LogPayload::PageFormat {
            image: CompressedPageImage::capture(&page),
        }),
        record(LogPayload::Update {
            op: PageOp::replace(7, b"key-7".to_vec(), b"key-7=gen0001", b"key-7=gen0002"),
        }),
        record(LogPayload::Update {
            op: PageOp::WriteStructure {
                old: vec![0; 32],
                new: vec![7; 32],
            },
        }),
        LogRecord {
            tx_id: TxId(600_000),
            prev_tx_lsn: Lsn(1 << 33),
            page_id: PageId(1 << 60),
            prev_page_lsn: Lsn((1 << 33) - 40),
            payload: LogPayload::Clr {
                op: PageOp::SetGhost {
                    pos: 300,
                    key: b"key-7".to_vec(),
                    old: true,
                    new: false,
                },
                undo_next: Lsn((1 << 33) - 80),
            },
        },
        put_auto_record(),
    ]
}

/// The one record a `put_auto` logs: a self-committing delta replace,
/// first in its transaction's chain.
fn put_auto_record() -> LogRecord {
    LogRecord {
        prev_tx_lsn: Lsn::NULL,
        ..record(LogPayload::UpdateCommit {
            op: PageOp::replace(7, b"key-7".to_vec(), b"key-7=gen0001", b"key-7=gen0002"),
        })
    }
}

/// Rewrites a record's framing (body length and CRC) over whatever body
/// it now has, so a mutated record reaches the payload decoder.
fn reframe(bytes: &mut [u8]) {
    let body = &bytes[LogRecord::FRAME_BYTES..];
    let (len, crc) = (body.len() as u32, crc32c(body));
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Whatever `decode` makes of `bytes`, an accepted record reserved no
/// more than its bytes could encode: 2 per checkpoint-table entry (two
/// one-byte varints), 2 per range record.
fn check_record(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok((record, len)) = LogRecord::decode(bytes) else {
        return Ok(());
    };
    prop_assert!(len <= bytes.len());
    let op = match &record.payload {
        LogPayload::CheckpointBegin {
            active_txns,
            dirty_pages,
        } => {
            prop_assert!((active_txns.capacity() + dirty_pages.capacity()) * 2 <= len);
            return Ok(());
        }
        LogPayload::Update { op }
        | LogPayload::UpdateCommit { op }
        | LogPayload::Clr { op, .. } => op,
        _ => return Ok(()),
    };
    match op {
        PageOp::InsertRange { records, .. } | PageOp::RemoveRange { records, .. } => {
            prop_assert!(records.capacity() * 2 <= len);
        }
        PageOp::ReplaceRecord {
            prefix,
            suffix,
            old,
            new,
            ..
        } => {
            let whole = usize::from(*prefix) + usize::from(*suffix) + old.len().max(new.len());
            prop_assert!(whole <= 1 << 15, "a {whole}-byte record was accepted");
        }
        PageOp::WriteStructure { old, new } => {
            prop_assert!(old.len() == 32 && new.len() == 32);
        }
        _ => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_log_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        check_record(&bytes)?;
    }

    /// A valid record with one body byte changed, and possibly cut
    /// short, under recomputed framing: counts outrun the body and every
    /// tag and length check is reached.
    #[test]
    fn mutated_record_with_a_valid_crc_never_panics(
        which in 0usize..9,
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in 0usize..32,
    ) {
        let mut bytes = sample_records()[which].encode();
        let body = bytes.len() - LogRecord::FRAME_BYTES;
        bytes[LogRecord::FRAME_BYTES + at % body] = byte;
        bytes.truncate(bytes.len() - cut.min(body));
        reframe(&mut bytes);
        check_record(&bytes)?;
    }
}

/// A checkpoint record of a few dozen bytes claiming 2^24 dirty pages is
/// refused before anything is reserved; it used to reserve 256 MiB first.
#[test]
fn an_implausible_checkpoint_count_is_refused_up_front() {
    let mut bytes = record(LogPayload::CheckpointBegin {
        active_txns: Vec::new(),
        dirty_pages: Vec::new(),
    })
    .encode();
    // The last byte is the dirty-page count, a varint 0: claim 2^24.
    bytes.pop();
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x08]);
    reframe(&mut bytes);
    assert_eq!(
        LogRecord::decode(&bytes).unwrap_err(),
        DecodeError::LengthOutOfRange {
            got: 1 << 24,
            max: 0
        }
    );
}

/// A replace delta whose shared prefix and suffix alone exceed the
/// largest record a slot can hold is refused at decode, before redo
/// could try to splice it.
#[test]
fn a_replace_delta_longer_than_a_record_is_refused() {
    let bytes = record(LogPayload::Update {
        op: PageOp::ReplaceRecord {
            pos: 0,
            key: b"k".to_vec(),
            prefix: 20_000,
            suffix: 20_000,
            old: b"a".to_vec(),
            new: b"b".to_vec(),
        },
    })
    .encode();
    assert_eq!(
        LogRecord::decode(&bytes).unwrap_err(),
        DecodeError::LengthOutOfRange {
            got: 40_001,
            max: 1 << 15
        }
    );
}

/// A structure-area write whose area is not exactly the page's 32-byte
/// structure area is refused at decode: redo copies it over that area.
#[test]
fn a_structure_area_of_the_wrong_length_is_refused() {
    for len in [31, 33] {
        let bytes = record(LogPayload::Update {
            op: PageOp::WriteStructure {
                old: vec![0; 32],
                new: vec![1; len],
            },
        })
        .encode();
        assert_eq!(
            LogRecord::decode(&bytes).unwrap_err(),
            DecodeError::LengthOutOfRange { got: len, max: 32 }
        );
    }
}

/// Every truncation of a self-committing update is refused, under its
/// own framing and under framing recomputed over the shorter body: a
/// torn commit record never decodes as a commit.
#[test]
fn every_truncation_of_a_self_committing_update_is_refused() {
    let bytes = put_auto_record().encode();
    assert_eq!(LogRecord::decode(&bytes).unwrap().0, put_auto_record());
    for cut in 0..bytes.len() {
        assert!(LogRecord::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        if cut >= LogRecord::FRAME_BYTES {
            let mut short = bytes[..cut].to_vec();
            reframe(&mut short);
            assert!(LogRecord::decode(&short).is_err(), "reframed cut at {cut}");
        }
    }
}

/// A CRC-valid record with bytes after its payload is refused: the
/// payload must end where the body does.
#[test]
fn trailing_bytes_after_a_valid_payload_are_refused() {
    for sample in sample_records() {
        let mut bytes = sample.encode();
        assert_eq!(LogRecord::decode(&bytes).unwrap().0, sample);
        bytes.push(0);
        reframe(&mut bytes);
        assert!(
            LogRecord::decode(&bytes).is_err(),
            "{} accepted a trailing byte",
            sample.payload.kind_name()
        );
    }
}

/// A valid run over `records` updates spread across three pages, plus a
/// page-less full-backup notice.
fn sample_run(records: u64) -> ArchiveRun {
    let mut b = RunBuilder::new();
    for i in 0..records {
        b.push(
            Lsn(8 + i * 64),
            record(LogPayload::Update {
                op: PageOp::InsertRecord {
                    pos: i as u16,
                    bytes: vec![i as u8; 6],
                    ghost: false,
                },
            }),
        );
    }
    b.push(
        Lsn(8 + records * 64),
        LogRecord {
            page_id: PageId(u64::MAX),
            ..record(LogPayload::BackupTaken {
                backup: BackupRef::FullBackup {
                    first_slot: 0,
                    pages: 4,
                },
                page_lsn: Lsn(8),
            })
        },
    );
    b.finish(3, Lsn(8), Lsn(8 + (records + 1) * 64))
}

/// Whatever `from_bytes` makes of `bytes`, an accepted run holds no more
/// records than its bytes could encode (16 bytes each, LSN and frame),
/// and every lookup answers `Ok` or `Err`.
fn check_run(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(run) = ArchiveRun::from_bytes(bytes) else {
        return Ok(());
    };
    prop_assert!(run.page_count() * 20 <= bytes.len() as u64);
    if let Ok(all) = run.decode_all() {
        prop_assert!(all.capacity() * 16 <= bytes.len());
    }
    for page in [0u64, 1, 2, u64::MAX] {
        if let Ok(records) = run.records_for_page(PageId(page)) {
            prop_assert!(records.capacity() * 16 <= bytes.len());
        }
    }
    Ok(())
}

/// `bytes` with its trailing CRC-32C recomputed over the (mutated) body.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 4;
    let crc = crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

fn sample_image(ranges: u64) -> CheckpointImage {
    CheckpointImage {
        scan_from: Lsn(1 << 20),
        begin: Lsn((1 << 20) + 40),
        next_tx: 900,
        alloc_high_water: 4 * ranges,
        pri: (0..ranges)
            .map(|i| {
                (
                    4 * i,
                    4 * i + 1 + i % 3,
                    PriEntry {
                        backup: match i % 3 {
                            0 => BackupRef::BackupPage(PageId(i)),
                            1 => BackupRef::FormatRecord(Lsn(1000 + i)),
                            _ => BackupRef::FullBackup {
                                first_slot: 7,
                                pages: 40,
                            },
                        },
                        backup_lsn: Lsn(900 + i),
                        latest_lsn: (i % 2 == 0).then_some(Lsn(5000 + i)),
                    },
                )
            })
            .collect(),
    }
}

/// An accepted image holds no more index ranges than its bytes could
/// encode (5 bytes each, at the least).
fn check_image(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(image) = CheckpointImage::decode(bytes) {
        prop_assert!(image.pri.capacity() * 5 <= bytes.len());
        prop_assert!(image.begin >= image.scan_from);
        for w in image.pri.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "ranges overlap");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_run_and_image_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        check_run(&bytes)?;
        check_run(&reseal_if_long(bytes.clone()))?;
        check_image(&bytes)?;
        check_image(&reseal_if_long(bytes))?;
    }

    /// A valid run or image with one byte changed, or its body cut short,
    /// under a recomputed CRC: counts outrun the bytes and every tag,
    /// bound and tiling check is reached.
    #[test]
    fn mutated_runs_and_images_with_a_valid_crc_never_panic(
        size in 0u64..12,
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        for mut bytes in [sample_run(size).encode(), sample_image(size).encode()] {
            let body = bytes.len() - 4;
            if cut {
                bytes.drain(at % body..body);
            } else {
                bytes[at % body] = byte;
            }
            let bytes = reseal(bytes);
            check_run(&bytes)?;
            check_image(&bytes)?;
        }
    }
}

fn reseal_if_long(bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() >= 8 {
        reseal(bytes)
    } else {
        bytes
    }
}

/// A run of a few dozen bytes whose index claims 2^28 entries is refused
/// before anything is reserved; it used to reserve 5 GiB first.
#[test]
fn an_implausible_archive_index_count_is_refused_up_front() {
    let mut bytes = sample_run(0).encode();
    // Layout: 36-byte header + body + u32 index count + entries + CRC.
    let body_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
    let at = 36 + body_len;
    bytes[at..at + 4].copy_from_slice(&(1u32 << 28).to_le_bytes());
    let err = ArchiveRun::from_bytes(&reseal(bytes)).unwrap_err();
    assert!(err.to_string().contains("claims"), "{err}");
    let image = sample_image(3).encode();
    assert_eq!(CheckpointImage::decode(&image).unwrap(), sample_image(3));
}
