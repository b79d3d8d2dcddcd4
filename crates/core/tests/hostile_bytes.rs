//! A black box, or a log record, is read back by a later process from a
//! directory a crash left behind: its bytes are hostile.
//! `BlackBox::decode`, `SpanRecord::decode` and `LogRecord::decode` must
//! answer `Ok` or `Err` — never panic, never reserve more than the input
//! could hold.

use proptest::prelude::*;

use spf_obs::{BlackBox, Event, EventKind, SpanKind, SpanRecord};
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
/// reservation, plus a fixed-size one and a page image.
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
    ]
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
/// more than its bytes could encode: 16 per checkpoint-table entry, 2 per
/// range record.
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
            prop_assert!((active_txns.capacity() + dirty_pages.capacity()) * 16 <= len);
            return Ok(());
        }
        LogPayload::Update { op } | LogPayload::Clr { op, .. } => op,
        _ => return Ok(()),
    };
    if let PageOp::InsertRange { records, .. } | PageOp::RemoveRange { records, .. } = op {
        prop_assert!(records.capacity() * 2 <= len);
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
        which in 0usize..5,
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
