//! A black box is read back by a later process from a directory a crash
//! left behind: its bytes are hostile. `BlackBox::decode` and
//! `SpanRecord::decode` must answer `Ok` or `Err` — never panic, never
//! reserve more than the input could hold.

use proptest::prelude::*;

use spf_obs::{BlackBox, Event, EventKind, SpanKind, SpanRecord};
use spf_util::{crc32c, Decoder, SimDuration};

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
