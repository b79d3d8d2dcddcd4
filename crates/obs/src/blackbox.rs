//! The crash black box: a CRC-guarded forensic snapshot persisted in
//! the database directory.
//!
//! On panic (via the hook installed by [`crate::install_panic_hook`])
//! and on clean shutdown, the engine serializes its flight-recorder
//! events, the open trace rings, and a metrics snapshot into
//! `blackbox.spfb`, written with the same tmp-write → fsync → rename →
//! dir-fsync protocol as the manifest so a crash mid-write never
//! clobbers an older, complete box. `spf-dump` (in `crates/bench`)
//! pretty-prints the postmortem.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use spf_trace::{render_flame, stitch, SpanRecord};
use spf_util::{crc32c, Decoder, Encoder, SimDuration};

use crate::recorder::{Event, EventKind, Trace};

/// The black-box file name inside a database directory.
pub const BLACKBOX_FILE: &str = "blackbox.spfb";
/// Where `Database::open` rotates a pre-existing box from a prior run.
pub const BLACKBOX_PREV_FILE: &str = "blackbox.prev.spfb";
/// Temporary name used during the create–rename–fsync write.
pub const BLACKBOX_TMP: &str = "blackbox.spfb.tmp";

const MAGIC: &[u8; 8] = b"SPFBBOX1";
const VERSION: u32 = 1;
const MAX_REASON: usize = 64 * 1024;
const MAX_METRICS: usize = 16 * 1024 * 1024;
/// Encoded size of one [`Event`]: six `u64` words and the kind byte.
const EVENT_BYTES: usize = 6 * 8 + 1;

/// Reads an entry count, refusing one the remaining bytes cannot hold:
/// the count sizes a reservation, and the file is not to be trusted
/// with more memory than it brought.
fn get_count(d: &mut Decoder<'_>, entry_bytes: usize, what: &str) -> Result<usize, String> {
    let n = d.get_u32().map_err(|e| e.to_string())? as usize;
    if n > d.remaining() / entry_bytes {
        return Err(format!("implausible {what} count {n}"));
    }
    Ok(n)
}

/// A decoded (or about-to-be-written) black box.
#[derive(Debug, Clone, Default)]
pub struct BlackBox {
    /// Why the box was written (panic message or "clean shutdown").
    pub reason: String,
    /// Flight-recorder events at capture time, in drain order.
    pub events: Vec<Event>,
    /// Trace-ring spans at capture time (the in-flight traces).
    pub spans: Vec<SpanRecord>,
    /// Full metrics snapshot as JSON.
    pub metrics_json: String,
}

impl BlackBox {
    /// Serializes the box, CRC trailer included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(
            4096 + self.events.len() * EVENT_BYTES + self.spans.len() * SpanRecord::ENCODED_LEN,
        );
        e.put_bytes(MAGIC);
        e.put_u32(VERSION);
        e.put_len_bytes(self.reason.as_bytes());
        e.put_u32(self.events.len() as u32);
        for ev in &self.events {
            e.put_u64(ev.thread);
            e.put_u64(ev.seq);
            e.put_u8(ev.kind as u8);
            e.put_u64(ev.sim.as_nanos());
            e.put_u64(ev.wall_nanos);
            e.put_u64(ev.a);
            e.put_u64(ev.b);
        }
        e.put_u32(self.spans.len() as u32);
        for sp in &self.spans {
            sp.encode(&mut e);
        }
        e.put_len_bytes(self.metrics_json.as_bytes());
        let crc = crc32c(e.as_slice());
        e.put_u32(crc);
        e.finish()
    }

    /// Decodes and CRC-verifies a box written by [`BlackBox::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err("black box truncated".into());
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        let actual = crc32c(body);
        if stored != actual {
            return Err(format!(
                "black box CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ));
        }
        let mut d = Decoder::new(body);
        let magic = d.get_bytes(MAGIC.len()).map_err(|e| e.to_string())?;
        if magic != MAGIC {
            return Err("not a black box (bad magic)".into());
        }
        let version = d.get_u32().map_err(|e| e.to_string())?;
        if version != VERSION {
            return Err(format!("unsupported black box version {version}"));
        }
        let reason =
            String::from_utf8_lossy(d.get_len_bytes(MAX_REASON).map_err(|e| e.to_string())?)
                .into_owned();
        let n_events = get_count(&mut d, EVENT_BYTES, "event")?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let thread = d.get_u64().map_err(|e| e.to_string())?;
            let seq = d.get_u64().map_err(|e| e.to_string())?;
            let code = d.get_u8().map_err(|e| e.to_string())?;
            let kind = EventKind::from_code(code)
                .ok_or_else(|| format!("unknown event kind code {code}"))?;
            events.push(Event {
                thread,
                seq,
                kind,
                sim: SimDuration::from_nanos(d.get_u64().map_err(|e| e.to_string())?),
                wall_nanos: d.get_u64().map_err(|e| e.to_string())?,
                a: d.get_u64().map_err(|e| e.to_string())?,
                b: d.get_u64().map_err(|e| e.to_string())?,
            });
        }
        let n_spans = get_count(&mut d, SpanRecord::ENCODED_LEN, "span")?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            spans.push(SpanRecord::decode(&mut d).map_err(|e| e.to_string())?);
        }
        let metrics_json =
            String::from_utf8_lossy(d.get_len_bytes(MAX_METRICS).map_err(|e| e.to_string())?)
                .into_owned();
        Ok(Self {
            reason,
            events,
            spans,
            metrics_json,
        })
    }

    /// Durably writes the box into `dir` as [`BLACKBOX_FILE`] with the
    /// create–rename–fsync protocol. Returns the final path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let tmp = dir.join(BLACKBOX_TMP);
        let path = dir.join(BLACKBOX_FILE);
        let mut file = File::create(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        OpenOptions::new().read(true).open(dir)?.sync_all()?;
        Ok(path)
    }

    /// Loads and verifies a box from a file path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::decode(&bytes)
    }

    /// Renders the full postmortem: reason, event timeline, in-flight
    /// trace trees with wait profiles, a flame rollup, and the metrics
    /// snapshot. This is what `spf-dump` prints.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== black box: {} ===", self.reason);
        let _ = writeln!(
            out,
            "{} events, {} spans, {} metric bytes",
            self.events.len(),
            self.spans.len(),
            self.metrics_json.len()
        );
        let _ = writeln!(out, "\n--- event timeline ---");
        let trace = Trace {
            events: self.events.clone(),
        };
        out.push_str(&trace.render());
        let _ = writeln!(out, "\n--- repair forensics ---");
        out.push_str(&self.render_repair_chains());
        let stitched = stitch(self.spans.clone());
        let _ = writeln!(
            out,
            "\n--- in-flight traces ({} trees, {} orphan spans) ---",
            stitched.trees.len(),
            stitched.orphans.len()
        );
        for tree in &stitched.trees {
            let profile = tree.wait_profile();
            let _ = writeln!(
                out,
                "trace {}: {} spans, {}",
                tree.trace_id,
                tree.span_count(),
                profile.render()
            );
            tree.each_node(|n| {
                let _ = writeln!(out, "  {}", n.record);
            });
        }
        let flame = render_flame(&stitched);
        if !flame.is_empty() {
            let _ = writeln!(out, "\n--- flame rollup (exclusive ns) ---");
            out.push_str(&flame);
        }
        let _ = writeln!(out, "\n--- metrics snapshot ---");
        out.push_str(&self.metrics_json);
        out.push('\n');
        out
    }

    /// Extracts the per-page detect → repair chains from the event
    /// timeline: for every page with a `FaultDetected`, the ordered
    /// detect/attempt/ok/failed/escalation events that followed it.
    #[must_use]
    pub fn render_repair_chains(&self) -> String {
        use std::fmt::Write as _;
        let mut pages: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FaultDetected)
            .map(|e| e.a)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        if pages.is_empty() {
            return "no faults recorded\n".into();
        }
        let mut out = String::new();
        for page in pages {
            let chain: Vec<String> = self
                .events
                .iter()
                .filter(|e| {
                    e.a == page
                        && matches!(
                            e.kind,
                            EventKind::FaultDetected
                                | EventKind::RepairAttempt
                                | EventKind::RepairOk
                                | EventKind::RepairFailed
                                | EventKind::Escalation
                        )
                })
                .map(|e| match e.kind {
                    EventKind::FaultDetected => {
                        format!("detected({})", crate::detector::name(e.b))
                    }
                    EventKind::Escalation => {
                        format!("escalated({})", crate::failure_class::name(e.b))
                    }
                    k => k.name().to_string(),
                })
                .collect();
            let _ = writeln!(out, "page {page}: {}", chain.join(" -> "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_trace::{SpanKind, WaitClass};

    fn sample_box() -> BlackBox {
        BlackBox {
            reason: "panic: injected".into(),
            events: vec![
                Event {
                    thread: 0,
                    seq: 0,
                    kind: EventKind::FaultDetected,
                    sim: SimDuration::from_nanos(10),
                    wall_nanos: 11,
                    a: 42,
                    b: crate::detector::CHECKSUM,
                },
                Event {
                    thread: 0,
                    seq: 1,
                    kind: EventKind::RepairOk,
                    sim: SimDuration::from_nanos(20),
                    wall_nanos: 21,
                    a: 42,
                    b: 1000,
                },
            ],
            spans: vec![SpanRecord {
                thread: 0,
                seq: 0,
                trace_id: 1,
                span_id: 1,
                parent: 0,
                kind: SpanKind::PutAuto,
                class: WaitClass::Run,
                start_nanos: 5,
                dur_nanos: 100,
                a: 0,
                link: 0,
            }],
            metrics_json: "{\"pool\":{\"hits\":3}}".into(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let b = sample_box();
        let bytes = b.encode();
        let back = BlackBox::decode(&bytes).expect("round trip");
        assert_eq!(back.reason, b.reason);
        assert_eq!(back.events, b.events);
        assert_eq!(back.spans, b.spans);
        assert_eq!(back.metrics_json, b.metrics_json);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample_box().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = BlackBox::decode(&bytes).unwrap_err();
        assert!(err.contains("CRC"), "{err}");
        assert!(BlackBox::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn lying_counts_are_refused_before_anything_is_reserved() {
        // A well-formed header claiming a million events, CRC and all,
        // in a few dozen bytes.
        let mut e = Encoder::new();
        e.put_bytes(MAGIC);
        e.put_u32(VERSION);
        e.put_len_bytes(b"");
        e.put_u32(1 << 20);
        let crc = crc32c(e.as_slice());
        e.put_u32(crc);
        let err = BlackBox::decode(&e.finish()).unwrap_err();
        assert!(err.contains("implausible event count"), "{err}");
        // An honest box reserves exactly what it holds.
        let b = BlackBox::decode(&sample_box().encode()).unwrap();
        assert_eq!((b.events.capacity(), b.spans.capacity()), (2, 1));
    }

    #[test]
    fn save_load_round_trips() {
        let dir = tempdir::TempDir::new("blackbox").unwrap();
        let b = sample_box();
        let path = b.save(dir.path()).unwrap();
        assert_eq!(path, dir.path().join(BLACKBOX_FILE));
        assert!(!dir.path().join(BLACKBOX_TMP).exists());
        let back = BlackBox::load(&path).unwrap();
        assert_eq!(back.reason, b.reason);
        assert_eq!(back.events.len(), 2);
    }

    #[test]
    fn render_includes_detect_repair_chain() {
        let text = sample_box().render();
        assert!(text.contains("black box: panic: injected"));
        assert!(text.contains("page 42: detected(checksum) -> repair_ok"));
        assert!(text.contains("fault_detected"));
        assert!(text.contains("trace 1: 1 spans"));
        assert!(text.contains("put_auto"));
        assert!(text.contains("\"pool\""));
    }
}
