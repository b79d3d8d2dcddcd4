//! Spans recorded from outside the engine, around the calls into each
//! layer's public functions. Kept in a preallocated vector and written
//! out as JSON lines when the run ends; spans inside the engine are a
//! later issue.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The operation this span belongs to; spans of one operation share it.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(4),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            op_id,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> std::time::Duration {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
        std::time::Duration::from_nanos(self.spans[index].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations in ns of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per line: name, start_ns, end_ns, self_ns, op_id, parent.
    pub fn write_json_lines(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"op_id\":{},\"parent\":{}}}",
                span.name, span.start_ns, span.end_ns, own, span.op_id, parent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_like(tracer: &mut Tracer, op_id: u64) {
        tracer.enter("op.put", op_id);
        for child in ["txn.begin", "core.put", "txn.commit"] {
            tracer.enter(child, op_id);
            std::hint::black_box((0..200).sum::<u64>());
            tracer.exit();
        }
        tracer.exit();
    }

    #[test]
    fn children_nest_under_the_open_span_and_siblings_do_not() {
        let mut tracer = Tracer::with_capacity(16);
        put_like(&mut tracer, 0);
        tracer.enter("op.get", 1);
        tracer.exit();
        let parents: Vec<_> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(0), None]);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let root = &tracer.spans()[0];
        assert!(tracer.spans()[1..4]
            .iter()
            .all(|c| c.start_ns >= root.start_ns && c.end_ns <= root.end_ns && c.op_id == 0));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::with_capacity(8);
        put_like(&mut tracer, 0);
        let own = tracer.self_times_ns();
        let children: u64 = tracer.spans()[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(own[0] + children, tracer.spans()[0].duration_ns());
        // Leaves keep their whole duration.
        assert_eq!(own[1], tracer.spans()[1].duration_ns());
        assert_eq!(tracer.durations_of("txn.commit").len(), 1);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let mut tracer = Tracer::with_capacity(8);
        put_like(&mut tracer, 42);
        let mut out = Vec::new();
        tracer.write_json_lines(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"name\":\"op.put\",\"start_ns\":"));
        assert!(first.ends_with("\"op_id\":42,\"parent\":null}"));
        assert!(text.lines().nth(3).unwrap().ends_with("\"parent\":0}"));
    }
}
