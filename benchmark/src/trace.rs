//! Benchmark-side spans: one record per call into a layer, kept in memory and
//! written as JSON lines when the run ends. Spans inside the program are a later
//! change; nothing here touches it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Shared by every span of one operation.
    op_id: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: Option<u64>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One line per span: `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"op_id":..}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                or_null(s.parent.map(|p| p.0 as u64)),
                or_null(s.op_id),
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::begin`] when there is a tracer; untraced operations pass `None`.
pub fn begin(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    op_id: Option<u64>,
) -> Option<SpanId> {
    tracer.as_mut().map(|t| t.begin(name, parent, op_id))
}

/// [`Tracer::end`] for a span that [`begin`] may or may not have opened.
pub fn end(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::default();
        let op = t.begin("op", None, Some(7));
        let call = t.begin("client.get_bytes", Some(op), Some(7));
        t.end(call);
        t.end(op);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"op\","));
        assert!(lines[0].ends_with("\"parent\":null,\"op_id\":7}"));
        assert!(
            lines[1].contains("\"name\":\"client.get_bytes\"")
                && lines[1].contains("\"parent\":0,")
        );
    }
}
