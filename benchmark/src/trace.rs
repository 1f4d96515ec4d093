//! Spans recorded from the benchmark's own files, around the calls into each
//! layer. Spans stay in memory until the run ends; [`Tracer::write`] then
//! puts them in `out/trace-<workload>.json`, and the per-layer metrics are
//! derived from the same list.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; [`NONE`] for "no span" (a root's parent,
/// or anything begun while tracing is off).
pub type SpanId = u32;

/// The absent span.
pub const NONE: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `op.<kind>` / `probe.<layer>` for a root.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
    /// Calls the interval covers (a burst's encode loop covers 128), so a
    /// per-call cost is the duration divided by this.
    pub calls: u32,
}

impl Span {
    /// Nanoseconds per covered call.
    pub fn per_call_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / f64::from(self.calls.max(1))
    }
}

/// An in-memory span recorder. Switched off it records nothing and reads no
/// clock, which is what the untraced replay runs with.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Every span begun so far, in begin order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 17 } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span covering `calls` calls.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32, calls: usize) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            calls: calls as u32,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `call` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op, 1);
        let result = call();
        self.end(id);
        result
    }

    /// Per-call nanoseconds of every span called `name`, ascending. With
    /// `under`, only spans whose parent is a root of that name.
    pub fn durations(&self, name: &str, under: Option<&str>) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match under {
                None => true,
                Some(root) => self
                    .spans
                    .get(s.parent as usize)
                    .is_some_and(|p| p.name == root),
            })
            .map(Span::per_call_ns)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Writes every span as JSON: one object per span, its index as `id`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":["
        )?;
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            )?;
            match span.parent {
                NONE => out.write_all(b"null")?,
                parent => write!(out, "{parent}")?,
            }
            write!(out, ",\"op\":{},\"calls\":{}}}", span.op, span.calls)?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_an_off_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("op.publish", NONE, 7, 1);
        let got = tracer.time("wire.encode_request", root, 7, || 41 + 1);
        tracer.end(root);
        assert_eq!(got, 42);
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, root);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        assert_eq!(
            tracer
                .durations("wire.encode_request", Some("op.publish"))
                .len(),
            1
        );
        assert!(tracer
            .durations("wire.encode_request", Some("op.subscribe"))
            .is_empty());

        let mut off = Tracer::new(false);
        let id = off.begin("op.publish", NONE, 0, 1);
        off.end(id);
        assert_eq!(id, NONE);
        assert!(off.spans.is_empty());
    }
}
