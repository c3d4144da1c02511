//! In-memory spans of the traced run, written out at exit as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval of the traced run.
pub struct Span {
    /// Display name, e.g. `cell GCN/NVR/large/natural/FP16/2025`.
    pub name: String,
    /// Layer the span belongs to (`sim`, `workloads`, `npu`, `prefetch`).
    pub cat: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the grid cell the span belongs to, if any.
    pub cell: Option<usize>,
    /// Extra numeric fields shown in the viewer.
    pub args: Vec<(&'static str, f64)>,
}

/// The spans of a whole benchmark run, in the order they were opened.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records `span` and returns its index, for use as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of span `span`, opened before its children.
    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end = end;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace as Chrome trace-event JSON; `context` becomes the
    /// file's `otherData` header.
    pub fn to_chrome_json(&self, context: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in context.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{}", quote(k), quote(v));
        }
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = s.start.duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = s.end.duration_since(s.start).as_secs_f64() * 1e6;
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"span\":{i}",
                quote(&s.name),
                quote(s.cat),
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(c) = s.cell {
                let _ = write!(out, ",\"cell\":{c}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",{}:{v}", quote(k));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
