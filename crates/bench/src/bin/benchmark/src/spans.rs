//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start, end, the span that
//! caused it, and the id shared by every span of one operation (a request,
//! a question, a figure). Spans stay in memory while the benchmark runs and
//! are written out as JSON lines once it ends. A span's *self time* is its
//! duration minus the part of that interval its child spans cover, so the
//! per-layer numbers add up without counting a nested call twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Operation id shared by all spans of one request or question.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::end`].
    pub fn start(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as a leaf span under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Add a span measured elsewhere (e.g. a child process's wall time).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently recorded span, nanoseconds.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Self time of every span, index-aligned with [`Self::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per span name: (total self time in ns, number of spans).
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(span.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        out
    }

    /// Mean self time of the spans named `name`, in microseconds; 0 when
    /// the run never entered that layer.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_by_name().get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Write one JSON object per span: name, trace, parent, start/end and
    /// self time in microseconds since the recorder's epoch.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.trace,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// Duration of each span minus the union of its children's intervals,
/// clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns, not 50.
            span("parse", Some(0), 10, 30),
            span("decode", Some(0), 20, 50),
            // A child running past its parent is clipped at 100.
            span("write", Some(0), 90, 120),
            // A grandchild counts against its own parent only.
            span("inner", Some(2), 25, 45),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 30, 20]);
    }

    #[test]
    fn recorder_aggregates_by_name() {
        let mut rec = Recorder::default();
        let root = rec.push(span("op", None, 0, 1_000));
        rec.push(span("layer", Some(root), 0, 400));
        rec.push(span("layer", Some(root), 500, 700));
        let by_name = rec.self_by_name();
        assert_eq!(by_name["op"], (400, 1));
        assert_eq!(by_name["layer"], (600, 2));
        assert_eq!(rec.mean_self_us("layer"), 0.3);
        assert_eq!(rec.mean_self_us("absent"), 0.0);
    }
}
