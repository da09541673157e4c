//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! call into each layer, and kept in memory until the run ends. The
//! traced run replays one request on several in-process twins (the
//! protocol twin, the service twin, the decomposed layer objects), so a
//! child span is the same work replayed one layer down: spans of one
//! request share its request id and nest *logically* through `parent`,
//! while their intervals follow each other in time. A layer's self time
//! is its span's duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request (or trial) this span belongs to.
    pub request: usize,
    /// The layer the timed call belongs to (`protocol`, `service`, ...).
    pub layer: &'static str,
    /// The call (`execute`, `decode`, `solve`, ...).
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The recorder.
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
    /// Times `f` as a span and returns its id with `f`'s result.
    pub fn span<T>(
        &mut self,
        parent: Option<usize>,
        request: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns: start,
            end_ns: end,
        });
        (id, out)
    }

    /// Opens a span that [`Tracer::close`] ends, for spans whose
    /// children are recorded while it is open.
    pub fn open(
        &mut self,
        parent: Option<usize>,
        request: usize,
        layer: &'static str,
        name: &'static str,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `layer.name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Sum of the durations of each span's direct children.
    fn child_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent] += span.us();
            }
        }
        sums
    }

    /// Self time per layer (µs), summed over the spans whose root
    /// satisfies `keep`.
    pub fn self_time_by_layer(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let child_sums = self.child_sums();
        let mut by_layer = BTreeMap::new();
        for span in &self.spans {
            if keep(self.root(span)) {
                *by_layer.entry(span.layer).or_insert(0.0) += span.us() - child_sums[span.id];
            }
        }
        by_layer
    }

    /// The root of `span`'s tree.
    pub fn root<'a>(&'a self, mut span: &'a Span) -> &'a Span {
        while let Some(parent) = span.parent {
            span = &self.spans[parent];
        }
        span
    }

    /// Coverage of the roots satisfying `keep`: the summed duration of
    /// their leaf spans (the decomposed stages) over the summed duration
    /// of the roots. `None` when no root matches.
    pub fn coverage(&self, keep: impl Fn(&Span) -> bool) -> Option<f64> {
        let mut has_children = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                has_children[parent] = true;
            }
        }
        let (mut roots, mut leaves) = (0.0, 0.0);
        for span in &self.spans {
            let root = self.root(span);
            if !keep(root) {
                continue;
            }
            if span.parent.is_none() {
                roots += span.us();
            } else if !has_children[span.id] {
                leaves += span.us();
            }
        }
        (roots > 0.0).then(|| leaves / roots)
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tlayer\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Cost of recording one span (µs), measured by recording `n` empty
    /// spans into a scratch recorder.
    pub fn record_cost_us(n: usize) -> f64 {
        let mut scratch = Tracer::default();
        scratch.spans.reserve(n);
        let started = Instant::now();
        for i in 0..n {
            scratch.span(None, i, "trace", "calibrate", || ());
        }
        started.elapsed().as_secs_f64() * 1e6 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding spans with fixed times, in µs.
    fn recorded(spans: &[(Option<usize>, &'static str, u64, u64)]) -> Tracer {
        let mut tracer = Tracer::default();
        for (id, &(parent, layer, start, end)) in spans.iter().enumerate() {
            tracer.spans.push(Span {
                id,
                parent,
                request: 0,
                layer,
                name: "call",
                start_ns: start * 1000,
                end_ns: end * 1000,
            });
        }
        tracer
    }

    #[test]
    fn self_time_and_coverage_follow_the_logical_tree() {
        // execute (400) > reinfer (300) > rhs (100) + solve (150).
        let tracer = recorded(&[
            (None, "protocol", 0, 400),
            (Some(0), "service", 400, 700),
            (Some(1), "equations", 700, 800),
            (Some(1), "context", 800, 950),
        ]);
        assert_eq!(tracer.root(&tracer.spans()[3]).id, 0);
        assert_eq!(tracer.coverage(|_| true), Some(250.0 / 400.0));
        let self_time = tracer.self_time_by_layer(|_| true);
        assert_eq!(self_time["protocol"], 100.0);
        assert_eq!(self_time["service"], 50.0);
        assert_eq!(self_time["context"], 150.0);
        assert_eq!(tracer.durations("equations", "call"), [100.0]);
        assert!(tracer.coverage(|s| s.layer == "nothing").is_none());
    }

    #[test]
    fn open_and_close_bracket_nested_spans() {
        let mut tracer = Tracer::default();
        let root = tracer.open(None, 7, "runner", "trial");
        let (child, value) = tracer.span(Some(root), 7, "sim", "run", || 42);
        tracer.close(root);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!((spans[child].parent, spans[child].request), (Some(root), 7));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[root].end_ns >= spans[child].end_ns);
    }
}
