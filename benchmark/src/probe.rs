//! Host-time spans recorded around the benchmark's own calls into each
//! layer of the program.
//!
//! A span has a name (`<layer>.<call>`), an id shared by the spans of one
//! operation, a parent, and host start/end times. Spans stay in memory
//! while the workload runs; [`Probe::write_jsonl`] writes them out at the
//! end with each span's self time (its duration minus the time its
//! children cover). A probe that is off records nothing and costs one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.run_until`.
    pub name: &'static str,
    /// Operation id: an arrival index, a command index, an iteration.
    pub id: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Host nanoseconds since the probe was created.
    pub start_ns: u64,
    /// Host nanoseconds since the probe was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    windows: Vec<(u64, u64)>,
}

impl Probe {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Is the recorder taking spans?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        let me = self.spans.len() - 1;
        self.spans[me].parent = self.open.iter().rev().nth(1).copied();
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Marks the start of a timed phase; pair with [`Probe::close_window`].
    pub fn open_window(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.windows.push((t, t));
        }
    }

    /// Marks the end of the timed phase opened last.
    pub fn close_window(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.windows.last_mut().expect("close without open").1 = t;
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    /// Children of one parent run one after another on the driving
    /// thread, so their durations never overlap.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns() as i64 - c as i64)
            .collect()
    }

    /// Host microseconds of every span with this name, in order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total self time per layer (the name up to its first `.`), in ms.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Share of the timed phases that root spans cover.
    pub fn root_coverage(&self) -> f64 {
        let total: u64 = self.windows.iter().map(|(a, b)| b - a).sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .filter(|s| {
                self.windows
                    .iter()
                    .any(|(a, b)| s.start_ns >= *a && s.end_ns <= *b)
            })
            .map(Span::dur_ns)
            .sum();
        covered as f64 / total as f64
    }

    /// Renders every span as one JSON object per line.
    pub fn write_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_nonnegative_self_time() {
        let mut p = Probe::new(true);
        p.open_window();
        p.begin("bench.op", 7);
        p.time("core.a", 7, || std::hint::black_box(1 + 1));
        p.time("core.b", 7, || ());
        p.end();
        p.close_window();
        let s = p.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(p.self_ns().iter().all(|ns| *ns >= 0));
        assert!(p.root_coverage() > 0.0);
        assert_eq!(p.write_jsonl().lines().count(), 3);
    }

    #[test]
    fn an_off_probe_records_nothing() {
        let mut p = Probe::new(false);
        p.time("core.a", 1, || ());
        assert!(p.spans().is_empty());
    }
}
