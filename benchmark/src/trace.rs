//! In-memory spans recorded around calls into each layer's public API,
//! written as NDJSON when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover; children may nest or overlap (the serve
//! workload's concurrent jobs do), so the covered part is the length of
//! the union of the children's intervals.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `attacks.step` or `oracle.query`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload instance the span belongs to.
    pub instance: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Length of `span` minus the union of the `children` intervals clipped
/// to it.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// Records spans for one run. Single-threaded: concurrent work records
/// its timestamps itself and hands them to [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    instance: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            instance: Cell::new(0),
        }
    }

    /// Tags the spans recorded from now on with this instance id.
    pub fn set_instance(&self, instance: u32) {
        self.instance.set(instance);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent: open.last().copied(),
                instance: self.instance.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.ns(Instant::now());
        self.spans.borrow_mut()[index].end_ns = end;
        self.open.borrow_mut().pop();
        out
    }

    /// Records a span measured elsewhere; returns its index for use as a
    /// parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            instance: self.instance.get(),
        });
        spans.len() - 1
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Self time in seconds of every span, by index.
    fn self_times_s(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time_ns((s.start_ns, s.end_ns), c) as f64 * 1e-9)
            .collect()
    }

    /// Summed self time in seconds of the spans named `name`.
    pub fn self_total_s(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        self.self_times_s()
            .into_iter()
            .zip(spans.iter())
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Share of the root spans named `root` covered by the self time of
    /// their descendants: how much of an instance's wall time the traced
    /// layer calls account for.
    pub fn coverage(&self, root: &str) -> f64 {
        let total = self.total_s(root);
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.self_total_s(root) / total
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"instance\": {}}}",
                s.name, s.start_ns, s.end_ns, s.instance
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_nested_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 60)]), 60);
        // A grandchild lies inside its parent child; only direct
        // children are passed, so nesting never double-subtracts.
        assert_eq!(self_time_ns((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent children overlapping on [30, 40].
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 70)]), 40);
        // One child inside another.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // Unsorted input, a child sticking out of the span, an empty one.
        assert_eq!(
            self_time_ns((50, 150), &[(140, 200), (0, 60), (70, 70)]),
            80
        );
    }

    #[test]
    fn tracer_nests_spans_and_reports_self_time() {
        let tracer = Tracer::new();
        tracer.set_instance(7);
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(10));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.instance == 7));
        let inner = tracer.total_s("inner");
        let outer = tracer.total_s("outer");
        assert!(inner >= 0.02 && outer >= inner + 0.01);
        let outer_self = tracer.self_total_s("outer");
        assert!((outer_self - (outer - inner)).abs() < 1e-9);
        assert!((tracer.coverage("outer") - inner / outer).abs() < 1e-9);
    }
}
