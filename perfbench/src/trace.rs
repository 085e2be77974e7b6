//! Spans recorded around calls into the program's layers, kept in memory
//! and written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, with the layer named after its crate.
    pub name: &'static str,
    /// The job the call served.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on the benchmark's own thread. Disabled, it only
/// calls the wrapped closure, so untraced runs pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `call` inside a span named `name` for `job`, nested in the
    /// innermost span still open.
    pub fn span<T>(&self, name: &'static str, job: u64, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let start = self.origin.elapsed();
            spans.push(Span {
                name,
                job,
                parent: self.open.borrow().last().copied(),
                start,
                end: start,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = call();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.origin.elapsed();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Grandchildren are already inside
/// their parent, so they are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start.max(outer.start);
            let end = span.end.min(outer.end);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = Duration::ZERO;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(union)
        })
        .collect()
}

/// Summed duration of the spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .sum()
}

/// Summed self time of the spans named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], self_times: &[Duration], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t.as_secs_f64() * 1e3)
        .sum()
}

/// Write the spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
            span.name,
            span.job,
            span.start.as_micros(),
            span.end.as_micros()
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", None, 0, 100),
            span("graph", Some(0), 10, 90),
            span("fold", Some(1), 20, 50),
            span("fold", Some(1), 50, 60),
            span("replay", Some(1), 70, 80),
            // A grandchild inside `replay` must not reduce `graph` again.
            span("inner", Some(4), 72, 78),
        ];
        let own = self_times(&spans);
        let ms = |d: Duration| d.as_millis();
        assert_eq!(ms(own[0]), 20);
        assert_eq!(ms(own[1]), 80 - 30 - 10 - 10);
        assert_eq!(ms(own[2]), 30);
        assert_eq!(ms(own[4]), 4);
        assert_eq!(ms(own[5]), 6);
        assert_eq!(self_ms(&spans, &own, "fold"), 40.0);
        assert_eq!(total_ms(&spans, "fold"), 40.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("outer", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            // Sticks out past the parent: only the covered part counts.
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], Duration::from_millis(100 - 50 - 10));
    }

    #[test]
    fn tracer_nests_spans_and_stays_silent_when_disabled() {
        let tracer = Tracer::new(true);
        let value = tracer.span("job", 7, || tracer.span("plan", 7, || 42));
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let off = Tracer::new(false);
        assert_eq!(off.span("job", 1, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
