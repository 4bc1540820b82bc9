//! In-memory span recording for the traced runs.
//!
//! The benchmark wraps its own calls into each layer in spans (name, start,
//! end, parent, request id). Spans stay in memory until the run ends and
//! are then written out as CSV. A span's self time is its duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Appends another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Total duration per span name.
    pub fn durations(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(Duration::ZERO) += s.end - s.start;
        }
        out
    }

    /// Writes every span as `id,parent,request,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id,parent,request,name,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 1, |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let total = t.durations();
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own["inner"], total["inner"]);
        assert_eq!(own["outer"] + own["inner"], total["outer"]);
        assert!(own["inner"] >= Duration::from_millis(5));
    }
}
