//! In-memory spans and counters for the traced run. Spans are recorded
//! by the benchmark around its calls into each layer, held in memory,
//! and written out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one op share `op`; `parent` is 0 for a root.
#[derive(Clone, Debug)]
struct Span {
    /// The op this span belongs to.
    op: u32,
    /// Unique id within the run (1-based).
    id: u32,
    /// Enclosing span, 0 for a root.
    parent: u32,
    /// Layer-qualified name, e.g. `blas.functional`.
    name: &'static str,
    /// Start, seconds since the tracer was created.
    t0_s: f64,
    /// Duration in seconds.
    dur_s: f64,
}

/// Span and counter recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Starts the next op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            t0_s: self.epoch.elapsed().as_secs_f64(),
            dur_s: 0.0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let span = &mut self.spans[id as usize - 1];
        span.dur_s = self.epoch.elapsed().as_secs_f64() - span.t0_s;
        out
    }

    /// Adds `v` to a named counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_default() += v;
    }

    /// A counter's total (0 if never touched).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Duration of the most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.spans.iter().rev().find(|s| s.name == name).map(|s| s.dur_s)
    }

    /// `(count, total seconds)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| (n + 1, t + s.dur_s))
    }

    /// Mean duration of the spans named `name`; 0 when there are none.
    pub fn mean(&self, name: &str) -> f64 {
        let (n, t) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// Self time of each span: its duration minus the part its child
    /// spans cover (children run on the caller's thread, so they never
    /// overlap each other).
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.dur_s).collect();
        for s in &self.spans {
            if s.parent != 0 {
                out[s.parent as usize - 1] -= s.dur_s;
            }
        }
        out
    }

    /// Writes every span as one JSON line (times in microseconds).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                w,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"t0_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.op,
                s.id,
                s.parent,
                s.name,
                s.t0_s * 1e6,
                s.dur_s * 1e6,
                own * 1e6
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::default();
        tr.next_op();
        tr.span("op", |tr| {
            tr.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("b", |_| ());
        });
        let own = tr.self_times();
        let (_, op) = tr.total("op");
        let (_, a) = tr.total("a");
        let (_, b) = tr.total("b");
        assert_eq!(own[0], op - a - b);
        assert_eq!(own[1], a);
        assert!(own[0] >= 0.0);
    }
}
