//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the simulator and the layer crates: name, start, end, parent and run
//! id. They stay in memory while the workload runs and are written out
//! once at the end. A recorder that is off records nothing, so the
//! untraced runs pay one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval of the benchmark's own code.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which repetition of the workload this span belongs to.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// In-memory span recorder with an explicit parent stack.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name` in run `run`.
    pub fn durations(&self, name: &str, run: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Writes every span with its self time, one JSON object a line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) > chunk [10,40) > inject [15,20); chunk [50,90).
        let spans = vec![
            span("rep", 0, 100, None),
            span("chunk", 10, 40, Some(0)),
            span("inject", 15, 20, Some(1)),
            span("chunk", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10,80) and [90,100) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_sums_to_wall() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        rec.exit(inner);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.enter("x");
        rec.exit(s);
        assert!(rec.spans().is_empty());
    }
}
