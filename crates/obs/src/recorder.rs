//! The `Recorder` threads through solver hot loops, so its disabled path must
//! be as close to free as possible: `enabled()` is a single enum-discriminant
//! check and [`Recorder::emit_with`] never constructs the event when disabled.
//! Counting does not depend on the sink: every recorder holds the registry of
//! the one metrics namespace ([`crate::metrics`]) in inline arrays, so a count
//! is an indexed add and building a recorder allocates nothing.

use crate::event::Event;
use crate::metrics::{Counter, Hist, MetricsSnapshot, COUNTERS, HISTS};
use expkit::Log2Histogram;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// Where emitted events go.
pub enum Sink {
    /// Discard every event. `enabled()` is false, so callers skip event
    /// construction entirely.
    Noop,
    /// Keep events in memory for inspection (tests, `Outcome::telemetry`).
    Memory(Vec<Event>),
    /// Stream one JSON object per line to a writer.
    Jsonl(BufWriter<Box<dyn Write + Send>>),
}

/// The metrics registry (one counter or histogram per namespace slot) plus
/// an event sink. Pass `&mut Recorder::noop()` (or use the untraced entry
/// points) when events are not wanted; counts are kept either way.
pub struct Recorder {
    sink: Sink,
    events_emitted: u64,
    counters: [u64; COUNTERS.len()],
    hists: [Log2Histogram; HISTS.len()],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::noop()
    }
}

impl Recorder {
    fn with_sink(sink: Sink) -> Recorder {
        Recorder {
            sink,
            events_emitted: 0,
            counters: [0; COUNTERS.len()],
            hists: std::array::from_fn(|_| Log2Histogram::new()),
        }
    }

    /// Counts only: every event is discarded.
    pub fn noop() -> Recorder {
        Recorder::with_sink(Sink::Noop)
    }

    /// The same as [`Recorder::noop`]: every recorder counts, and this one
    /// keeps no event.
    pub fn counters_only() -> Recorder {
        Recorder::noop()
    }

    pub fn memory() -> Recorder {
        Recorder::with_sink(Sink::Memory(Vec::new()))
    }

    /// Record JSONL to a file at `path` (truncates an existing file).
    pub fn jsonl_file(path: &Path) -> std::io::Result<Recorder> {
        let file = File::create(path)?;
        Ok(Recorder::with_sink(Sink::Jsonl(BufWriter::new(Box::new(file)))))
    }

    /// Record JSONL to an arbitrary writer (tests, stdout).
    pub fn jsonl_writer(writer: Box<dyn Write + Send>) -> Recorder {
        Recorder::with_sink(Sink::Jsonl(BufWriter::new(writer)))
    }

    /// Whether emitted events are observed. Hot loops gate all event work on
    /// this. True for every sink but the no-op one.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.sink, Sink::Noop)
    }

    pub fn emit(&mut self, event: Event) {
        match &mut self.sink {
            Sink::Noop => return,
            Sink::Memory(buf) => buf.push(event),
            Sink::Jsonl(w) => {
                let _ = writeln!(w, "{}", event.to_json());
            }
        }
        self.events_emitted += 1;
    }

    /// Emit an event built lazily: when nothing would keep the event (a
    /// no-op sink) the closure is never invoked, so callers can put
    /// formatting and snapshotting work inside it without paying for it
    /// when events are off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> Event>(&mut self, build: F) {
        if self.enabled() {
            self.emit(build());
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn count(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.0] += delta;
    }

    /// Record a duration, in nanoseconds, into a histogram.
    #[inline]
    pub fn record(&mut self, hist: Hist, elapsed: Duration) {
        self.hists[hist.0].record_duration(elapsed);
    }

    /// Events captured by a memory sink (empty for other sinks).
    pub fn events(&self) -> &[Event] {
        match &self.sink {
            Sink::Memory(buf) => buf,
            _ => &[],
        }
    }

    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// A counter's value.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.0]
    }

    /// The counter named `name`; 0 for a name outside the namespace.
    pub fn counter(&self, name: &str) -> u64 {
        COUNTERS.binary_search(&name).map_or(0, |i| self.counters[i])
    }

    /// Every counter and histogram, by name, in namespace order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: COUNTERS.iter().copied().zip(self.counters.iter().copied()).collect(),
            hists: HISTS.iter().copied().zip(self.hists.iter().cloned()).collect(),
        }
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Sink::Jsonl(w) = &mut self.sink {
            w.flush()?;
        }
        Ok(())
    }

    /// Fold another recorder into this one: its memory-captured events are
    /// re-emitted here *in their original order*, its counters are added onto
    /// this recorder's and its histograms merged into them. Callers that
    /// record into a private recorder (the simulator's per-policy threads, a
    /// windowed stream's event-less recorder) merge through this, so the
    /// result does not depend on when the merge happens. Events of a
    /// non-memory sink cannot be replayed (they were already written
    /// elsewhere); only its metrics are merged.
    pub fn absorb(&mut self, other: Recorder) {
        if let Sink::Memory(events) = other.sink {
            for event in events {
                self.emit(event);
            }
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// The nonzero counters and the non-empty histograms' totals, in name
    /// order, as a portable summary.
    pub fn summary(&self) -> Telemetry {
        Telemetry {
            events_emitted: self.events_emitted,
            counters: COUNTERS
                .iter()
                .zip(self.counters)
                .filter(|&(_, v)| v > 0)
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
            timings_s: HISTS
                .iter()
                .zip(&self.hists)
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| (name.to_string(), h.sum() as f64 / 1e9))
                .collect(),
        }
    }
}

/// Portable summary of a recorder's nonzero counters and accumulated
/// timings, attached to `relaug::solution::Outcome` and serialized by
/// `--json` output.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Telemetry {
    pub events_emitted: u64,
    pub counters: Vec<(String, u64)>,
    pub timings_s: Vec<(String, f64)>,
}

impl Telemetry {
    pub fn is_empty(&self) -> bool {
        self.events_emitted == 0 && self.counters.is_empty() && self.timings_s.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::*;

    #[test]
    fn noop_never_builds_events() {
        let mut calls = 0u32;
        let mut rec = Recorder::noop();
        for _ in 0..1000 {
            rec.emit_with(|| {
                calls += 1;
                Event::new("expensive")
            });
        }
        assert_eq!(calls, 0, "no-op recorder must not invoke the event builder");
        assert_eq!(rec.events_emitted(), 0);
        assert!(!rec.enabled());
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let mut rec = Recorder::memory();
        rec.emit(Event::new("a").with("i", 1u64));
        rec.emit_with(|| Event::new("b").with("i", 2u64));
        assert_eq!(rec.events_emitted(), 2);
        assert_eq!(rec.events()[0].kind, "a");
        assert_eq!(rec.events()[1].field("i").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn counters_and_timings_summarize() {
        let mut rec = Recorder::memory();
        rec.count(ILP_NODES, 3);
        rec.count(ILP_NODES, 4);
        rec.count(ILP_PRUNED_INFEASIBLE, 0);
        rec.record(ILP_COMPONENT_SOLVE, Duration::from_millis(10));
        rec.record(ILP_COMPONENT_SOLVE, Duration::from_millis(5));
        assert_eq!(rec.get(ILP_NODES), 7);
        // Only nonzero counters and non-empty histograms are listed.
        let t = rec.summary();
        assert_eq!(t.counters, vec![("ilp.nodes".to_string(), 7)]);
        assert_eq!(t.timings_s, vec![("ilp.component_solve".to_string(), 0.015)]);
    }

    #[test]
    fn names_outside_the_namespace_read_zero() {
        let mut rec = Recorder::noop();
        for c in 0..COUNTERS.len() {
            rec.count(Counter(c), 1);
        }
        for name in COUNTERS {
            assert_eq!(rec.counter(name), 1, "{name}");
        }
        for retired in [
            "missing",
            "matching.edges.materialized",
            "matching.passes",
            "matching.relaxations",
            "matching.rounds.fallback",
        ] {
            assert_eq!(rec.counter(retired), 0, "{retired}");
        }
    }

    #[test]
    fn absorb_replays_events_and_merges_metrics() {
        let mut main = Recorder::memory();
        main.emit(Event::new("before"));
        main.count(HEURISTIC_ROUNDS, 1);
        main.record(SOLVE_NS, Duration::from_nanos(100));
        let mut worker = Recorder::memory();
        worker.emit(Event::new("w.a").with("i", 1u64));
        worker.emit(Event::new("w.b").with("i", 2u64));
        worker.count(HEURISTIC_ROUNDS, 2);
        worker.count(GREEDY_STEPS, 5);
        worker.record(SOLVE_NS, Duration::from_nanos(3000));
        worker.record(ILP_COMPONENT_SOLVE, Duration::from_millis(4));
        main.absorb(worker);
        let kinds: Vec<&str> = main.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["before", "w.a", "w.b"], "order preserved");
        assert_eq!(main.events_emitted(), 3);
        assert_eq!(main.counter("heuristic.rounds"), 3);
        assert_eq!(main.counter("greedy.steps"), 5);
        let snap = main.snapshot();
        let solve = snap.hist("solve_ns").unwrap();
        assert_eq!((solve.count(), solve.sum()), (2, 3100));
        assert_eq!(solve.max_bound(), Some(4095), "buckets merged");
        assert_eq!(snap.hist("ilp.component_solve").unwrap().sum(), 4_000_000);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut rec = Recorder::jsonl_writer(Box::new(shared.clone()));
        rec.emit(Event::new("x").with("i", 1u64));
        rec.emit(Event::new("y").with("i", 2u64));
        rec.flush().unwrap();
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("event").is_some());
        }
    }

    #[test]
    fn counters_only_counts_and_discards_events() {
        let mut rec = Recorder::counters_only();
        assert!(!rec.enabled(), "no event is kept");
        rec.emit(Event::new("solver.node").with("i", 1u64));
        rec.count(RANDOMIZED_LP_ITERATIONS, 9);
        rec.record(RANDOMIZED_LP_SOLVE, Duration::from_millis(2));
        assert_eq!(rec.events_emitted(), 0, "events are dropped");
        assert!(rec.events().is_empty());
        assert_eq!(rec.counter("randomized.lp_iterations"), 9);
        assert_eq!(rec.summary().timings_s, vec![("randomized.lp_solve".to_string(), 0.002)]);
        // A lazily built event would be dropped, so it is never built.
        let mut calls = 0u32;
        rec.emit_with(|| {
            calls += 1;
            Event::new("solver.round")
        });
        assert_eq!(calls, 0);
    }

    #[test]
    fn telemetry_round_trips_through_json() {
        let t = Telemetry {
            events_emitted: 3,
            counters: vec![("nodes".to_string(), 12)],
            timings_s: vec![("lp".to_string(), 0.5)],
        };
        let s = serde_json::to_string(&t).unwrap();
        let back: Telemetry = serde_json::from_str(&s).unwrap();
        assert_eq!(back, t);
    }
}
