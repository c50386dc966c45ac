//! The `Recorder` threads through solver hot loops, so the disabled path must
//! be as close to free as possible: `enabled()` is a single enum-discriminant
//! check and [`Recorder::emit_with`] never constructs the event when disabled.

use crate::event::Event;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// Where emitted events go.
pub enum Sink {
    /// Discard everything. `enabled()` is false, so callers skip event
    /// construction entirely.
    Noop,
    /// Keep counters/timings but discard events. `enabled()` is
    /// true — instrumented code still bumps counters (solver node counts,
    /// pivot totals) — yet no per-event memory or I/O is paid. This is the
    /// sink behind windowed metrics mode, where aggregates matter but a
    /// per-request event stream would be unbounded.
    Counters,
    /// Keep events in memory for inspection (tests, `Outcome::telemetry`).
    Memory(Vec<Event>),
    /// Stream one JSON object per line to a writer.
    Jsonl(BufWriter<Box<dyn Write + Send>>),
}

/// Collects structured events plus named counters/timings that summarize a
/// solve. Pass `&mut Recorder::noop()` (or use the untraced entry points)
/// when telemetry is not wanted.
pub struct Recorder {
    sink: Sink,
    events_emitted: u64,
    counters: BTreeMap<&'static str, u64>,
    timings: BTreeMap<&'static str, Duration>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::noop()
    }
}

impl Recorder {
    fn with_sink(sink: Sink) -> Recorder {
        Recorder { sink, events_emitted: 0, counters: BTreeMap::new(), timings: BTreeMap::new() }
    }

    pub fn noop() -> Recorder {
        Recorder::with_sink(Sink::Noop)
    }

    /// Aggregates-only recorder: counters and timings accumulate,
    /// but emitted events are discarded (see [`Sink::Counters`]).
    pub fn counters_only() -> Recorder {
        Recorder::with_sink(Sink::Counters)
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

    /// Whether emitted events are observed. Hot loops gate all telemetry
    /// work on this. True when any sink other than no-op is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.sink, Sink::Noop)
    }

    pub fn emit(&mut self, event: Event) {
        match &mut self.sink {
            Sink::Noop | Sink::Counters => return,
            Sink::Memory(buf) => buf.push(event),
            Sink::Jsonl(w) => {
                let _ = writeln!(w, "{}", event.to_json());
            }
        }
        self.events_emitted += 1;
    }

    /// Emit an event built lazily: when nothing would keep the event — a
    /// no-op or counters-only sink — the closure is never invoked, so
    /// callers can put formatting and snapshotting work inside it without
    /// paying for it when events are off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> Event>(&mut self, build: F) {
        if !matches!(self.sink, Sink::Noop | Sink::Counters) {
            self.emit(build());
        }
    }

    /// Bump a named counter (no-op when disabled).
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if self.enabled() {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Accumulate a named duration (no-op when disabled).
    #[inline]
    pub fn record_time(&mut self, name: &'static str, elapsed: Duration) {
        if self.enabled() {
            *self.timings.entry(name).or_insert(Duration::ZERO) += elapsed;
        }
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

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Sink::Jsonl(w) = &mut self.sink {
            w.flush()?;
        }
        Ok(())
    }

    /// Fold another recorder into this one: its memory-captured events are
    /// re-emitted here *in their original order*, and its counters and
    /// timings are added onto this recorder's. Callers that record into a
    /// private recorder (the simulator's per-policy threads, the stream
    /// engine's counters-only solver recorder in windowed mode) merge through
    /// this, so the result does not depend on when the merge happens. Events
    /// of a non-memory sink cannot be replayed (they were already written
    /// elsewhere); only its counters/timings are merged.
    pub fn absorb(&mut self, other: Recorder) {
        if let Sink::Memory(events) = other.sink {
            for event in events {
                self.emit(event);
            }
        }
        for (name, delta) in other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, elapsed) in other.timings {
            *self.timings.entry(name).or_insert(Duration::ZERO) += elapsed;
        }
    }

    /// Snapshot counters and timings into a portable summary.
    pub fn summary(&self) -> Telemetry {
        Telemetry {
            events_emitted: self.events_emitted,
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            timings_s: self.timings.iter().map(|(k, v)| (k.to_string(), v.as_secs_f64())).collect(),
        }
    }
}

/// Portable summary of a recorder's counters and accumulated timings,
/// attached to `relaug::solution::Outcome` and serialized by `--json` output.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Telemetry {
    pub events_emitted: u64,
    pub counters: Vec<(String, u64)>,
    pub timings_s: Vec<(String, f64)>,
}

impl Telemetry {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
    }

    pub fn timing_s(&self, name: &str) -> f64 {
        self.timings_s.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0.0)
    }

    pub fn is_empty(&self) -> bool {
        self.events_emitted == 0 && self.counters.is_empty() && self.timings_s.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rec.count("nodes", 3);
        rec.count("nodes", 4);
        rec.record_time("lp", Duration::from_millis(10));
        rec.record_time("lp", Duration::from_millis(5));
        let t = rec.summary();
        assert_eq!(t.counter("nodes"), 7);
        assert!((t.timing_s("lp") - 0.015).abs() < 1e-9);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn absorb_replays_events_and_merges_counters() {
        let mut main = Recorder::memory();
        main.emit(Event::new("before"));
        main.count("shared", 1);
        let mut worker = Recorder::memory();
        worker.emit(Event::new("w.a").with("i", 1u64));
        worker.emit(Event::new("w.b").with("i", 2u64));
        worker.count("shared", 2);
        worker.count("worker_only", 5);
        worker.record_time("solve", Duration::from_millis(4));
        main.absorb(worker);
        let kinds: Vec<&str> = main.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["before", "w.a", "w.b"], "order preserved");
        assert_eq!(main.events_emitted(), 3);
        assert_eq!(main.counter("shared"), 3);
        assert_eq!(main.counter("worker_only"), 5);
        assert!((main.summary().timing_s("solve") - 0.004).abs() < 1e-9);
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
    fn counters_only_accumulates_but_discards_events() {
        let mut rec = Recorder::counters_only();
        assert!(rec.enabled(), "instrumentation must still run");
        rec.emit(Event::new("solver.node").with("i", 1u64));
        rec.count("solver.pivots", 9);
        rec.record_time("lp", Duration::from_millis(2));
        assert_eq!(rec.events_emitted(), 0, "events are dropped");
        assert!(rec.events().is_empty());
        assert_eq!(rec.summary().counter("solver.pivots"), 9);
        assert!((rec.summary().timing_s("lp") - 0.002).abs() < 1e-9);
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
