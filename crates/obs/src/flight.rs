//! Flight recorder: a bounded ring of recent raw events, dumped only on
//! failure (the simulator dumps it on the first SLO violation).
//!
//! Full tracing of a million-request run is too expensive to leave on, but
//! when something goes wrong the *recent* raw events are exactly what a
//! postmortem needs. An engine keeps a [`FlightRecorder`] of the last `N`
//! events it produced; on a trigger the ring is dumped as JSONL — a
//! `flight.dump` header line describing the trigger followed by the buffered
//! events in arrival order.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;

use crate::event::Event;

/// Bounded ring buffer of recent [`Event`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<Event>,
    /// Total events ever pushed (monotone; `seq - len` have been evicted).
    seq: u64,
    /// Events evicted to make room.
    dropped: u64,
}

impl FlightRecorder {
    /// Create a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder { cap, ring: VecDeque::with_capacity(cap), seq: 0, dropped: 0 }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
        self.seq += 1;
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted so far (total pushed minus currently buffered).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Write the ring as JSONL: a `flight.dump` header line carrying the
    /// trigger `reason` and buffer accounting, then each buffered event on
    /// its own line, oldest first. The ring is left intact.
    pub fn dump<W: Write>(&self, reason: &str, mut w: W) -> io::Result<()> {
        let header = Event::new("flight.dump")
            .with("reason", reason)
            .with("buffered", self.ring.len() as u64)
            .with("dropped", self.dropped)
            .with("capacity", self.cap as u64);
        writeln!(w, "{}", header.to_json())?;
        for ev in &self.ring {
            writeln!(w, "{}", ev.to_json())?;
        }
        w.flush()
    }

    /// [`FlightRecorder::dump`] to a freshly created file at `path`.
    pub fn dump_to_path(&self, reason: &str, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        self.dump(reason, io::BufWriter::new(std::fs::File::create(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fl = FlightRecorder::new(3);
        for k in 0..5u64 {
            fl.push(Event::new("stream.request").with("id", k));
        }
        assert_eq!(fl.len(), 3);
        assert_eq!(fl.dropped(), 2);
        let ids: Vec<String> = fl.events().map(|e| e.to_json()).collect();
        assert!(ids[0].contains("\"id\":2"));
        assert!(ids[2].contains("\"id\":4"));
    }

    #[test]
    fn dump_writes_header_then_events() {
        let mut fl = FlightRecorder::new(8);
        fl.push(Event::new("stream.request").with("id", 0u64));
        fl.push(Event::new("stream.request").with("id", 1u64));
        let mut out = Vec::new();
        fl.dump("slo_violation", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"flight.dump\""));
        assert!(lines[0].contains("\"reason\":\"slo_violation\""));
        assert!(lines[0].contains("\"buffered\":2"));
        assert!(lines[0].contains("\"dropped\":0"));
        assert!(lines[1].contains("\"id\":0"));
        assert!(lines[2].contains("\"id\":1"));
        // Ring survives a dump.
        assert_eq!(fl.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut fl = FlightRecorder::new(0);
        fl.push(Event::new("a"));
        fl.push(Event::new("b"));
        assert_eq!(fl.len(), 1);
        assert_eq!(fl.capacity(), 1);
        assert_eq!(fl.dropped(), 1);
    }
}
