//! Structured telemetry for the solver crates: a `Recorder` that sinks
//! events to memory or a JSONL writer and holds the registry of the one
//! metrics namespace (the stream engine's and the solvers' counters and
//! log2 histograms), a windowed-aggregation interval spec, and a
//! flight-recorder ring for postmortems.

pub mod event;
pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod window;

pub use event::Event;
pub use flight::FlightRecorder;
pub use metrics::{Counter, Hist, HistogramReport, MetricsReport, MetricsSnapshot};
pub use recorder::{Recorder, Sink, Telemetry};
pub use window::MetricsInterval;

// The shared mergeable histogram (one log2-bucket type re-exported by both
// `expkit` and `obs`).
pub use expkit::{Log2Histogram, LOG2_BUCKETS};
