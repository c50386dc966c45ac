//! Structured telemetry for the solver crates: spans, counters, histograms,
//! lock-free per-worker metrics shards, a windowed-aggregation interval spec,
//! a flight-recorder ring for postmortems, and a `Recorder` that sinks events
//! to memory or a JSONL writer.

pub mod event;
pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod shard;
pub mod span;
pub mod window;

pub use event::Event;
pub use flight::FlightRecorder;
pub use metrics::{Counter, Distribution, Gauge};
pub use recorder::{Recorder, Sink, Telemetry};
pub use shard::{
    AtomicLog2Histogram, HistogramReport, MetricsReport, MetricsShard, MetricsSnapshot,
    ShardedMetrics,
};
pub use span::{timed, Span};
pub use window::MetricsInterval;

// The shared mergeable histogram (satellite: one log2-bucket type re-exported
// by both `expkit` and `obs`).
pub use expkit::{Log2Histogram, LOG2_BUCKETS};
