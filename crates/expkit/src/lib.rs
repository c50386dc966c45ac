//! Experiment toolkit shared by the figure-regeneration harness and the
//! benches: summary statistics with confidence intervals, histograms,
//! markdown table rendering, deterministic per-trial seed derivation,
//! and the process's peak resident memory.

pub mod histogram;
pub mod mem;
pub mod seed;
pub mod stats;
pub mod table;

pub use histogram::{percentile, Histogram, Log2Histogram, LOG2_BUCKETS};
pub use mem::{peak_rss_bytes, peak_rss_human};
pub use seed::fan_out;
pub use stats::{Accumulator, Summary};
pub use table::Table;
