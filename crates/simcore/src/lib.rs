//! # e3-simcore
//!
//! Deterministic discrete-event simulation substrate used by every other
//! crate in the E3 reproduction.
//!
//! The paper evaluates E3 on a 46-GPU physical cluster; this workspace
//! replaces the physical testbed with a simulator. Everything that makes the
//! simulation trustworthy lives here:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   there is no floating-point drift in event ordering.
//! * [`EventQueue`] — a stable priority queue of timestamped events: a
//!   binary heap ordered by `(time, insertion order)`, so ties break FIFO
//!   and every run pops its events in one deterministic order.
//! * [`SeedSplitter`] — reproducible per-component RNG derivation from one
//!   experiment seed.
//! * [`metrics`] — histograms with exact quantiles, counters, time series,
//!   and busy-time utilization tracking.
//! * [`stats`] / [`linalg`] — the numeric toolbox (summary statistics,
//!   least squares) that the ARIMA profiler builds on.
//!
//! The simulation is single-threaded on purpose: determinism is a feature.
//! Every experiment in the paper-reproduction benches is reproducible
//! bit-for-bit from its seed.

pub mod event;
pub mod linalg;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod streaming;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::SeedSplitter;
pub use streaming::{P2Quantile, StreamingMoments};
pub use time::{SimDuration, SimTime};
