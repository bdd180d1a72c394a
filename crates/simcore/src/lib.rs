//! # simcore — discrete-event simulation core
//!
//! The foundation every other crate in this workspace builds on:
//!
//! * [`SimTime`] — NaN-free virtual time in seconds,
//! * [`EventQueue`] — deterministic time-ordered event queue with FIFO
//!   tie-breaking and one re-armable alarm,
//! * [`GenSlab`] — a generation-stamped slot arena (hash-free hot-path id
//!   maps),
//! * [`stream_rng`] / [`Noise`] — reproducible per-stream randomness,
//! * [`StepSeries`] — step-function time series for bandwidth plots,
//! * [`stats`] — small numeric helpers for reports.
//!
//! The engine is intentionally minimal: world state lives in the crates that
//! own it (`pfsim`, `mpisim`, `clustersim`); `simcore` only guarantees that
//! events fire in a total, reproducible order.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Typed errors, stall diagnostics and the internal-invariant helper.
pub mod error;
/// Seeded fault plans replayed by the runtime crates (fault injection).
pub mod fault;
mod queue;
mod rng;
mod series;
mod slab;
/// Numeric helpers (mean, percentiles, percentage splits).
pub mod stats;
mod time;

pub use error::{Invariant, SimError, SimResult, StallSnapshot};
pub use fault::{
    CancelSpec, ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorKind, IoErrorModel,
    RetryPolicy, StragglerSpec,
};
pub use queue::EventQueue;
pub use rng::{rank_phase_stream, stream_rng, Noise};
pub use series::StepSeries;
pub use slab::{GenKey, GenSlab};
pub use time::SimTime;
