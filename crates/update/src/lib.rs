//! **ppm-update** — the trace-driven small-write engine of the PPM
//! workspace.
//!
//! Erasure-coded storage is dominated by small writes, and the update
//! cost of one data sector is exactly where asymmetric parity pays off:
//! an LRC write patches its one local parity plus the `g` globals while
//! RS touches all `m` parities. This crate turns the session's one-shot
//! [`RepairService::apply_update`](ppm_core::RepairService::apply_update)
//! into a buffered write path:
//!
//! * [`RangeSet`] — coalescing dirty byte-ranges per stripe (merge
//!   adjacent/overlapping writes before any parity math);
//! * [`DirtyBuffer`] — a bounded buffer of pending deltas with
//!   pluggable [`EvictionPolicy`]s (LRU, most-modified-block,
//!   most-modified-stripe);
//! * [`UpdateEngine`] — the flush engine, choosing per flush between
//!   delta-parity patching and full-stripe re-encode by the paper's
//!   §III-B cost model, settling through a shared
//!   [`RepairService`](ppm_core::RepairService) on `&self` with
//!   arena-recycled buffers and per-flush
//!   [`ExecStats`](ppm_core::ExecStats);
//! * [`trace`] — a CSV/JSONL trace format (`offset,len[,timestamp]`)
//!   plus seeded Zipf / sequential / uniform generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod buffer;
mod engine;
mod range_set;
pub mod trace;

pub use buffer::{DirtyBuffer, EvictionPolicy, PendingStripe};
pub use engine::{
    AddressMap, EngineConfig, EngineStats, FlushMode, FlushReport, UpdateEngine, UpdateError,
};
pub use range_set::RangeSet;
pub use trace::{parse_trace, synthesize, SynthKind, TraceError, TraceOp};
