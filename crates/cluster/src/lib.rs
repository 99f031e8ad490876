//! Coordinator/worker repair over a sharded stripe archive: *plans
//! travel, data stays put*.
//!
//! The paper's PPM pipeline compiles a failure scenario into a two-phase
//! plan: phase A recovers sectors from independent sub-matrices using
//! only locally surviving sectors, and phase B (`H_rest`) combines
//! partial sums. In a distributed archive that structure maps directly
//! onto the network: a coordinator holds the `Planner` half of
//! [`RepairService`](ppm_core::RepairService) and ships each failure
//! scenario's [`WirePlan`](ppm_core::WirePlan) — a few hundred bytes —
//! to the worker that owns the damaged stripe. The worker's
//! [`Executor`](ppm_core::Executor) runs phase A in place and, when
//! `H_rest` is splittable, sends back only the partial-sum `T` blocks
//! (`z_b` sector-sized blocks) instead of the `n − z` surviving sectors
//! a naive repair would move. The coordinator finishes `F⁻¹ · T` and
//! sends the `z_b` recovered sectors down.
//!
//! Per repaired stripe with `n` sectors, `z` erasures, `z_b` of them in
//! `H_rest`, and `s`-byte sectors, the payload bound is
//! `2·z_b·s` (up plus down) for partial-block repair versus
//! `(n − z + z)·s = n·s` for ship-everything — strictly fewer bytes
//! whenever `2·z_b < n`, which holds for every geometry the paper
//! studies (`z_b ≤ z ≤ fault tolerance ≪ n`).
//!
//! The crate layers, bottom up:
//!
//! - `frame`: length-prefixed byte frames over `io::Read`/`io::Write`,
//!   and the v2 integrity envelope (slice-by-16 CRC32, wrap-safe
//!   sequence numbers).
//! - [`Transport`]: how frames move — in-process channels
//!   ([`channel_pair`]) today, TCP-ready streams ([`StreamTransport`])
//!   with the same trait.
//! - [`CoordinatorRequest`] / [`WorkerResponse`]: the hand-rolled wire
//!   protocol (no external serialization crates).
//! - [`Worker`]: owns a shard of stripes, caches compiled plans by
//!   [`PlanKey`](ppm_core::PlanKey) string, answers requests.
//! - [`Coordinator`]: owns the links to the workers and drives
//!   [`RepairJob`]s over them, every link on its own thread — plan
//!   shipping, supervised exchanges, phase B, and failover of a dead
//!   worker's stripes once the parallel phase is over.
//! - [`run_sim`]: the harness around a `Coordinator` — materialises a
//!   simulated archive's damaged stripes (each byte once), shards them
//!   over N worker threads, and compares the repair bit-for-bit against
//!   a single-node [`RepairService`](ppm_core::RepairService).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod chaos;
mod coordinator;
mod error;
mod frame;
mod message;
mod sim;
mod transport;
mod worker;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosTransport, InjectedFaults};
pub use coordinator::{
    ChaosStats, Coordinator, Home, RepairJob, RepairMode, RepairOutcome, RepairTally, RetryPolicy,
    Traffic,
};
pub use error::ClusterError;
pub use frame::{
    crc32, read_frame, seal_v2, unseal, write_frame, FrameError, Unsealed, FRAME_V2_MAGIC,
    FRAME_VERSION, MAX_FRAME, V2_HEADER,
};
pub use message::{CoordinatorRequest, WorkerResponse};
pub use sim::{run_sim, SimConfig, SimReport};
pub use transport::{channel_pair, ChannelTransport, StreamTransport, Transport};
pub use worker::{Worker, WorkerFrameStats};

pub use ppm_faults::ChaosRates;
