//! Experiment harness for reproducing the PPM paper's evaluation.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper (see
//! DESIGN.md's per-experiment index); this library holds the shared
//! machinery: instance preparation, wall-clock timing, the paper's
//! improvement metric, and the multi-core *simulation* used where the
//! evaluation container's single CPU core cannot express thread scaling
//! (DESIGN.md §3 documents the substitution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod model;
pub mod prep;
pub mod report;
pub mod table;

pub use args::ExpArgs;
pub use model::{improvement, modeled_decode_time, modeled_decode_time_chunked, throughput_mbs};
pub use prep::{
    ledger_plan, prepare_hitchhiker, prepare_lrc, prepare_product, prepare_rs, prepare_sd,
    prepare_sd_w, time_plan, Prepared,
};
pub use report::{bench_dir, git_sha, write_bench_json, BENCH_SCHEMA_VERSION};
pub use table::Table;
