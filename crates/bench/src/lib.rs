//! The paper's evaluation, Figures 2–11, as one `figures` binary.
//!
//! [`figures::FIGURES`] maps each name `figures list` prints to the
//! function that writes that figure (DESIGN.md §4 is the per-experiment
//! index); the rest of this library is what those functions share:
//! instance preparation, wall-clock timing, the paper's improvement
//! metric, and the §III-C execution *model* behind every column that
//! stands in for one of the paper's 4-, 6- and 8-core machines
//! (DESIGN.md §3 documents the substitution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod model;
pub mod prep;
pub mod table;

pub use args::ExpArgs;
pub use model::{
    improvement, modeled_decode_time, modeled_decode_time_chunked, throughput_mbs, SPAWN_OVERHEAD,
};
pub use prep::{
    prepare, prepare_lrc, prepare_rs, prepare_sd, prepare_sd_w, time_plan, time_plan_on, Prepared,
};
pub use table::Table;
