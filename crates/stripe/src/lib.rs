//! Stripe and sector buffer management for the PPM workspace.
//!
//! The paper's unit of work is a *stripe*: `n` strips × `r` rows of
//! sectors, each sector a contiguous region of bytes ("while we refer to
//! the basic blocks as sectors, they may constitute multiple sectors").
//! [`Stripe`] owns one flat allocation holding all `n·r` sectors in column
//! order of the parity-check matrix (sector `l = i·n + j` at offset
//! `l · sector_bytes`), which is what the region-operation decoders in
//! `ppm-core` stream over.
//!
//! The crate also provides the workload side of the evaluation: filling
//! data sectors from a seeded RNG, erasing the sectors of a
//! [`FailureScenario`](ppm_codes::FailureScenario), and sizing stripes the
//! way the paper's figures do (total stripe bytes, e.g. 32 MB, divided
//! across the `n·r` sectors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod workload;

pub use buffer::{SpansMut, Stripe, StripeSizeError, StripeSpan, SECTOR_ALIGN};
pub use workload::{fill_random_data, random_data_stripe, random_stripe};
