//! The Partitioned and Parallel Matrix (PPM) algorithm — the primary
//! contribution of Li et al. (ICPP 2015) — together with the traditional
//! parity-check-matrix encoder/decoder it is measured against.
//!
//! # The pipeline
//!
//! Given any linear erasure code's parity-check matrix `H` and a
//! [`FailureScenario`](ppm_codes::FailureScenario), decoding proceeds:
//!
//! 1. [`LogTable`] — per row `i` of `H`, record `tᵢ` (how many of the
//!    row's non-zero coefficients fall on faulty columns) and `lᵢ` (which
//!    columns those are). *(paper §III-A, Figure 3 "Log table")*
//! 2. [`Partition`] — group rows with identical `(tᵢ, lᵢ)`; a group of
//!    exactly `tᵢ` solvable rows becomes an *independent sub-matrix* that
//!    recovers its faulty blocks from surviving blocks alone; everything
//!    else forms the *remaining sub-matrix* `H_rest`.
//! 3. [`DecodePlan`] — per sub-matrix, pick a calculation sequence
//!    (*normal*: `F⁻¹·(S·BS)`; *matrix-first*: `(F⁻¹·S)·BS`) minimizing
//!    the mult_XORs count, using the [`cost`] model `C₁..C₄`.
//! 4. [`Decoder`] — execute the plan's compiled [`PlanTape`]: the `p`
//!    independent segments recover their blocks, which then join the
//!    surviving blocks to decode `H_rest`. Where the paper runs the `p`
//!    segments on `T ≤ p` threads and `H_rest` on one, the decoder cuts
//!    long sectors into 4 KiB spans and runs the whole tape on each span
//!    across its `T` threads.
//!
//! The traditional baseline ([`Strategy::TraditionalNormal`] /
//! [`Strategy::TraditionalMatrixFirst`]) runs the same machinery without
//! partitioning: one sub-matrix, one thread.
//!
//! Encoding is "a special case of the decoding process" (paper §II-B,
//! footnote 1): treat every parity sector as faulty and decode —
//! see [`encode`].
//!
//! # Example
//!
//! ```
//! use ppm_codes::{ErasureCode, FailureScenario, SdCode};
//! use ppm_core::{encode, parity_consistent, Decoder, DecoderConfig, Strategy};
//! use ppm_stripe::random_data_stripe;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // The paper's running example: SD^{1,1}_{4,4}(8|1,2).
//! let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut stripe = random_data_stripe(&code, 4096, &mut rng);
//!
//! let decoder = Decoder::new(DecoderConfig::default());
//! encode(&code, &decoder, &mut stripe).unwrap();
//! assert!(parity_consistent(&code.parity_check_matrix(), &stripe, Default::default()));
//!
//! // Figure 2/3's failure scenario: b2, b6, b10, b13, b14.
//! let pristine = stripe.clone();
//! let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
//! stripe.erase(&scenario);
//! let plan = decoder
//!     .plan(&code.parity_check_matrix(), &scenario, Strategy::PpmAuto)
//!     .unwrap();
//! assert_eq!(plan.parallelism(), 3); // b2, b6, b10 are independent
//! decoder.decode(&plan, &mut stripe).unwrap();
//! assert_eq!(stripe, pristine);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

mod arena;
mod cache;
pub mod cost;
mod error;
mod exec;
mod executor;
mod logtable;
mod par;
mod partition;
mod plan;
mod planner;
mod service;
mod stats;
mod tape;
mod update;
mod wire;

pub use arena::{ArenaStats, ScratchArena};
pub use cache::{PlanCache, PlanCacheStats, PlanKey};
pub use error::{DecodeError, RepairError};
pub use exec::{encode, parity_consistent, Decoder, DecoderConfig, VerifyReport};
pub use executor::{Executor, WirePartials};
pub use logtable::{LogTable, LogTableRow};
pub use par::par_map;
pub use partition::{ParallelismCase, Partition, SubSystem};
pub use plan::{CalcSequence, DecodePlan, Strategy};
pub use planner::Planner;
pub use service::{BatchReport, RepairService};
pub use stats::{ExecStats, SubPlanStats, UpdateStats, VerifyStats};
pub use tape::PlanTape;
pub use update::UpdatePlan;
pub use wire::{ExecutableWirePlan, WireError, WirePlan, WIRE_VERSION};
