//! **ppm** — a Rust implementation of the Partitioned and Parallel Matrix
//! (PPM) algorithm for accelerating the encoding/decoding of asymmetric
//! parity erasure codes (SD, PMDS, LRC), reproducing Li et al., ICPP 2015.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`gf`] — GF(2^8/16/32) arithmetic and SIMD `mult_XORs` region ops,
//! * [`matrix`] — dense matrix algebra over those fields,
//! * [`codes`] — SD / PMDS / LRC / RS / product / Hitchhiker-XOR
//!   parity-check constructions and failure scenarios, including
//!   correlated row-burst and disk-group (rack) generators,
//! * [`stripe`] — sector buffers and workload generation,
//! * [`core`] — the PPM algorithm (log table, partition, cost model
//!   `C₁..C₄`, bounded-thread parallel decode), the traditional
//!   baseline, and the verified-repair pipeline (surplus-row parity
//!   checks with erasure escalation),
//! * [`faults`] — deterministic seeded fault injection for exercising
//!   that pipeline,
//! * [`update`] — the trace-driven small-write path: coalescing dirty
//!   ranges, a bounded eviction buffer, and a flush engine that picks
//!   delta-parity patching or full re-encode per flush by the §III-B
//!   cost model,
//! * [`cluster`] — coordinator/worker repair over a simulated sharded
//!   archive: serializable [`WirePlan`]s travel to the data, workers
//!   run phase A locally, and only partial-sum blocks cross the wire.
//!
//! The most common items are re-exported at the crate root; start with
//! [`Decoder`] and an erasure code from [`codes`].
//!
//! # Quickstart
//!
//! ```
//! use ppm::{encode, Decoder, DecoderConfig, ErasureCode, FailureScenario, SdCode, Strategy};
//! use ppm::stripe::random_data_stripe;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // An SD code over GF(2^8): 6 disks x 8 rows, 2 parity disks, 2 sector
//! // parities, with coefficients found by search.
//! let code = SdCode::<u8>::search(6, 8, 2, 2, 42, 4).unwrap();
//! let decoder = Decoder::new(DecoderConfig::default());
//!
//! // Encode a random stripe.
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut stripe = random_data_stripe(&code, 4096, &mut rng);
//! encode(&code, &decoder, &mut stripe).unwrap();
//! let pristine = stripe.clone();
//!
//! // Fail 2 disks + 2 extra sectors (the paper's worst case), then decode.
//! let scenario = code.decodable_worst_case(1, &mut rng, 100).unwrap();
//! stripe.erase(&scenario);
//! let h = code.parity_check_matrix();
//! let plan = decoder.plan(&h, &scenario, Strategy::PpmAuto).unwrap();
//! decoder.decode(&plan, &mut stripe).unwrap();
//! assert_eq!(stripe, pristine);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ppm_cluster as cluster;
pub use ppm_codes as codes;
pub use ppm_core as core;
pub use ppm_faults as faults;
pub use ppm_gf as gf;
pub use ppm_matrix as matrix;
pub use ppm_stripe as stripe;
pub use ppm_update as update;

pub use ppm_cluster::{
    run_sim, ChaosConfig, ChaosRates, ChaosStats, ChaosTransport, ClusterError, CoordinatorRequest,
    RepairMode, RetryPolicy, SimConfig, SimReport, Transport, Worker, WorkerResponse,
};
pub use ppm_codes::{
    CodeError, ErasureCode, EvenOddCode, FailureScenario, HitchhikerXor, LrcCode, ParityKind,
    PmdsCode, ProductCode, RdpCode, RsCode, ScenarioError, SdCode, StarCode, StripeLayout,
};
pub use ppm_core::{
    cost, encode, parity_consistent, ArenaStats, BatchReport, CalcSequence, DecodeError,
    DecodePlan, Decoder, DecoderConfig, ExecStats, Executor, LogTable, ParallelismCase, Partition,
    PlanCache, PlanCacheStats, PlanKey, PlanTape, Planner, RepairError, RepairService,
    ScratchArena, Strategy, SubPlanStats, UpdatePlan, UpdateStats, VerifyReport, VerifyStats,
    WireError, WirePartials, WirePlan,
};
pub use ppm_faults::{BitFlip, FaultInjector};
pub use ppm_gf::{Backend, GfWord, RegionMul};
pub use ppm_matrix::{Factorization, Matrix};
pub use ppm_stripe::Stripe;
pub use ppm_update::{
    DirtyBuffer, EngineConfig, EngineStats, EvictionPolicy, FlushMode, FlushReport, RangeSet,
    UpdateEngine, UpdateError,
};
