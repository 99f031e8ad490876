//! End-to-end fault-injection tests for the verified-repair pipeline:
//! deterministic seeded corruption of surviving sectors across the
//! SD / PMDS / LRC grid, the {1, 4}-thread × {Scalar, Auto-SIMD}
//! decoder matrix, geometry and label faults, and the forced
//! SIMD-miscompute switch with its scalar fallback.
//!
//! Every fault is drawn from [`FaultInjector`] with a fixed seed, so a
//! failure here reproduces byte-for-byte. Corruption targets are
//! restricted to *locatable* survivors — sectors with a non-zero
//! coefficient in at least two surplus parity-check rows. A sector
//! covered by no surplus row (e.g. the local parity of an LRC row whose
//! sole check equation was spent on the decode) is
//! information-theoretically invisible to any single-stripe check, and
//! one covered by a single surplus row is detectable but not uniquely
//! locatable: promoting any other sector of that row consumes the lone
//! evidence row and the escalated verify has nothing left to object
//! with. DESIGN.md §8 derives both bounds.

use ppm::faults::kernel_fallbacks;
use ppm::stripe::random_data_stripe;
use ppm::{
    parity_consistent, Backend, DecoderConfig, ErasureCode, FailureScenario, FaultInjector,
    HitchhikerXor, LrcCode, PmdsCode, ProductCode, RepairError, RepairService, SdCode,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// Serializes the tests that flip the process-global SIMD-miscompute
/// switch (same discipline as `crates/gf/tests/fault_hooks.rs`).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// The decoder configurations the grid runs under.
fn config_matrix() -> Vec<DecoderConfig> {
    let mut m = vec![
        DecoderConfig {
            threads: 1,
            backend: Backend::Scalar,
        },
        DecoderConfig {
            threads: 4,
            backend: Backend::Scalar,
        },
    ];
    // Auto resolves to the fastest available SIMD kernel and degrades
    // to scalar elsewhere, so the matrix is portable.
    m.push(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    m.push(DecoderConfig {
        threads: 4,
        backend: Backend::Auto,
    });
    m
}

/// Injects one bit-flip into a random *locatable* survivor (non-zero
/// coefficient in at least two surplus rows of `plan`), runs
/// `repair_verified`, and checks the full contract: corruption
/// detected, located exactly, healed bit-exactly, and the first verify
/// pass matching the surplus-row cost model.
fn corrupt_locate_repair<C>(
    code: C,
    scenario: &FailureScenario,
    seed: u64,
    config: DecoderConfig,
) -> Result<(), TestCaseError>
where
    C: ErasureCode<u8>,
{
    let h = code.parity_check_matrix();
    let svc = RepairService::new(code, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
    svc.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    stripe.erase(scenario);

    let (plan, _) = svc.plan_for(scenario).unwrap();
    prop_assert!(plan.supports_verify());
    prop_assert!(plan.verify_rows() >= 2, "grid codes must have headroom");
    let surplus = plan.surplus_row_indices();
    let predicted_verify = plan.verify_mult_xors();
    let locatable: Vec<usize> = (0..h.cols())
        .filter(|s| !scenario.faulty().contains(s))
        .filter(|&s| surplus.iter().filter(|&&r| h.get(r, s) != 0).count() >= 2)
        .collect();
    drop(plan);
    prop_assert!(!locatable.is_empty());

    let mut inj = FaultInjector::new(seed);
    let target = locatable[(seed as usize) % locatable.len()];
    let flip = inj.corrupt_sector(&mut stripe, target);
    prop_assert_eq!(flip.sector, target);

    let stats = svc.repair_verified(&mut stripe, scenario).unwrap();
    prop_assert_eq!(&stripe, &pristine, "bit-exact after escalation");
    let v = stats.verify.expect("verified repair attaches VerifyStats");
    prop_assert!(!v.violated_rows.is_empty(), "corruption must be detected");
    prop_assert_eq!(&v.located, &vec![target], "located exactly");
    prop_assert!(v.escalations >= 1);
    prop_assert_eq!(v.rows_available, surplus.len());
    prop_assert_eq!(v.predicted_mult_xors, predicted_verify);
    prop_assert!(
        v.matches_prediction(),
        "first verify pass must match the surplus-row cost model"
    );
    prop_assert!(v.extra.mult_xors > 0, "escalation work lands on the ledger");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SD: one corrupt survivor is detected, located and healed under
    /// every thread/backend combination.
    #[test]
    fn sd_corruption_round_trips(seed in any::<u64>()) {
        let scenario = FailureScenario::new(vec![2, 9]);
        for config in config_matrix() {
            let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
            corrupt_locate_repair(code, &scenario, seed, config)?;
        }
    }

    /// PMDS: same contract as SD.
    #[test]
    fn pmds_corruption_round_trips(seed in any::<u64>()) {
        let scenario = FailureScenario::new(vec![2, 9]);
        for config in config_matrix() {
            let code = PmdsCode::<u8>::search(6, 4, 1, 1, 7, 3).unwrap();
            corrupt_locate_repair(code, &scenario, seed, config)?;
        }
    }

    /// LRC: same contract over an Azure-style (6,2,2) instance.
    #[test]
    fn lrc_corruption_round_trips(seed in any::<u64>()) {
        let scenario = FailureScenario::new(vec![2, 13]);
        for config in config_matrix() {
            let code = LrcCode::<u8>::new(6, 2, 2, 3).unwrap();
            corrupt_locate_repair(code, &scenario, seed, config)?;
        }
    }

    /// Product code: a correlated row burst is repaired column-wise and
    /// a corrupt survivor is still located and healed.
    #[test]
    fn product_corruption_round_trips(seed in any::<u64>()) {
        let probe = ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let scenario = FailureScenario::try_row_burst(probe.layout(), 1, 0, 2).unwrap();
        for config in config_matrix() {
            let code = ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
            corrupt_locate_repair(code, &scenario, seed, config)?;
        }
    }

    /// Hitchhiker-XOR: a lost disk touches both coupled sub-stripes;
    /// the same detect/locate/heal contract holds.
    #[test]
    fn hitchhiker_corruption_round_trips(seed in any::<u64>()) {
        let probe = HitchhikerXor::<u8>::new(5, 3).unwrap();
        let scenario = FailureScenario::whole_disks(probe.layout(), &[2]);
        for config in config_matrix() {
            let code = HitchhikerXor::<u8>::new(5, 3).unwrap();
            corrupt_locate_repair(code, &scenario, seed, config)?;
        }
    }

    /// Geometry faults — truncated buffers and stripes from a different
    /// volume — come back as structured [`RepairError`]s, never a panic
    /// and never silently accepted.
    #[test]
    fn geometry_faults_error_structurally(seed in any::<u64>()) {
        let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
        let svc = RepairService::new(code, DecoderConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let scenario = FailureScenario::new(vec![2, 9]);

        let mut inj = FaultInjector::new(seed);
        for mut bad in [inj.truncated_stripe(&stripe), inj.misaligned_stripe(&stripe)] {
            match svc.repair_verified(&mut bad, &scenario) {
                Err(RepairError::GeometryMismatch { .. }) => {}
                Err(RepairError::SectorOutOfRange { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "geometry fault must be a structural error, got {other:?}"
                    )));
                }
            }
        }
    }

    /// Label faults: a scenario that understates the true losses (the
    /// stripe lost a sector the label does not declare) is either healed
    /// — escalation promotes the undeclared loss — or rejected with a
    /// structured error. Never a panic, never silent wrong bytes.
    #[test]
    fn label_faults_never_yield_silent_wrong_bytes(seed in any::<u64>()) {
        let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
        let svc = RepairService::new(code, DecoderConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();

        let truth = FailureScenario::new(vec![2, 9]);
        let mut inj = FaultInjector::new(seed);
        let (understated, dropped) = inj.understate_scenario(&truth);
        stripe.erase(&truth);

        match svc.repair_verified(&mut stripe, &understated) {
            Ok(stats) => {
                prop_assert_eq!(&stripe, &pristine, "an accepted repair must be exact");
                let v = stats.verify.expect("attached");
                prop_assert_eq!(&v.located, &vec![dropped]);
            }
            Err(
                RepairError::VerificationFailed { .. } | RepairError::EscalationExhausted { .. },
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "label fault must heal or fail structurally, got {other:?}"
                )));
            }
        }
    }
}

/// A forced SIMD miscompute (the injector's kernel-fault hook) is caught
/// by the checked region constructor, demoted to the scalar kernel, and
/// the verified repair still round-trips — with the fallback counter
/// recording the demotion.
#[test]
fn forced_simd_miscompute_falls_back_to_scalar_and_still_verifies() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ppm::gf::force_simd_miscompute(false);
        }
    }
    let _reset = Reset;

    let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
    let svc = RepairService::new(
        code,
        DecoderConfig {
            threads: 2,
            backend: Backend::Auto,
        },
    );
    let mut rng = StdRng::seed_from_u64(99);
    let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
    svc.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    let scenario = FailureScenario::new(vec![2, 9]);
    stripe.erase(&scenario);

    let before = kernel_fallbacks();
    let mut inj = FaultInjector::new(99);
    inj.force_simd_miscompute(true);
    let flip = inj.corrupt_survivor(&mut stripe, &scenario);

    let stats = svc.repair_verified(&mut stripe, &scenario).unwrap();
    inj.force_simd_miscompute(false);

    assert_eq!(stripe, pristine, "exact recovery on the scalar fallback");
    let v = stats.verify.expect("attached");
    assert_eq!(v.located, vec![flip.sector]);
    if Backend::Ssse3.is_available() {
        assert!(
            kernel_fallbacks() > before,
            "the poisoned SIMD kernel must be demoted at least once"
        );
    }
}

/// Small writes take their kernels from the same self-checked table as
/// decodes: with the SIMD miscompute forced, a fresh session's first
/// `apply_update` demotes the poisoned kernels and the stripe stays
/// parity-consistent. The batch writes two data sectors of one row, so
/// the row's parities are multi-term fused runs.
#[test]
fn forced_simd_miscompute_falls_back_to_scalar_on_small_writes() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ppm::gf::force_simd_miscompute(false);
        }
    }
    let _reset = Reset;

    let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
    let h = code.parity_check_matrix();
    let svc = RepairService::new(
        code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    let mut rng = StdRng::seed_from_u64(98);
    let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
    svc.encode(&mut stripe).unwrap();
    let a = vec![0x3Cu8; stripe.sector_bytes()];
    let b = vec![0xC5u8; stripe.sector_bytes()];
    let data = svc.code().data_sectors();
    let writes = [(data[0], a.as_slice()), (data[1], b.as_slice())];

    let before = kernel_fallbacks();
    ppm::gf::force_simd_miscompute(true);
    let stats = svc.apply_update(&mut stripe, &writes).unwrap();
    ppm::gf::force_simd_miscompute(false);

    assert!(
        parity_consistent(&h, &stripe, Backend::Scalar),
        "small write stays exact on the scalar fallback"
    );
    assert!(stats.matches_prediction());
    assert!(
        stats.phase_a[0].outputs < stats.predicted_mult_xors,
        "some parity sums more than one term"
    );
    if Backend::Ssse3.is_available() {
        assert!(
            kernel_fallbacks() > before,
            "the poisoned SIMD kernels must be demoted"
        );
    }
}
