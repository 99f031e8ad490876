//! Property-based integration tests: decode correctness and PPM
//! invariants over randomized codes, scenarios and payloads.

use ppm::core::cost::analyze;
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, Decoder, DecoderConfig, ErasureCode, EvenOddCode,
    FailureScenario, HitchhikerXor, LrcCode, Partition, PmdsCode, ProductCode, RdpCode,
    RepairService, RsCode, SdCode, StarCode, Strategy,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy: small SD geometry + seed.
fn sd_params() -> impl ProptestStrategy<Value = (usize, usize, usize, usize, u64)> {
    (4usize..=8, 2usize..=6, 1usize..=2, 0usize..=2, any::<u64>())
        .prop_filter("s fits beside parity disks", |(n, _, m, s, _)| {
            m < n && *s <= n - m
        })
}

use proptest::strategy::Strategy as ProptestStrategy;

/// The shared partition contract, for any code and any scenario: the
/// independent groups are square and pairwise disjoint, every sector
/// they claim is faulty, the rest never overlaps a group, and
/// independent ∪ rest reproduces the scenario exactly.
fn check_partition_invariants<C: ErasureCode<u8>>(
    code: &C,
    scenario: &FailureScenario,
) -> Result<(), TestCaseError> {
    let h = code.parity_check_matrix();
    let part = Partition::build(&h, scenario);
    let mut seen = std::collections::HashSet::new();
    for sub in &part.independent {
        prop_assert_eq!(
            sub.rows.len(),
            sub.faulty.len(),
            "square groups ({})",
            code.name()
        );
        for &f in &sub.faulty {
            prop_assert!(seen.insert(f), "sector claimed twice ({})", code.name());
            prop_assert!(
                scenario.contains(f),
                "claimed sector not faulty ({})",
                code.name()
            );
        }
    }
    let mut all: Vec<usize> = seen.iter().copied().collect();
    if let Some(rest) = &part.rest {
        for &f in &rest.faulty {
            prop_assert!(
                scenario.contains(f),
                "rest sector not faulty ({})",
                code.name()
            );
            prop_assert!(
                !seen.contains(&f),
                "rest overlaps a group ({})",
                code.name()
            );
        }
        all.extend(rest.faulty.iter().copied());
    }
    all.sort_unstable();
    prop_assert_eq!(
        all,
        scenario.faulty().to_vec(),
        "coverage ({})",
        code.name()
    );
    Ok(())
}

/// Draws a random scenario sized within the code's fault tolerance and
/// runs the shared partition contract on it.
fn random_scenario_invariants<C: ErasureCode<u8>>(
    code: &C,
    seed: u64,
) -> Result<(), TestCaseError> {
    let layout = code.layout();
    let mut rng = StdRng::seed_from_u64(seed);
    let max = code.fault_tolerance().min(layout.n * layout.r - 1);
    let count = 1 + (seed as usize) % max;
    let scenario = FailureScenario::random(layout, count, &mut rng);
    check_partition_invariants(code, &scenario)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any decodable worst case of any constructible SD instance
    /// roundtrips under PPM and the traditional method, with identical
    /// recovered bytes.
    #[test]
    fn sd_decode_roundtrips((n, r, m, s, seed) in sd_params()) {
        let Ok(code) = SdCode::<u8>::with_generator_coeffs(n, r, m, s) else {
            return Ok(()); // generator coefficients not encodable; skip
        };
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let z_max = s.min(r);
        let z = if s == 0 { 0 } else { 1 + (seed as usize) % z_max };
        let scenario = if s == 0 {
            FailureScenario::sd_worst_case(code.layout(), m, 0, 0, &mut rng)
        } else {
            match code.decodable_worst_case(z, &mut rng, 50) {
                Some(sc) => sc,
                None => return Ok(()),
            }
        };
        if h.select_columns(scenario.faulty()).rank() < scenario.len() {
            return Ok(());
        }

        let decoder = Decoder::new(DecoderConfig { threads: 2, backend: Backend::Scalar });
        let mut stripe = random_data_stripe(&code, 32, &mut rng);
        encode(&code, &decoder, &mut stripe).unwrap();
        prop_assert!(parity_consistent(&h, &stripe, Backend::Scalar));
        let pristine = stripe.clone();

        for strategy in [Strategy::PpmAuto, Strategy::TraditionalNormal] {
            let mut broken = pristine.clone();
            broken.erase(&scenario);
            decoder.decode_scenario(&h, &scenario, strategy, &mut broken).unwrap();
            prop_assert_eq!(&broken, &pristine);
        }
    }

    /// Partition invariants: independent groups are disjoint, their union
    /// plus the rest equals the faulty set, and group sizes match their
    /// footprints.
    #[test]
    fn partition_invariants((n, r, m, s, seed) in sd_params()) {
        let Ok(code) = SdCode::<u8>::with_generator_coeffs(n, r, m, s) else {
            return Ok(());
        };
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let count = 1 + (seed as usize) % (m * r + s).min(h.rows());
        let scenario = FailureScenario::random(code.layout(), count, &mut rng);
        let part = Partition::build(&h, &scenario);

        let mut seen = std::collections::HashSet::new();
        for sub in &part.independent {
            prop_assert_eq!(sub.rows.len(), sub.faulty.len(), "square groups");
            for &f in &sub.faulty {
                prop_assert!(seen.insert(f), "faulty sector claimed twice");
                prop_assert!(scenario.contains(f));
            }
            // Group rows touch no faulty sector outside their own group.
            for &row in &sub.rows {
                for &f in scenario.faulty() {
                    if h.get(row, f) != 0 {
                        prop_assert!(sub.faulty.contains(&f));
                    }
                }
            }
        }
        let mut all: Vec<usize> = seen.into_iter().collect();
        if let Some(rest) = &part.rest {
            for &f in &rest.faulty {
                prop_assert!(scenario.contains(f));
                prop_assert!(!all.contains(&f));
            }
            all.extend(rest.faulty.iter().copied());
        }
        all.sort_unstable();
        prop_assert_eq!(all, scenario.faulty().to_vec());
    }

    /// The same partition contract over EVERY family in the crate —
    /// symmetric, asymmetric, and the 2-D/coupled newcomers — plus the
    /// correlated burst and rack generators on the product code.
    #[test]
    fn partition_invariants_all_families(seed in any::<u64>()) {
        random_scenario_invariants(&SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap(), seed)?;
        random_scenario_invariants(&PmdsCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap(), seed)?;
        random_scenario_invariants(&LrcCode::<u8>::new(6, 2, 2, 3).unwrap(), seed)?;
        random_scenario_invariants(&RsCode::<u8>::new(5, 3, 4).unwrap(), seed)?;
        random_scenario_invariants(&EvenOddCode::<u8>::new(5).unwrap(), seed)?;
        random_scenario_invariants(&RdpCode::<u8>::new(5).unwrap(), seed)?;
        random_scenario_invariants(&StarCode::<u8>::new(5).unwrap(), seed)?;
        random_scenario_invariants(&ProductCode::<u8>::new(4, 2, 3, 2).unwrap(), seed)?;
        random_scenario_invariants(&HitchhikerXor::<u8>::new(5, 3).unwrap(), seed)?;

        let pc = ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let burst =
            FailureScenario::try_row_burst(pc.layout(), (seed as usize) % 5, 0, 2).unwrap();
        check_partition_invariants(&pc, &burst)?;
        let rack = FailureScenario::try_disk_group(pc.layout(), (seed as usize) % 3, 3).unwrap();
        check_partition_invariants(&pc, &rack)?;
        let hh = HitchhikerXor::<u8>::new(5, 3).unwrap();
        let rack = FailureScenario::try_disk_group(hh.layout(), (seed as usize) % 4, 4).unwrap();
        check_partition_invariants(&hh, &rack)?;
    }

    /// Cost-model invariants: PpmAuto's plan is never more expensive than
    /// any concrete strategy, and decodability is strategy-independent.
    #[test]
    fn auto_is_minimal((n, r, m, s, seed) in sd_params()) {
        let Ok(code) = SdCode::<u8>::with_generator_coeffs(n, r, m, s) else {
            return Ok(());
        };
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let count = 1 + (seed as usize) % (m * r + s);
        let scenario = FailureScenario::random(code.layout(), count, &mut rng);
        if h.select_columns(scenario.faulty()).rank() < scenario.len() {
            return Ok(()); // undecodable; every strategy must refuse
        }
        let report = analyze(&h, &scenario).unwrap();
        let decoder = Decoder::new(DecoderConfig { threads: 1, backend: Backend::Scalar });
        let auto = decoder.plan(&h, &scenario, Strategy::PpmAuto).unwrap();
        let min = report.c1.min(report.c2).min(report.c3).min(report.c4);
        prop_assert_eq!(auto.mult_xors(), min);
    }

    /// LRC: whatever decodable disk pattern arises, local-group repairs
    /// dominate the independent phase and decode restores the stripe.
    #[test]
    fn lrc_roundtrip(seed in any::<u64>(), k_groups in 2usize..=4, r in 1usize..=4) {
        let k = k_groups * 2;
        let code = LrcCode::<u8>::new(k, k_groups, 2, r).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(scenario) = code.decodable_disk_failures(k_groups.min(3), &mut rng, 200) else {
            return Ok(());
        };
        let decoder = Decoder::new(DecoderConfig { threads: 2, backend: Backend::Scalar });
        let h = code.parity_check_matrix();
        let mut stripe = random_data_stripe(&code, 16, &mut rng);
        encode(&code, &decoder, &mut stripe).unwrap();
        let pristine = stripe.clone();
        stripe.erase(&scenario);
        decoder.decode_scenario(&h, &scenario, Strategy::PpmAuto, &mut stripe).unwrap();
        prop_assert_eq!(stripe, pristine);
    }

    /// Incremental small writes are indistinguishable from full
    /// re-encodes, for any batch of updates, repeats included.
    #[test]
    fn updates_equal_reencode(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0usize..64, any::<u8>()), 1..6),
    ) {
        let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
        let decoder = Decoder::new(DecoderConfig { threads: 1, backend: Backend::Scalar });
        let service = RepairService::new(&code, decoder.config());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut incremental = random_data_stripe(&code, 32, &mut rng);
        encode(&code, &decoder, &mut incremental).unwrap();
        let mut reencoded = incremental.clone();

        let data = code.data_sectors();
        let h = code.parity_check_matrix();
        let payloads: Vec<(usize, Vec<u8>)> = writes
            .iter()
            .map(|&(pick, fill)| (data[pick % data.len()], vec![fill; incremental.sector_bytes()]))
            .collect();
        let batch: Vec<(usize, &[u8])> =
            payloads.iter().map(|(sector, p)| (*sector, p.as_slice())).collect();
        let stats = service.apply_update(&mut incremental, &batch).unwrap();
        prop_assert!(stats.matches_prediction());
        for (sector, new_data) in &payloads {
            reencoded.write_sector(*sector, new_data);
        }
        // One full re-encode at the end must land on the same stripe.
        encode(&code, &decoder, &mut reencoded).unwrap();
        prop_assert_eq!(&incremental, &reencoded);
        prop_assert!(parity_consistent(&h, &incremental, Backend::Scalar));
    }

    /// Degraded reads: for any faulty subset and any wanted subset of it,
    /// the restricted plan recovers exactly the wanted sectors.
    #[test]
    fn restricted_plans_recover_wanted(seed in any::<u64>(), pick in 0usize..5) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let decoder = Decoder::new(DecoderConfig { threads: 2, backend: Backend::Scalar });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(&code, 32, &mut rng);
        encode(&code, &decoder, &mut stripe).unwrap();
        let pristine = stripe.clone();

        let wanted = [scenario.faulty()[pick % scenario.len()]];
        let plan = decoder
            .plan(&h, &scenario, Strategy::PpmNormalRest)
            .unwrap()
            .restrict_to(&wanted);
        stripe.erase(&scenario);
        decoder.decode(&plan, &mut stripe).unwrap();
        prop_assert_eq!(stripe.sector(wanted[0]), pristine.sector(wanted[0]));
    }

    /// Corrupting any single byte of an encoded stripe breaks parity
    /// consistency (the check matrix has no zero column).
    #[test]
    fn corruption_always_detected(sector in 0usize..16, byte in 0usize..32, bit in 0u8..8) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let decoder = Decoder::new(DecoderConfig { threads: 1, backend: Backend::Scalar });
        let mut rng = StdRng::seed_from_u64(9);
        let mut stripe = random_data_stripe(&code, 32, &mut rng);
        encode(&code, &decoder, &mut stripe).unwrap();
        let h = code.parity_check_matrix();
        stripe.sector_mut(sector)[byte] ^= 1 << bit;
        prop_assert!(!parity_consistent(&h, &stripe, Backend::Scalar));
    }
}
