//! Differential suite for the execution engine — the compiled
//! instruction tape, the only thing that decodes or verifies — against
//! the word-level oracle of `tests/common`: on every code family of the
//! evaluation (SD, PMDS, LRC, RS, product, Hitchhiker), across thread
//! budgets and GF backends, decode (whole-sector, and T = 2 over sectors
//! cut into 4 KiB spans) must be bit-identical to the oracle's recovery,
//! surplus-row verification must flag exactly the rows the oracle finds
//! violated, and a small write through the session's update path must
//! equal a full re-encode — with executed mult_XORs equal to the planner's prediction
//! on every leg.
//!
//! The workload seed is read from `PPM_SEED` (default 2015) so CI can
//! run this under a seed matrix without recompiling.

mod common;

use common::{reference_decode, reference_violated_rows, seed_from_env};
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, Decoder, DecoderConfig, ErasureCode, FailureScenario,
    HitchhikerXor, LrcCode, PmdsCode, ProductCode, RepairService, RsCode, SdCode, Strategy, Stripe,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The full configuration grid every scenario is checked under, as
/// `(threads, backend)`; each point also decodes spanned sectors at
/// T = 2 on its backend.
const GRID: &[(usize, Backend)] = &[
    (1, Backend::Scalar),
    (1, Backend::Auto),
    (4, Backend::Scalar),
    (4, Backend::Auto),
];

/// Runs all three differential legs for one `(code, scenario)` pair on
/// every grid point. Returns whether the verify leg ran (it needs a
/// plan with surplus parity-check rows).
fn differential<C: ErasureCode<u8>>(code: &C, scenario: &FailureScenario, seed: u64) -> bool {
    let h = code.parity_check_matrix();
    let mut verified = false;
    for &(threads, backend) in GRID {
        let label = format!("threads={threads} backend={backend:?} faulty={scenario:?}");
        let decoder = Decoder::new(DecoderConfig { threads, backend });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = random_data_stripe(code, 256, &mut rng);
        encode(code, &decoder, &mut pristine).expect("encode");
        let plan = decoder.plan(&h, scenario, Strategy::PpmAuto).expect("plan");

        // Decode leg: the oracle recovers the stripe from the survivors
        // alone; the engine must land on the same bytes, whole-sector
        // and spanned, with the ledger matching the prediction.
        let mut by_oracle = pristine.clone();
        by_oracle.erase(scenario);
        assert!(
            reference_decode(&h, scenario, &mut by_oracle),
            "scenario must be decodable ({label})"
        );
        assert_eq!(by_oracle, pristine, "oracle recovery ({label})");
        let mut by_engine = pristine.clone();
        by_engine.erase(scenario);
        let whole = decoder.decode(&plan, &mut by_engine).expect("decode");
        assert_eq!(by_engine, by_oracle, "engine == oracle ({label})");
        // Four 4 KiB spans and a 24-byte tail per sector at T = 2.
        let spanned_bytes = 4 * 4096 + 24;
        let mut spanned_pristine = random_data_stripe(code, spanned_bytes, &mut rng);
        encode(code, &decoder, &mut spanned_pristine).expect("encode");
        let mut spanned_oracle = spanned_pristine.clone();
        spanned_oracle.erase(scenario);
        assert!(reference_decode(&h, scenario, &mut spanned_oracle));
        let mut by_spans = spanned_pristine.clone();
        by_spans.erase(scenario);
        let spanned = Decoder::new(DecoderConfig {
            threads: 2,
            backend,
        })
        .decode(&plan, &mut by_spans)
        .expect("spanned decode");
        assert_eq!(
            by_spans, spanned_oracle,
            "spanned engine == oracle ({label})"
        );
        for (name, stats, sb) in [("whole", &whole, 256), ("spanned", &spanned, spanned_bytes)] {
            assert!(stats.matches_prediction(), "{name} ledger ({label})");
            assert_eq!(
                stats.executed_mult_xors(),
                plan.mult_xors() as u64,
                "{name}: executed == predicted ({label})"
            );
            assert_eq!(
                stats.bytes_moved(),
                sb as u64 * plan.mult_xors() as u64,
                "{name}: every term moves one sector ({label})"
            );
        }

        // Verify leg: clean on the recovered stripe, exactly the
        // oracle's violated rows once a surviving sector is corrupted,
        // and the verify ledger on its own prediction both times.
        if plan.supports_verify() {
            verified = true;
            let surplus = plan.surplus_row_indices();
            let clean = decoder.verify(&plan, &by_engine).expect("verify");
            assert!(clean.clean(), "clean verify ({label})");
            assert_eq!(clean.rows_checked, surplus.len(), "rows checked ({label})");
            assert!(reference_violated_rows(&h, &surplus, &by_engine).is_empty());

            let victim = (0..plan.total_sectors())
                .find(|s| !scenario.faulty().contains(s))
                .expect("a surviving sector exists");
            let mut corrupt = by_engine.clone();
            corrupt.sector_mut(victim)[0] ^= 0x5A;
            let flagged = decoder.verify(&plan, &corrupt).expect("verify");
            assert_eq!(
                flagged.violated_rows,
                reference_violated_rows(&h, &surplus, &corrupt),
                "violation report == oracle ({label})"
            );
            for report in [&clean, &flagged] {
                assert_eq!(
                    report.stats.mult_xors,
                    plan.verify_mult_xors() as u64,
                    "verify executed == predicted ({label})"
                );
            }
        }

        // Delta-update leg: a small write must be indistinguishable from
        // writing the data and fully re-encoding, with the patch count
        // matching the update cost model.
        delta_update_leg(code, &pristine, threads, backend, seed, &label);
    }
    verified
}

/// One small write through [`RepairService::apply_update`], checked
/// against a full re-encode.
fn delta_update_leg<C: ErasureCode<u8>>(
    code: &C,
    pristine: &Stripe,
    threads: usize,
    backend: Backend,
    seed: u64,
    label: &str,
) {
    let decoder = Decoder::new(DecoderConfig { threads, backend });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    let data = code.data_sectors();
    let d = data[rng.random_range(0..data.len())];
    let mut new_data = vec![0u8; pristine.sector_bytes()];
    rng.fill(new_data.as_mut_slice());

    // Reference: write the sector and recompute every parity from scratch.
    let mut reference = pristine.clone();
    reference.write_sector(d, &new_data);
    encode(code, &decoder, &mut reference).expect("re-encode");

    // Session path: counted patches must match the update cost model.
    let service = RepairService::new(code, DecoderConfig { threads, backend });
    let mut patched = pristine.clone();
    let st = service
        .apply_update(&mut patched, &[(d, new_data.as_slice())])
        .expect("session update");
    assert_eq!(patched, reference, "patched == re-encoded ({label})");
    assert!(
        parity_consistent(&code.parity_check_matrix(), &patched, backend),
        "parity consistent ({label})"
    );
    assert!(st.matches_prediction(), "update ledger ({label})");
    let up = service.update_plan().expect("update plan");
    assert_eq!(
        st.predicted_mult_xors,
        up.update_mult_xors(d).expect("cost"),
        "prediction is the per-sector update cost ({label})"
    );
}

/// A light scenario (single lost data sector) that always leaves
/// surplus parity-check rows, so the verify leg runs.
fn light_scenario<C: ErasureCode<u8>>(code: &C) -> FailureScenario {
    let d = code.data_sectors()[0];
    FailureScenario::new(vec![d])
}

#[test]
fn sd_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let worst = code
        .decodable_worst_case(1, &mut rng, 300)
        .expect("worst case");
    differential(&code, &worst, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn pmds_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = PmdsCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    // Scattered patterns are only guaranteed decodable for searched
    // coefficients; draw until one is (the oracle in differential
    // re-asserts it).
    let scattered = (0..100)
        .map(|_| code.scattered_scenario(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable scattered scenario within budget");
    differential(&code, &scattered, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn lrc_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = LrcCode::<u8>::new(6, 2, 2, 4).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = (0..100)
        .map(|_| code.spread_disk_failures(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable spread outage within budget");
    differential(&code, &spread, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn rs_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = RsCode::<u8>::new(5, 3, 4).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let disks = code.random_disk_failures(3, &mut rng);
    differential(&code, &disks, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn product_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = ProductCode::<u8>::new(4, 2, 3, 2).expect("code");
    let layout = code.layout();
    // Whole column — decomposes into per-row groups.
    let column = FailureScenario::whole_disks(layout, &[1]);
    differential(&code, &column, seed);
    // Correlated row burst — decomposes into per-column groups.
    let burst = FailureScenario::try_row_burst(layout, 2, 0, 3).expect("burst");
    differential(&code, &burst, seed);
    // Rack loss (disk group 1 of 3 → disks 2,3).
    let rack = FailureScenario::try_disk_group(layout, 1, 3).expect("rack");
    differential(&code, &rack, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn hitchhiker_engine_matches_oracle() {
    let seed = seed_from_env();
    let code = HitchhikerXor::<u8>::new(5, 3).expect("code");
    let layout = code.layout();
    let single = FailureScenario::whole_disks(layout, &[2]);
    differential(&code, &single, seed);
    let triple = FailureScenario::whole_disks(layout, &[0, 3, 6]);
    differential(&code, &triple, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}
