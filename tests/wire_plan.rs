//! Differential suite for the serialized wire plan: on every code
//! family of the evaluation (SD, PMDS, LRC, RS), across thread budgets
//! and GF backends, a plan that travels through its byte encoding —
//! serialize, deserialize, re-validate, recompile kernels — must repair
//! bit-identically to the in-process compiled tape. Both execution
//! shapes are checked: whole-plan execution on a machine holding the
//! stripe (`Executor::execute_wire`) and the cluster split
//! (`Executor::wire_partials` + `Executor::finish_rest` + install),
//! where only partial-sum blocks connect the two halves. On sectors long
//! enough to be cut into spans, both shapes at T = 2 must also match
//! T = 1 byte for byte.
//!
//! The workload seed is read from `PPM_SEED` (default 2015) so CI can
//! run this under a seed matrix without recompiling.

mod common;

use common::seed_from_env;
use ppm::stripe::random_data_stripe;
use ppm::{
    Backend, DecoderConfig, ErasureCode, FailureScenario, HitchhikerXor, LrcCode, PmdsCode,
    ProductCode, RepairError, RepairService, RsCode, SdCode, Strategy, Stripe, WirePartials,
    WirePlan,
};
use rand::{rngs::StdRng, SeedableRng};

const SECTOR_BYTES: usize = 256;
/// Four 4 KiB spans and a 24-byte tail: a T = 2 executor cuts these
/// sectors into spans.
const SPANNED_SECTOR_BYTES: usize = 4 * 4096 + 24;

/// The full configuration grid every scenario is checked under.
const GRID: &[(usize, Backend)] = &[
    (1, Backend::Scalar),
    (1, Backend::Auto),
    (4, Backend::Scalar),
    (4, Backend::Auto),
];

/// One `(code, scenario, strategy)` cell: the wire-transported plan
/// must reproduce the in-process repair bit-for-bit on every grid
/// point, through both execution shapes.
fn wire_differential<C: ErasureCode<u8>>(
    code: &C,
    scenario: &FailureScenario,
    strategy: Strategy,
    seed: u64,
) {
    for &(threads, backend) in GRID {
        let label = format!(
            "threads={threads} backend={backend:?} strategy={strategy} faulty={:?}",
            scenario.faulty()
        );
        let service =
            RepairService::new(code, DecoderConfig { threads, backend }).with_strategy(strategy);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = random_data_stripe(code, SECTOR_BYTES, &mut rng);
        service.encode(&mut pristine).expect("encode");

        // Reference leg: the in-process compiled tape.
        let mut reference = pristine.clone();
        reference.erase(scenario);
        let in_process = service.repair(&mut reference, scenario).expect("repair");
        assert_eq!(reference, pristine, "in-process repair ({label})");

        // Wire leg: serialize → bytes → deserialize → compile → run.
        let (wire, _) = service
            .planner()
            .wire_plan_for(scenario)
            .expect("wire plan");
        let bytes = wire.encode();
        let decoded = WirePlan::decode(&bytes).expect("wire bytes decode");
        assert_eq!(decoded, wire, "byte round trip is lossless ({label})");
        let exec = decoded.compile::<u8>(backend).expect("wire plan compiles");

        let mut via_wire = pristine.clone();
        via_wire.erase(scenario);
        let over_wire = service
            .executor()
            .execute_wire(&exec, &mut via_wire)
            .expect("execute_wire");
        assert_eq!(via_wire, pristine, "wire execution ({label})");
        // Same tape, same loop: the wire run keeps the ledger, op for op.
        assert!(over_wire.matches_prediction(), "wire ledger ({label})");
        assert_eq!(over_wire.predicted_mult_xors, exec.mult_xors());
        assert_eq!(
            over_wire.executed_mult_xors(),
            in_process.executed_mult_xors(),
            "wire == in-process op count ({label})"
        );
        assert_eq!(over_wire.strategy, in_process.strategy);

        // Cluster-split leg: phase A + partial sums locally, phase B
        // from the shipped blocks alone, recovered sectors installed.
        let mut via_split = pristine.clone();
        via_split.erase(scenario);
        let partials = service
            .executor()
            .wire_partials(&exec, &mut via_split)
            .expect("wire_partials");
        assert_eq!(
            partials.rest_pending,
            exec.rest_splittable(),
            "partial routing follows splittability ({label})"
        );
        if partials.rest_pending {
            assert_eq!(
                partials.rest_blocks.len(),
                exec.rest_scratch_slots(),
                "one T block per scratch slot ({label})"
            );
            let recovered = service
                .executor()
                .finish_rest(&exec, &partials.rest_blocks, SECTOR_BYTES)
                .expect("finish_rest");
            for (sector, bytes) in recovered {
                via_split.write_sector(sector, &bytes);
            }
        } else if exec.has_phase_b() {
            // `rest_pending` is the peer's word. Acting on a forged one
            // for an H_rest that cannot split is a typed error, not a
            // panic.
            assert_eq!(
                service
                    .executor()
                    .finish_rest(&exec, &[], SECTOR_BYTES)
                    .unwrap_err(),
                RepairError::RestNotSplittable,
                "forged rest_pending ({label})"
            );
        }
        assert_eq!(via_split, pristine, "split execution ({label})");

        // The verify rows traveled too: the repaired stripe is clean.
        let report = service
            .executor()
            .verify_wire(&exec, &via_split)
            .expect("verify_wire");
        assert!(
            report.violated_rows.is_empty(),
            "wire verify clean ({label})"
        );
        assert_eq!(
            report.stats.mult_xors,
            exec.verify_mult_xors() as u64,
            "wire verify executed == predicted ({label})"
        );
    }
}

/// A light scenario (single lost data sector) that always leaves
/// surplus parity-check rows, so the wire verify leg has work.
fn light_scenario<C: ErasureCode<u8>>(code: &C) -> FailureScenario {
    let d = code.data_sectors()[0];
    FailureScenario::new(vec![d])
}

#[test]
fn sd_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let worst = code
        .decodable_worst_case(1, &mut rng, 300)
        .expect("worst case");
    wire_differential(&code, &worst, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

#[test]
fn pmds_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = PmdsCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let scattered = (0..100)
        .map(|_| code.scattered_scenario(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable scattered scenario within budget");
    wire_differential(&code, &scattered, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

#[test]
fn lrc_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = LrcCode::<u8>::new(6, 2, 2, 4).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = (0..100)
        .map(|_| code.spread_disk_failures(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable spread outage within budget");
    wire_differential(&code, &spread, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

#[test]
fn rs_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = RsCode::<u8>::new(5, 3, 4).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let disks = code.random_disk_failures(3, &mut rng);
    wire_differential(&code, &disks, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

#[test]
fn product_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = ProductCode::<u8>::new(4, 2, 3, 2).expect("code");
    let layout = code.layout();
    // Whole column, correlated row burst, and rack loss all travel.
    let column = FailureScenario::whole_disks(layout, &[1]);
    wire_differential(&code, &column, Strategy::PpmAuto, seed);
    let burst = FailureScenario::try_row_burst(layout, 2, 1, 4).expect("burst");
    wire_differential(&code, &burst, Strategy::PpmAuto, seed);
    let rack = FailureScenario::try_disk_group(layout, 2, 3).expect("rack");
    wire_differential(&code, &rack, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

#[test]
fn hitchhiker_wire_plan_matches_in_process() {
    let seed = seed_from_env();
    let code = HitchhikerXor::<u8>::new(5, 3).expect("code");
    let layout = code.layout();
    let single = FailureScenario::whole_disks(layout, &[1]);
    wire_differential(&code, &single, Strategy::PpmAuto, seed);
    let triple = FailureScenario::whole_disks(layout, &[0, 2, 5]);
    wire_differential(&code, &triple, Strategy::PpmAuto, seed);
    wire_differential(&code, &light_scenario(&code), Strategy::PpmAuto, seed);
}

/// Every strategy travels: the paper's running example under each
/// explicit calculation sequence, including the matrix-first rest
/// (whose `H_rest` reads sectors directly and therefore must *not*
/// split — `wire_partials` finishes it locally instead).
#[test]
fn every_strategy_round_trips_on_the_paper_example() {
    let seed = seed_from_env();
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("paper code");
    let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    for strategy in [
        Strategy::PpmAuto,
        Strategy::PpmNormalRest,
        Strategy::PpmMatrixFirstRest,
        Strategy::TraditionalNormal,
        Strategy::TraditionalMatrixFirst,
    ] {
        wire_differential(&code, &scenario, strategy, seed);
    }
}

/// Runs both wire execution shapes at `threads` on a multi-span stripe:
/// returns the pristine stripe, the `execute_wire` result, the
/// `wire_partials` output with the stripe it left behind, and the
/// stripe after `finish_rest`'s sectors are installed.
fn wire_shapes<C: ErasureCode<u8>>(
    code: &C,
    scenario: &FailureScenario,
    strategy: Strategy,
    threads: usize,
) -> (Stripe, Stripe, WirePartials, Stripe, Stripe) {
    let backend = Backend::Auto;
    let service =
        RepairService::new(code, DecoderConfig { threads, backend }).with_strategy(strategy);
    let mut rng = StdRng::seed_from_u64(seed_from_env());
    let mut pristine = random_data_stripe(code, SPANNED_SECTOR_BYTES, &mut rng);
    service.encode(&mut pristine).expect("encode");
    let (wire, _) = service
        .planner()
        .wire_plan_for(scenario)
        .expect("wire plan");
    let exec = wire.compile::<u8>(backend).expect("wire plan compiles");

    let mut whole = pristine.clone();
    whole.erase(scenario);
    let stats = service
        .executor()
        .execute_wire(&exec, &mut whole)
        .expect("execute_wire");
    assert!(stats.matches_prediction(), "T={threads} wire ledger");

    let mut split = pristine.clone();
    split.erase(scenario);
    let partials = service
        .executor()
        .wire_partials(&exec, &mut split)
        .expect("wire_partials");
    let after_partials = split.clone();
    if partials.rest_pending {
        let recovered = service
            .executor()
            .finish_rest(&exec, &partials.rest_blocks, SPANNED_SECTOR_BYTES)
            .expect("finish_rest");
        for (sector, bytes) in recovered {
            split.write_sector(sector, &bytes);
        }
    }
    (pristine, whole, partials, after_partials, split)
}

/// Both wire shapes at T = 2 on multi-span sectors against T = 1: the
/// repaired stripe, the partial-sum blocks, the stripe they leave
/// behind and the finished split repair are byte for byte the same.
fn assert_spanned_matches_serial<C: ErasureCode<u8>>(
    code: &C,
    scenario: &FailureScenario,
    strategy: Strategy,
) {
    let label = format!("{} {strategy} faulty={:?}", code.name(), scenario.faulty());
    let serial = wire_shapes(code, scenario, strategy, 1);
    let spanned = wire_shapes(code, scenario, strategy, 2);
    let (pristine, whole, _, _, split) = &serial;
    assert_eq!(whole, pristine, "{label}: T=1 execute_wire");
    assert_eq!(split, pristine, "{label}: T=1 split repair");
    assert_eq!(spanned.1, serial.1, "{label}: execute_wire T=2 == T=1");
    assert_eq!(spanned.2, serial.2, "{label}: wire_partials T=2 == T=1");
    assert_eq!(spanned.3, serial.3, "{label}: phase A T=2 == T=1");
    assert_eq!(spanned.4, serial.4, "{label}: split repair T=2 == T=1");
}

/// A T = 2 executor cuts long sectors into spans for `execute_wire` and
/// for `wire_partials`' phase A, and still matches T = 1.
#[test]
fn spanned_wire_execution_matches_serial() {
    let paper = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("paper code");
    let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    for strategy in [
        Strategy::PpmNormalRest,
        Strategy::PpmMatrixFirstRest,
        Strategy::TraditionalNormal,
    ] {
        assert_spanned_matches_serial(&paper, &scenario, strategy);
    }
    let lrc = LrcCode::<u8>::new(6, 2, 2, 4).expect("code");
    let h = lrc.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed_from_env());
    let spread = (0..100)
        .map(|_| lrc.spread_disk_failures(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable spread outage within budget");
    assert_spanned_matches_serial(&lrc, &spread, Strategy::PpmAuto);
}
