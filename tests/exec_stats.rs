//! Runtime cross-check of the §III-B cost model: the telemetry every
//! [`Decoder::decode`] returns must report *exactly* the number of
//! `mult_XORs` the planner predicted. The executed counters are bumped by
//! the region kernels themselves, so any drift between the plan compiler
//! and the data path — a skipped term, a double-applied coefficient, a
//! wrong sub-plan split — breaks the `executed == predicted` equality.

use ppm::core::cost::analyze;
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, Decoder, DecoderConfig, ErasureCode, ExecStats, FailureScenario, GfWord,
    LrcCode, PmdsCode, SdCode, Strategy,
};
use rand::{rngs::StdRng, SeedableRng};

/// Four 4 KiB spans and a 24-byte tail: a T = 2 decoder cuts these
/// sectors into spans.
const SPANNED_SECTOR_BYTES: usize = 4 * 4096 + 24;

fn decoder(threads: usize) -> Decoder {
    Decoder::new(DecoderConfig {
        threads,
        backend: Backend::Scalar,
    })
}

/// Encodes a fresh stripe, erases `scenario`, decodes with stats, and
/// checks the executed/predicted ledger plus full recovery.
fn check<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    scenario: &FailureScenario,
    threads: usize,
    strategy: Strategy,
    seed: u64,
) -> ExecStats {
    let dec = decoder(threads);
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(code, 64 * W::BYTES, &mut rng);
    encode(code, &dec, &mut stripe).expect("encode");
    let pristine = stripe.clone();
    stripe.erase(scenario);

    let plan = dec.plan(&h, scenario, strategy).expect("plan");
    let stats = dec.decode(&plan, &mut stripe).expect("decode");
    assert_eq!(
        stripe,
        pristine,
        "{}: decode must restore the stripe ({strategy:?}, T={threads})",
        code.name()
    );

    // A T = 2 decode of long sectors replays every segment once per
    // span, but the ledger stays sector-granular: same op counts, bytes
    // scaled by the sector size.
    let mut spanned = random_data_stripe(code, SPANNED_SECTOR_BYTES, &mut rng);
    encode(code, &dec, &mut spanned).expect("encode");
    let spanned_pristine = spanned.clone();
    spanned.erase(scenario);
    let by_spans = decoder(2)
        .decode(&plan, &mut spanned)
        .expect("spanned decode");
    assert_eq!(spanned, spanned_pristine, "{}: spanned decode", code.name());
    assert_eq!(by_spans.executed_mult_xors(), stats.executed_mult_xors());
    assert_eq!(by_spans.executed_plain_xors(), stats.executed_plain_xors());
    assert_eq!(
        by_spans.bytes_moved() * pristine.sector_bytes() as u64,
        stats.bytes_moved() * SPANNED_SECTOR_BYTES as u64
    );

    // The ledger: executed region ops == the plan's predicted cost.
    assert_eq!(
        stats.executed_mult_xors(),
        plan.mult_xors() as u64,
        "{}: executed != predicted ({strategy:?}, T={threads})",
        code.name()
    );
    assert!(stats.matches_prediction());
    assert_eq!(stats.predicted_mult_xors, plan.mult_xors());
    assert_eq!(stats.strategy, plan.strategy());
    assert_eq!(stats.threads, threads);
    assert_eq!(stats.parallelism, plan.parallelism());
    assert_eq!(stats.phase_a.len(), plan.parallelism());
    assert_eq!(stats.phase_b.is_some(), plan.has_phase_b());
    assert!(stats.executed_plain_xors() <= stats.executed_mult_xors());
    let u = stats.thread_utilization();
    assert!((0.0..=1.0).contains(&u), "utilization {u}");
    stats
}

/// SD worst-case grid (the paper's evaluation shape): every concrete
/// strategy and the auto strategy, serial and with the paper's T = 4.
#[test]
fn sd_worst_case_grid_executed_equals_predicted() {
    let mut rng = StdRng::seed_from_u64(41);
    for (n, r, m, s) in [(4usize, 4usize, 1usize, 1usize), (6, 8, 2, 2), (6, 6, 2, 1)] {
        let code = match SdCode::<u8>::with_generator_coeffs(n, r, m, s) {
            Ok(c) => c,
            Err(_) => SdCode::<u8>::search(n, r, m, s, 11, 2).unwrap(),
        };
        for z in 1..=s {
            let Some(sc) = code.decodable_worst_case(z, &mut rng, 200) else {
                continue;
            };
            let report = analyze(&code.parity_check_matrix(), &sc).unwrap();
            for threads in [1usize, 4] {
                for (strategy, predicted) in [
                    (Strategy::TraditionalNormal, report.c1),
                    (Strategy::TraditionalMatrixFirst, report.c2),
                    (Strategy::PpmMatrixFirstRest, report.c3),
                    (Strategy::PpmNormalRest, report.c4),
                    (Strategy::PpmAuto, report.best().1),
                ] {
                    let stats = check(&code, &sc, threads, strategy, 500 + z as u64);
                    assert_eq!(
                        stats.executed_mult_xors(),
                        predicted as u64,
                        "n={n} r={r} m={m} s={s} z={z} T={threads} {strategy:?}: \
                         executed != cost::analyze prediction"
                    );
                }
            }
        }
    }
}

/// The auto strategy's stats carry the full predicted `C₁..C₄` report,
/// and it matches an independent `cost::analyze` run.
#[test]
fn auto_stats_carry_cost_report() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let report = analyze(&code.parity_check_matrix(), &sc).unwrap();
    assert_eq!(
        (report.c1, report.c2, report.c3, report.c4),
        (35, 31, 37, 29)
    );

    for threads in [1usize, 4] {
        let stats = check(&code, &sc, threads, Strategy::PpmAuto, 7);
        let carried = stats.predicted_costs.expect("auto plan carries C1..C4");
        assert_eq!(carried, report);
        // The paper's winner: C4 = 29 with p = 3.
        assert_eq!(stats.strategy, Strategy::PpmNormalRest);
        assert_eq!(stats.executed_mult_xors(), 29);
        assert_eq!(stats.parallelism, 3);
    }
}

/// Concrete (non-auto) plans don't price the other candidates.
#[test]
fn concrete_stats_have_no_cost_report() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let stats = check(&code, &sc, 2, Strategy::PpmNormalRest, 8);
    assert!(stats.predicted_costs.is_none());
}

/// PMDS and LRC: the equality is code-family independent.
#[test]
fn pmds_and_lrc_executed_equals_predicted() {
    let pmds = PmdsCode::<u8>::search(5, 4, 1, 1, 99, 3).unwrap();
    let h = pmds.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(17);
    // A decodable PMDS-style scattered pattern (retry until full rank).
    let sc = std::iter::repeat_with(|| pmds.scattered_scenario(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .unwrap();
    for threads in [1usize, 4] {
        check(&pmds, &sc, threads, Strategy::PpmAuto, 23);
    }

    let lrc = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(19);
    let sc = lrc.decodable_disk_failures(4, &mut rng, 500).unwrap();
    for threads in [1usize, 4] {
        check(&lrc, &sc, threads, Strategy::PpmAuto, 29);
    }
}

/// Wider GF words flow through the same counted kernels.
#[test]
fn gf16_executed_equals_predicted() {
    let code = SdCode::<u16>::with_generator_coeffs(5, 4, 1, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(37);
    if let Some(sc) = code.decodable_worst_case(1, &mut rng, 50) {
        for threads in [1usize, 4] {
            check(&code, &sc, threads, Strategy::PpmAuto, 31);
        }
    }
}

/// Satellite regression: a plan pruned by [`DecodePlan::restrict_to`]
/// must not carry the *full* plan's `C₁..C₄` report (the restricted
/// work no longer matches those prices), and its executed ledger must
/// equal its own re-computed `mult_xors()` prediction.
#[test]
fn restricted_plan_invalidates_cost_report_and_stays_on_ledger() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let h = code.parity_check_matrix();
    let dec = decoder(2);
    let mut rng = StdRng::seed_from_u64(11);
    let mut stripe = random_data_stripe(&code, 64, &mut rng);
    encode(&code, &dec, &mut stripe).expect("encode");
    let pristine = stripe.clone();

    let full = dec.plan(&h, &sc, Strategy::PpmAuto).expect("plan");
    assert!(full.predicted_costs().is_some(), "auto plan carries C1..C4");

    for wanted in [vec![2usize], vec![13], vec![6, 14], sc.faulty().to_vec()] {
        let plan = full.restrict_to(&wanted);
        // The carried report is explicitly invalidated, never stale.
        assert!(
            plan.predicted_costs().is_none(),
            "restricted plan must drop the full-plan cost report"
        );
        assert!(plan.mult_xors() <= full.mult_xors());

        let mut broken = pristine.clone();
        broken.erase(&sc);
        let stats = dec.decode(&plan, &mut broken).expect("decode");
        for &w in &wanted {
            assert_eq!(broken.sector(w), pristine.sector(w), "wanted {w}");
        }
        // Executed work matches the *restricted* plan's own prediction.
        assert_eq!(
            stats.executed_mult_xors(),
            plan.mult_xors() as u64,
            "restricted to {wanted:?}: executed != predicted"
        );
        assert!(stats.matches_prediction());
        assert!(stats.predicted_costs.is_none());
    }
}

/// A T = 2 decode of sectors cut into spans reports one ledger for the
/// whole stripe: executed == predicted, every term moves one whole
/// sector, one phase-A entry per independent sub-matrix, and the two
/// phase times (shares of the span map's wall time) inside the decode's.
#[test]
fn spanned_decode_stats_stay_on_ledger() {
    let code = SdCode::<u8>::search(6, 8, 2, 2, 3, 3).unwrap();
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(43);
    let sc = code.decodable_worst_case(2, &mut rng, 200).unwrap();
    let dec = decoder(2);
    let mut stripe = random_data_stripe(&code, SPANNED_SECTOR_BYTES, &mut rng);
    encode(&code, &dec, &mut stripe).expect("encode");
    let pristine = stripe.clone();
    stripe.erase(&sc);
    let plan = dec.plan(&h, &sc, Strategy::PpmAuto).expect("plan");
    assert!(plan.parallelism() > 1 && plan.has_phase_b());
    let stats = dec.decode(&plan, &mut stripe).expect("decode");
    assert_eq!(stripe, pristine);

    assert!(stats.matches_prediction());
    assert_eq!(stats.executed_mult_xors(), plan.mult_xors() as u64);
    assert_eq!(
        stats.bytes_moved(),
        SPANNED_SECTOR_BYTES as u64 * stats.executed_mult_xors()
    );
    assert_eq!(stats.phase_a.len(), stats.parallelism);
    assert!(stats.phase_a_nanos + stats.phase_b_nanos() <= stats.total_nanos);
}

/// The JSON rendering of a real run contains the ledger keys.
#[test]
fn stats_json_from_real_run() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let stats = check(&code, &sc, 4, Strategy::PpmAuto, 3);
    let json = stats.to_json();
    for key in [
        "\"strategy\":\"PpmNormalRest\"",
        "\"predicted_mult_xors\":29",
        "\"executed_mult_xors\":29",
        "\"matches_prediction\":true",
        "\"c1\":35",
        "\"phase_a\":[",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
