//! Differential test: the region-operation decoder must agree with the
//! word-level oracle of `tests/common` (pure `Matrix` arithmetic) under
//! every strategy, thread budget and region backend, over all three
//! field widths.

mod common;

use common::reference_decode;
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, Decoder, DecoderConfig, ErasureCode, FailureScenario, GfWord, LrcCode, SdCode,
    Strategy,
};
use rand::{rngs::StdRng, SeedableRng};

fn differential<W: GfWord, C: ErasureCode<W>>(code: &C, scenario: &FailureScenario, seed: u64) {
    let h = code.parity_check_matrix();
    let enc = Decoder::new(DecoderConfig {
        threads: 2,
        backend: Backend::Auto,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(code, 40 * W::BYTES.max(2), &mut rng);
    encode(code, &enc, &mut stripe).unwrap();
    let pristine = stripe.clone();

    // Reference path.
    let mut by_reference = pristine.clone();
    by_reference.erase(scenario);
    assert!(
        reference_decode(&h, scenario, &mut by_reference),
        "reference: scenario must be decodable"
    );
    assert_eq!(
        by_reference,
        pristine,
        "{}: reference decoder wrong",
        code.name()
    );

    // Region path: every strategy under the full decoder configuration
    // matrix — serial and parallel executors, scalar and (where the host
    // supports it) SIMD region kernels must all agree with the word-level
    // reference.
    let backends = match Backend::detect() {
        Backend::Scalar => vec![Backend::Scalar],
        simd => vec![Backend::Scalar, simd],
    };
    for threads in [1usize, 2, 4] {
        for &backend in &backends {
            let decoder = Decoder::new(DecoderConfig { threads, backend });
            for strategy in [
                Strategy::TraditionalNormal,
                Strategy::TraditionalMatrixFirst,
                Strategy::PpmMatrixFirstRest,
                Strategy::PpmNormalRest,
                Strategy::PpmAuto,
            ] {
                let mut by_regions = pristine.clone();
                by_regions.erase(scenario);
                decoder
                    .decode_scenario(&h, scenario, strategy, &mut by_regions)
                    .unwrap();
                assert_eq!(
                    by_regions,
                    by_reference,
                    "{}: region decoder diverges from reference \
                     ({strategy:?}, T={threads}, {backend:?})",
                    code.name()
                );
            }
        }
    }
}

#[test]
fn sd_gf8_matches_reference() {
    let code = SdCode::<u8>::search(6, 6, 2, 2, 9, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let sc = code.decodable_worst_case(1, &mut rng, 100).unwrap();
    differential(&code, &sc, 10);
}

#[test]
fn sd_gf16_matches_reference() {
    let code = SdCode::<u16>::search(5, 4, 1, 2, 9, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let sc = code.decodable_worst_case(2, &mut rng, 100).unwrap();
    differential(&code, &sc, 11);
}

#[test]
fn sd_gf32_matches_reference() {
    let code = SdCode::<u32>::search(5, 4, 1, 1, 9, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let sc = code.decodable_worst_case(1, &mut rng, 100).unwrap();
    differential(&code, &sc, 12);
}

#[test]
fn lrc_matches_reference() {
    let code = LrcCode::<u8>::new(6, 2, 2, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let sc = code.spread_disk_failures(&mut rng);
    differential(&code, &sc, 13);
}

#[test]
fn partial_failure_matches_reference() {
    let code = SdCode::<u8>::new(6, 4, 2, 2, vec![1, 2, 4, 8]).unwrap();
    let sc = FailureScenario::new(vec![0, 9, 21]);
    let h = code.parity_check_matrix();
    if h.select_columns(sc.faulty()).rank() == sc.len() {
        differential(&code, &sc, 14);
    }
}
