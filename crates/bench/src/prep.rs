//! Instance preparation and the timing loop shared by the figures.

use ppm_codes::{ErasureCode, FailureScenario, LrcCode, RsCode, SdCode};
use ppm_core::{encode, DecodePlan, Decoder, DecoderConfig, Strategy};
use ppm_gf::{Backend, GfWord};
use ppm_matrix::Matrix;
use ppm_stripe::{random_data_stripe, Stripe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A ready-to-measure experiment: encoded stripe + failure scenario.
pub struct Prepared<W: GfWord> {
    /// Instance name for table labels.
    pub name: String,
    /// The parity-check matrix.
    pub h: Matrix<W>,
    /// The injected failure.
    pub scenario: FailureScenario,
    /// The encoded, intact stripe (ground truth).
    pub pristine: Stripe,
}

fn sector_bytes(stripe_bytes: usize, sectors: usize) -> usize {
    (stripe_bytes / sectors / 8 * 8).max(8)
}

/// Encodes a random stripe of roughly `stripe_bytes` under `code` and
/// pairs it with `scenario`. `rng` is the stream the caller drew the
/// scenario from, so one seed fixes both. Returns `None` if the scenario
/// is not decodable or encoding fails.
pub fn prepare<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    scenario: FailureScenario,
    stripe_bytes: usize,
    rng: &mut StdRng,
) -> Option<Prepared<W>> {
    let h = code.parity_check_matrix();
    if h.select_columns(scenario.faulty()).rank() < scenario.len() {
        return None;
    }
    let sectors = code.layout().sectors();
    let mut pristine = random_data_stripe(code, sector_bytes(stripe_bytes, sectors), rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Builds an SD instance over GF(2^8) — see [`prepare_sd_w`] for other
/// word widths.
pub fn prepare_sd(
    n: usize,
    r: usize,
    m: usize,
    s: usize,
    z: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    prepare_sd_w::<u8>(n, r, m, s, z, stripe_bytes, seed)
}

/// Builds an SD instance (coefficient search), encodes a stripe of
/// roughly `stripe_bytes`, and draws a decodable worst-case scenario
/// (`m` disks + `s` sectors on `z` rows). Returns `None` if no decodable
/// instance/scenario is found within the search budget.
pub fn prepare_sd_w<W: GfWord>(
    n: usize,
    r: usize,
    m: usize,
    s: usize,
    z: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<W>> {
    let code = SdCode::<W>::with_generator_coeffs(n, r, m, s)
        .or_else(|_| SdCode::<W>::search(n, r, m, s, seed, 2))
        .ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = if s == 0 {
        FailureScenario::sd_worst_case(code.layout(), m, 0, 0, &mut rng)
    } else {
        code.decodable_worst_case(z, &mut rng, 300)?
    };
    prepare(&code, scenario, stripe_bytes, &mut rng)
}

/// Builds a `(k,l,g)`-LRC with `r` rows, encodes, and injects the
/// maximum-tolerable spread outage (`l + g` disks: one per local group
/// plus the global parities — see [`LrcCode::spread_disk_failures`]).
pub fn prepare_lrc(
    k: usize,
    l: usize,
    g: usize,
    r: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    let code = LrcCode::<u8>::new(k, l, g, r).ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = code.spread_disk_failures(&mut rng);
    prepare(&code, scenario, stripe_bytes, &mut rng)
}

/// Builds an RS baseline (`k` data + `m` parity strips) and an `m`-disk
/// failure, generic over the word width (the paper overlays RS at
/// w = 8, 16, 32).
pub fn prepare_rs<W: GfWord>(
    k: usize,
    m: usize,
    r: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<W>> {
    let code = RsCode::<W>::new(k, m, r).ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = code.random_disk_failures(m, &mut rng);
    prepare(&code, scenario, stripe_bytes, &mut rng)
}

/// Times decoding `prep` with the given strategy and thread budget on
/// the `Backend::Auto` kernels: best-of-`reps` wall-clock seconds, plus
/// the plan (for cost/parallelism introspection). Panics if recovery is
/// not bit-exact.
pub fn time_plan<W: GfWord>(
    prep: &Prepared<W>,
    strategy: Strategy,
    threads: usize,
    reps: usize,
) -> (f64, DecodePlan<W>) {
    time_plan_on(prep, strategy, threads, reps, Backend::Auto)
}

/// [`time_plan`] on an explicit region-kernel backend.
pub fn time_plan_on<W: GfWord>(
    prep: &Prepared<W>,
    strategy: Strategy,
    threads: usize,
    reps: usize,
    backend: Backend,
) -> (f64, DecodePlan<W>) {
    let decoder = Decoder::new(DecoderConfig { threads, backend });
    let plan = decoder
        .plan(&prep.h, &prep.scenario, strategy)
        .expect("plan");
    let mut scratch = prep.pristine.clone();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        scratch.erase(&prep.scenario);
        let t = Instant::now();
        decoder.decode(&plan, &mut scratch).expect("decode");
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(
        scratch == prep.pristine,
        "{}: recovery not bit-exact",
        prep.name
    );
    (best, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_time_sd() {
        let prep = prepare_sd(6, 4, 1, 1, 1, 64 * 24, 3).expect("prep");
        let (secs, plan) = time_plan(&prep, Strategy::PpmAuto, 2, 2);
        assert!(secs > 0.0);
        assert!(plan.mult_xors() > 0);
        assert_eq!(plan.parallelism(), 3); // r - z
    }

    #[test]
    fn prepare_lrc_and_rs() {
        let lrc = prepare_lrc(4, 2, 2, 2, 4096, 5).expect("lrc");
        let (secs, _) = time_plan(&lrc, Strategy::TraditionalNormal, 1, 1);
        assert!(secs > 0.0);
        let rs = prepare_rs::<u8>(4, 2, 2, 4096, 5).expect("rs");
        let (secs, _) = time_plan(&rs, Strategy::TraditionalMatrixFirst, 1, 1);
        assert!(secs > 0.0);
    }

    #[test]
    fn sector_bytes_floors_and_aligns() {
        assert_eq!(sector_bytes(1 << 20, 256), 4096);
        assert_eq!(sector_bytes(100, 256), 8);
        assert_eq!(sector_bytes(1000, 3), 328);
    }
}
