//! Small writes: incremental parity updates instead of full re-encodes.
//!
//! Updates one data block through a repair session and patches only the
//! parity blocks that depend on it (`Δ`-update). The number of parity
//! sectors touched per write is where asymmetric parity pays off: an LRC
//! data write touches its one local parity plus the `g` globals; RS with
//! comparable reliability touches every parity strip.
//!
//! Run with: `cargo run --release --example small_write`

use ppm::stripe::random_data_stripe;
use ppm::{
    parity_consistent, Backend, DecoderConfig, ErasureCode, LrcCode, RepairService, RsCode, SdCode,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

fn demo<W: ppm::GfWord, C: ErasureCode<W>>(code: C, seed: u64) {
    let service = RepairService::new(
        code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    let code = service.code();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(code, 64 * 1024, &mut rng);
    service.encode(&mut stripe).expect("encode");
    let h = code.parity_check_matrix();

    let target = code.data_sectors()[0];
    let mut new_data = vec![0u8; stripe.sector_bytes()];
    rng.fill(new_data.as_mut_slice());

    // Incremental update, timed after the session builds its update plan.
    service.update_plan().expect("update plan");
    let t = Instant::now();
    let stats = service
        .apply_update(&mut stripe, &[(target, new_data.as_slice())])
        .expect("apply");
    let incremental = t.elapsed();
    assert!(parity_consistent(&h, &stripe, Backend::Auto));
    assert!(stats.matches_prediction());

    // Full re-encode of the same write, for comparison.
    let mut full = stripe.clone();
    let t = Instant::now();
    service.encode(&mut full).expect("re-encode");
    let reencode = t.elapsed();
    assert_eq!(full, stripe, "incremental update must equal re-encode");

    println!(
        "{:<28} parity touched: {:>2}/{:<2}   Δ-update {:>9.2?}   re-encode {:>9.2?}",
        code.name(),
        stats.phase_a[0].outputs,
        code.parity_sectors().len(),
        incremental,
        reencode,
    );
}

fn main() {
    println!("one 64 KiB-sector data write, parity patched incrementally:\n");
    demo(RsCode::<u8>::new(12, 4, 8).unwrap(), 1);
    demo(LrcCode::<u8>::new(12, 2, 2, 8).unwrap(), 2);
    demo(SdCode::<u8>::search(14, 8, 2, 2, 3, 3).unwrap(), 3);
    println!(
        "\nLRC touches 1 local + g globals per row-write; RS touches all m\n\
         parities — the locality asymmetric parity codes are designed for."
    );
}
