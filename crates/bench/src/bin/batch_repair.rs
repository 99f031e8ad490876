//! Device-repair throughput: many stripes, one failure pattern.
//!
//! The paper's context is whole-system repair ("failures happen in
//! bursts"): when devices die, *every* stripe must be decoded. This
//! experiment measures repair throughput over a batch of stripes,
//! comparing the traditional serial method, PPM per stripe, and the
//! stripe-level batch driver (`RepairService::repair_batch`, our
//! extension), with one cached plan amortized across the whole batch.
//!
//! `cargo run --release -p ppm-bench --bin batch_repair [--stripe-mib N]`

use ppm_bench::{improvement, throughput_mbs, ExpArgs, Table};
use ppm_codes::ErasureCode;
use ppm_core::{encode, Decoder, DecoderConfig, RepairService, Strategy};
use ppm_gf::Backend;
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn main() {
    let args = ExpArgs::parse();
    let (n, r, m, s, z) = (8usize, 16usize, 2usize, 2usize, 1usize);
    let batch = if args.full { 64 } else { 16 };
    let per_stripe = (args.stripe_bytes / 4).max(64 * n * r);

    let code = ppm_codes::SdCode::<u8>::search(n, r, m, s, args.seed, 3).expect("search");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let scenario = code
        .decodable_worst_case(z, &mut rng, 300)
        .expect("scenario");

    // Build and encode the batch.
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let mut pristine = Vec::with_capacity(batch);
    for i in 0..batch {
        let mut stripe = random_data_stripe(&code, per_stripe / (n * r) / 8 * 8, &mut rng);
        encode(&code, &enc, &mut stripe).unwrap_or_else(|e| panic!("encode {i}: {e}"));
        pristine.push(stripe);
    }
    let total_bytes: usize = pristine.iter().map(|s| s.total_bytes()).sum();
    println!(
        "repairing {batch} stripes x {:.1} MiB ({} lost sectors each, {})\n",
        pristine[0].total_bytes() as f64 / (1 << 20) as f64,
        scenario.len(),
        code.name()
    );

    let t = Table::new(&["method", "time", "MB/s", "improvement"]);
    let mut base_time = None;
    for (label, strategy, threads) in [
        (
            "traditional, per stripe",
            Strategy::TraditionalNormal,
            1usize,
        ),
        ("PPM, per stripe (T=1)", Strategy::PpmAuto, 1),
        ("PPM, batch over stripes", Strategy::PpmAuto, args.threads),
    ] {
        let service = RepairService::new(
            &code,
            DecoderConfig {
                threads,
                backend: Backend::Auto,
            },
        )
        .with_strategy(strategy);
        // Build the plan outside the timed region: every rep is warm.
        service.plan_for(&scenario).expect("plan");
        let mut best = f64::INFINITY;
        for _ in 0..args.reps {
            let mut broken: Vec<_> = pristine.clone();
            for b in &mut broken {
                b.erase(&scenario);
            }
            let t0 = Instant::now();
            service
                .repair_batch(&mut broken, &scenario, threads)
                .expect("repair");
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(broken, pristine, "{label}: repair must be bit-exact");
        }
        let imp = base_time.map_or(0.0, |b| improvement(b, best));
        if base_time.is_none() {
            base_time = Some(best);
        }
        t.row(&[
            label.to_string(),
            format!("{:.2}ms", best * 1e3),
            format!("{:.0}", throughput_mbs(total_bytes, best)),
            format!("{:+.1}%", 100.0 * imp),
        ]);
    }
    println!(
        "\n(single-core host: the batch path shows the plan-amortization\n\
         effect here; on a multi-core machine it additionally spreads\n\
         stripes across cores — see DESIGN.md §3)"
    );
}
