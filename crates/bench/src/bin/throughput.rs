//! Shared-session repair throughput: one `RepairService`, many workers.
//!
//! The concurrency story of the session layer, end to end: a ≥10k-stripe
//! repair job is driven through `RepairService::repair_batch` with the
//! plan cache warm, sweeping the stripe-level worker count over
//! {1, 2, 4, 8}. Each point reports the *measured* throughput in
//! stripes/s on the cores this host has — no projection, no scaling
//! gate (regression-gated scaling is `benchmark/`'s
//! `service.batch_speedup`).
//!
//! The run closes with a single-flight demonstration: eight threads
//! released by a barrier against one cold session must produce exactly
//! one plan build (`misses == 1`), the other seven coalescing onto it.
//!
//! `cargo run --release -p ppm-bench --bin throughput [--smoke] [--reps N] [--threads T] [--seed N]`

use ppm_bench::{write_bench_json, ExpArgs, Table};
use ppm_codes::{ErasureCode, FailureScenario, SdCode};
use ppm_core::{Decoder, DecoderConfig, RepairService, Strategy};
use ppm_gf::Backend;
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Barrier;
use std::time::Instant;

fn main() {
    let args = ExpArgs::parse();
    let (n, r, m, s, z) = (6usize, 4usize, 2usize, 1usize, 1usize);
    let batch = if args.smoke { 1_000 } else { 10_000 };
    let sector_bytes = 128usize;

    let code = SdCode::<u8>::search(n, r, m, s, args.seed, 3).expect("search");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let scenario = code
        .decodable_worst_case(z, &mut rng, 300)
        .expect("scenario");

    // Encode the batch through one shared plan (encoding is decoding
    // with every parity sector faulty), small sectors so the job is
    // plan-bound rather than memory-bound.
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let parity = FailureScenario::new(code.parity_sectors());
    let enc_plan = enc
        .plan(&h, &parity, Strategy::PpmAuto)
        .expect("encode plan");
    let mut pristine = Vec::with_capacity(batch);
    for _ in 0..batch {
        let mut stripe = random_data_stripe(&code, sector_bytes, &mut rng);
        enc.decode(&enc_plan, &mut stripe).expect("encode");
        pristine.push(stripe);
    }
    println!(
        "repairing {batch} stripes x {} B sectors ({} lost sectors each, {})\n",
        sector_bytes,
        scenario.len(),
        code.name()
    );

    // threads = 1: with 128 B sectors the intra-stripe thread budget is
    // pure spawn overhead. This sweep isolates the stripe-level axis;
    // the intra-stripe axis is fig9's experiment.
    let service = RepairService::new(
        &code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    // Warm the plan cache so the sweep times repair, not planning.
    {
        let mut warm = pristine[0].clone();
        warm.erase(&scenario);
        service.repair(&mut warm, &scenario).expect("warm repair");
        assert_eq!(warm, pristine[0], "warm repair must be bit-exact");
    }

    let table = Table::new(&["workers", "mode", "measured", "stripes/s"]);
    let mut json_rows: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut inter = false;
        for _ in 0..args.reps {
            let mut broken = pristine.clone();
            for b in &mut broken {
                b.erase(&scenario);
            }
            let t0 = Instant::now();
            let report = service
                .repair_batch(&mut broken, &scenario, workers)
                .expect("repair_batch");
            best = best.min(t0.elapsed().as_secs_f64());
            inter = report.inter_stripe;
            assert_eq!(
                broken, pristine,
                "{workers}-worker repair must be bit-exact"
            );
        }
        table.row(&[
            workers.to_string(),
            if inter {
                "inter-stripe"
            } else {
                "intra-stripe"
            }
            .to_string(),
            format!("{:.2}ms", best * 1e3),
            format!("{:.0}", batch as f64 / best),
        ]);
        json_rows.push(format!(
            "{{\"workers\":{workers},\"inter_stripe\":{inter},\"measured_secs\":{best:.6},\
             \"stripes_per_sec\":{:.1}}}",
            batch as f64 / best
        ));
    }
    let json = format!(
        "{{\"experiment\":\"throughput\",\"seed\":{},\"batch\":{batch},\"sector_bytes\":{sector_bytes},\
         \"sweep\":[{}]}}",
        args.seed,
        json_rows.join(",")
    );
    let json_path = write_bench_json("throughput", &json);
    println!("json: {}", json_path.display());
    // Single-flight demonstration: a cold session, eight threads released
    // together on the same key — exactly one factorization may happen.
    let cold = RepairService::new(
        &code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for stripe in pristine.iter().take(8) {
            let mut broken = stripe.clone();
            let (cold, barrier, scenario) = (&cold, &barrier, &scenario);
            scope.spawn(move || {
                broken.erase(scenario);
                barrier.wait();
                cold.repair(&mut broken, scenario).expect("cold repair");
            });
        }
    });
    let cs = cold.cache_stats();
    assert_eq!(
        cs.misses, 1,
        "single-flight must build the plan exactly once"
    );
    println!(
        "single-flight: 8 concurrent cold repairs -> {} build, {} hits, {} coalesced",
        cs.misses, cs.hits, cs.coalesced
    );
}
