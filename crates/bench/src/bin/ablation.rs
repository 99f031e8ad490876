//! Ablation: which of PPM's two mechanisms buys what?
//!
//! PPM improves decoding through (1) calculation-sequence optimization
//! (cost reduction, works even single-threaded) and (2) partition
//! parallelism (needs cores). This binary isolates them on an SD worst
//! case:
//!
//! * `C1`  — traditional baseline (no sequence opt, no partition),
//! * `C2`  — sequence optimization only (matrix-first, unpartitioned),
//! * `C4 T=1` — partition + per-sub-matrix sequence choice, serial,
//! * `C4 T=4*` — full PPM with modeled 4-core parallelism,
//! * backend ablation — the same plans on the scalar vs SIMD region
//!   kernels.
//!
//! `cargo run --release -p ppm-bench --bin ablation [--stripe-mib N]`

use ppm_bench::{improvement, modeled_decode_time, modeled_decode_time_chunked, ExpArgs, Table};
use ppm_core::{Decoder, DecoderConfig, Strategy};
use ppm_gf::Backend;
use std::time::Instant;

const SPAWN_OVERHEAD: f64 = 15e-6;

fn main() {
    let args = ExpArgs::parse();
    let (n, r, m, s, z) = (16usize, 16usize, 2usize, 2usize, 1usize);
    let prep = ppm_bench::prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed)
        .expect("decodable instance");
    println!(
        "instance {} | stripe {:.0} MiB | worst case m={m} disks + s={s} sectors (z={z})\n",
        prep.name,
        args.stripe_mib()
    );

    let (base, base_plan) = ppm_bench::time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);

    let t = Table::new(&["variant", "mult_XORs", "time", "improvement"]);
    t.row(&[
        "C1 traditional".into(),
        base_plan.mult_xors().to_string(),
        format!("{:.2}ms", base * 1e3),
        "+0.0%".into(),
    ]);

    for (label, strategy) in [
        ("C2 sequence-opt only", Strategy::TraditionalMatrixFirst),
        ("C3 partition, mf rest", Strategy::PpmMatrixFirstRest),
        ("C4 partition+sequence", Strategy::PpmNormalRest),
    ] {
        let (secs, plan) = ppm_bench::time_plan(&prep, strategy, 1, args.reps);
        t.row(&[
            format!("{label} (T=1)"),
            plan.mult_xors().to_string(),
            format!("{:.2}ms", secs * 1e3),
            format!("{:+.1}%", 100.0 * improvement(base, secs)),
        ]);
    }

    let (serial, plan) = ppm_bench::time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
    let modeled = modeled_decode_time(&plan, serial, 4, 4, SPAWN_OVERHEAD);
    t.row(&[
        "full PPM (T=4, modeled*)".into(),
        plan.mult_xors().to_string(),
        format!("{:.2}ms", modeled * 1e3),
        format!("{:+.1}%", 100.0 * improvement(base, modeled)),
    ]);
    // Our extension: chunk H_rest's regions across the threads as well.
    let chunked = modeled_decode_time_chunked(&plan, serial, 4, 4, SPAWN_OVERHEAD);
    t.row(&[
        "PPM + chunked rest (T=4, modeled*)".into(),
        plan.mult_xors().to_string(),
        format!("{:.2}ms", chunked * 1e3),
        format!("{:+.1}%", 100.0 * improvement(base, chunked)),
    ]);

    // Backend ablation: same C1 plan, scalar vs best SIMD.
    println!("\nregion-kernel backend ablation (C1 plan):");
    let bt = Table::new(&["backend", "time", "speedup vs scalar"]);
    let mut scalar_time = None;
    for backend in [Backend::Scalar, Backend::Ssse3, Backend::Avx2] {
        if !backend.is_available() {
            continue;
        }
        let decoder = Decoder::new(DecoderConfig {
            threads: 1,
            backend,
        });
        let plan = decoder
            .plan(&prep.h, &prep.scenario, Strategy::TraditionalNormal)
            .expect("plan");
        let mut scratch = prep.pristine.clone();
        let mut best = f64::INFINITY;
        for _ in 0..args.reps {
            scratch.erase(&prep.scenario);
            let t0 = Instant::now();
            decoder.decode(&plan, &mut scratch).expect("decode");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        assert!(scratch == prep.pristine);
        let speedup = scalar_time
            .map(|s: f64| format!("{:.2}x", s / best))
            .unwrap_or_else(|| "1.00x".into());
        if scalar_time.is_none() {
            scalar_time = Some(best);
        }
        bt.row(&[
            format!("{backend:?}"),
            format!("{:.2}ms", best * 1e3),
            speedup,
        ]);
    }
    println!("\n(* = simulated 4 cores; see DESIGN.md §3)");
}
