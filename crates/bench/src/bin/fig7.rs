//! Figure 7: PPM improvement under different thread budgets `T`.
//!
//! For each SD configuration (stripe 32 MB, r = 16, z = 1 in the paper),
//! decode with the traditional method (C₁, one thread) and with PPM at
//! T = 1, 2, 3, 4. Paper shape: improvement grows with T while
//! T ≤ core-count, then reverses; with m = 1 the optimum is T = 2.
//!
//! The measured column is real wall-clock on this host. Because this
//! evaluation container exposes a single CPU core, thread scaling is also
//! reported from the §III-C execution model calibrated on the measured
//! serial run, for a simulated 4-core machine (the paper's E5-2603) —
//! see DESIGN.md §3.
//!
//! `cargo run --release -p ppm-bench --bin fig7 [--stripe-mib 32] [--full]`

use ppm_bench::{improvement, modeled_decode_time, ExpArgs, Table};
use ppm_core::Strategy;

/// Per-thread spawn overhead assumed by the model: the order of
/// magnitude of creating and joining one scoped thread (`par_map` spawns
/// per decode, as the paper does). An assumption, not a measurement —
/// `benchmark/`'s `executor.thread_speedup` is the measured counterpart.
const SPAWN_OVERHEAD: f64 = 15e-6;

fn main() {
    let args = ExpArgs::parse();
    let (r, z) = (16usize, 1usize);
    let sim_cores = 4usize; // the paper's Figure 7 machine: 4-core E5-2603
    let ns: Vec<usize> = if args.full {
        vec![6, 11, 16, 21]
    } else {
        vec![6, 16]
    };
    let ms: Vec<usize> = vec![1, 2, 3];
    let ss: Vec<usize> = if args.full { vec![1, 2, 3] } else { vec![1, 3] };

    println!(
        "# Figure 7: improvement of PPM over traditional (C1) vs T\n\
         # stripe {:.0} MiB, r={r}, z={z}; modeled columns simulate {sim_cores} cores\n",
        args.stripe_mib()
    );
    let t = Table::new(&[
        "config",
        "C1 time",
        "T=1 meas",
        "T=2 model",
        "T=3 model",
        "T=4 model",
        "T=6 model",
    ]);

    for &s in &ss {
        for &m in &ms {
            for &n in &ns {
                if n <= m || s > n - m {
                    continue;
                }
                let Some(prep) = ppm_bench::prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed)
                else {
                    continue;
                };
                let (base, _) =
                    ppm_bench::time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
                let (serial, plan) = ppm_bench::time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
                let model = |threads: usize| {
                    let t = modeled_decode_time(&plan, serial, threads, sim_cores, SPAWN_OVERHEAD);
                    format!("{:+.1}%", 100.0 * improvement(base, t))
                };
                t.row(&[
                    format!("n={n} m={m} s={s}"),
                    format!("{:.2}ms", base * 1e3),
                    format!("{:+.1}%", 100.0 * improvement(base, serial)),
                    model(2),
                    model(3),
                    model(4),
                    model(6),
                ]);
            }
        }
    }
    println!(
        "\npaper: improvement increases with T up to T = corenumbers, then reverses;\n\
         T=2 already averages +46.29% (range +8.45% .. +178.38%)."
    );
}
