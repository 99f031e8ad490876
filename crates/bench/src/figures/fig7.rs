//! Figure 7: PPM improvement under different thread budgets `T`.
//!
//! For each SD configuration (stripe 32 MB, r = 16, z = 1 in the paper),
//! decode with the traditional method (C₁, one thread) and with PPM at
//! T = 1, 2, 3, 4. Paper shape: improvement grows with T while
//! T ≤ core-count, then reverses; with m = 1 the optimum is T = 2.
//!
//! The `meas` columns are real wall-clock on this host: the traditional
//! method and PPM at T = 1, and PPM again at T = nproc — the one thread
//! count this host can really run in parallel. The `model` columns stand
//! in for the paper's 4-core E5-2603: the §III-C execution model,
//! calibrated on the measured serial run — see DESIGN.md §3.
//!
//! `figures fig7 [--stripe-mib 32] [--full]`

use super::{host_header, nproc};
use crate::table::{secs, signed_pct};
use crate::{
    improvement, modeled_decode_time, prepare_sd, time_plan, ExpArgs, Table, SPAWN_OVERHEAD,
};
use ppm_core::Strategy;
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (r, z) = (16usize, 1usize);
    let host_threads = nproc();
    let sim_cores = 4usize; // the paper's Figure 7 machine: 4-core E5-2603
    let ns: Vec<usize> = if args.full {
        vec![6, 11, 16, 21]
    } else {
        vec![6, 16]
    };
    let ms: Vec<usize> = vec![1, 2, 3];
    let ss: Vec<usize> = if args.full { vec![1, 2, 3] } else { vec![1, 3] };

    host_header(args, out)?;
    writeln!(
        out,
        "# Figure 7: improvement of PPM over traditional (C1) vs T\n\
         # stripe {:.0} MiB, r={r}, z={z}; modeled columns simulate {sim_cores} cores\n",
        args.stripe_mib()
    )?;
    let mut t = Table::new(
        out,
        &[
            "config",
            "C1 time",
            "T=1 meas",
            &format!("T={host_threads} meas"),
            "T=2 model",
            "T=3 model",
            "T=4 model",
            "T=6 model",
        ],
    );

    for &s in &ss {
        for &m in &ms {
            for &n in &ns {
                if n <= m || s > n - m {
                    continue;
                }
                let Some(prep) = prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed) else {
                    continue;
                };
                let (base, _) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
                let (serial, plan) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
                let (threaded, _) = time_plan(&prep, Strategy::PpmAuto, host_threads, args.reps);
                let model = |threads: usize| {
                    let t = modeled_decode_time(&plan, serial, threads, sim_cores, SPAWN_OVERHEAD);
                    signed_pct(improvement(base, t))
                };
                t.row(&[
                    format!("n={n} m={m} s={s}"),
                    secs(base),
                    signed_pct(improvement(base, serial)),
                    signed_pct(improvement(base, threaded)),
                    model(2),
                    model(3),
                    model(4),
                    model(6),
                ]);
            }
        }
    }
    t.finish()?;
    writeln!(
        out,
        "\npaper: improvement increases with T up to T = corenumbers, then reverses;\n\
         T=2 already averages +46.29% (range +8.45% .. +178.38%)."
    )
}
