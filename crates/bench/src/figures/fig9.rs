//! Figure 9: PPM improvement for SD across stripe sizes.
//!
//! Sweeps stripe size 2 MB .. 128 MB at n = 16, r = 16, T = 4, z = 1, for
//! every `(m, s)`. Paper shape: the multi-threading overhead matters less
//! as the stripe grows, so the improvement climbs and then plateaus once
//! stripe size exceeds ~8 MB.
//!
//! `figures fig9 [--full]`
//! (`--full` extends the sweep to 128 MiB; default stops at 32 MiB. The
//! sweep sets the stripe size itself, so `--stripe-mib` has no effect.)

use super::host_header;
use crate::table::signed_pct;
use crate::{
    improvement, modeled_decode_time, prepare_sd, time_plan, ExpArgs, Table, SPAWN_OVERHEAD,
};
use ppm_core::Strategy;
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (n, r, z) = (16usize, 16usize, 1usize);
    let sim_cores = 4usize;
    let sizes_mib: Vec<usize> = if args.full {
        vec![2, 4, 8, 16, 32, 64, 128]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    let combos: Vec<(usize, usize)> = if args.full {
        (1..=3).flat_map(|m| (1..=3).map(move |s| (m, s))).collect()
    } else {
        vec![(1, 1), (2, 2), (3, 3)]
    };

    host_header(args, out)?;
    writeln!(
        out,
        "# Figure 9: improvement vs stripe size (n={n}, r={r}, T=4*, z={z})\n"
    )?;
    let mut headers = vec!["stripe".to_string()];
    headers.extend(combos.iter().map(|(m, s)| format!("m={m},s={s}")));
    let mut t = Table::new(out, &headers.iter().map(String::as_str).collect::<Vec<_>>());

    for &mib in &sizes_mib {
        let mut cells = vec![format!("{mib}MiB")];
        for &(m, s) in &combos {
            let cell = prepare_sd(n, r, m, s, z, mib << 20, args.seed)
                .map(|prep| {
                    let (base, _) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
                    let (opt, plan) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
                    let modeled =
                        modeled_decode_time(&plan, opt, args.threads, sim_cores, SPAWN_OVERHEAD);
                    signed_pct(improvement(base, modeled))
                })
                .unwrap_or_else(|| "-".into());
            cells.push(cell);
        }
        t.row(&cells);
    }
    t.finish()?;
    writeln!(
        out,
        "\npaper: improvement becomes steady once stripe size exceeds 8 MB\n\
         (* = T=4 on a simulated 4-core machine; see DESIGN.md §3)"
    )
}
