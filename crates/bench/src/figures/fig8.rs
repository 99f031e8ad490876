//! Figure 8: PPM improvement for SD ("opt-SD") across `n`, with the RS
//! baseline overlay.
//!
//! For every `(m, s)` panel the paper plots decode speed of SD vs opt-SD
//! as `n` grows (r = 16, z = 1, stripe 32 MB, T = 4) and overlays RS with
//! `m + 1` parity strips at w = 8, 16, 32. Headline: opt-SD improves on
//! SD by 61.09% on average (8.22% .. 210.81%), shrinking as `n` or `s`
//! grow and growing with `m` or `r`; opt-SD with `m` is competitive with
//! RS with `m + 1`.
//!
//! Measured columns are one-thread wall-clock (cost-reduction effect
//! only); the `impr T=4*` column adds the §III-C model of the paper's
//! 4-core machine — see DESIGN.md §3.
//!
//! `figures fig8 [--stripe-mib 32] [--full]`

use super::host_header;
use crate::table::signed_pct;
use crate::{
    improvement, modeled_decode_time, prepare_rs, prepare_sd, throughput_mbs, time_plan, ExpArgs,
    Prepared, Table, SPAWN_OVERHEAD,
};
use ppm_core::Strategy;
use std::io::{self, Write};

/// The paper's Figure 8 machine: T = 4 on the 4-core E5-2603.
const SIM_CORES: usize = 4;

/// Decode throughput of RS(k+m, k) at word width `W`, matrix-first
/// (jerasure-style generator decoding), as a table cell.
fn rs_mbs<W: ppm_gf::GfWord>(k: usize, m: usize, r: usize, args: &ExpArgs) -> String {
    let Some(p) = prepare_rs::<W>(k, m, r, args.stripe_bytes, args.seed) else {
        return "-".into();
    };
    let bytes = p.pristine.total_bytes();
    let (t, _) = time_plan(&p, Strategy::TraditionalMatrixFirst, 1, args.reps);
    format!("{:.0}", throughput_mbs(bytes, t))
}

/// The four cells both tables share — SD MB/s, opt-SD MB/s, measured
/// T=1 improvement, modeled T=4 improvement — and that last ratio.
fn sd_cells(prep: &Prepared<u8>, args: &ExpArgs) -> ([String; 4], f64) {
    let bytes = prep.pristine.total_bytes();
    let (base, _) = time_plan(prep, Strategy::TraditionalNormal, 1, args.reps);
    let (opt, plan) = time_plan(prep, Strategy::PpmAuto, 1, args.reps);
    let modeled = modeled_decode_time(&plan, opt, 4, SIM_CORES, SPAWN_OVERHEAD);
    let cells = [
        format!("{:.0}", throughput_mbs(bytes, base)),
        format!("{:.0}", throughput_mbs(bytes, opt)),
        signed_pct(improvement(base, opt)),
        signed_pct(improvement(base, modeled)),
    ];
    (cells, improvement(base, modeled))
}

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (r, z) = (16usize, 1usize);
    let ns: Vec<usize> = if args.full {
        (6..=24).step_by(2).collect()
    } else {
        vec![6, 10, 14, 18, 22]
    };

    host_header(args, out)?;
    let mut improvements = Vec::new();
    for m in 1..=3usize {
        for s in 1..=3usize {
            writeln!(
                out,
                "\n# panel m={m}, s={s} (r={r}, z={z}, stripe {:.0} MiB)",
                args.stripe_mib()
            )?;
            let mut t = Table::new(
                out,
                &[
                    "n",
                    "SD MB/s",
                    "opt-SD MB/s",
                    "impr T=1",
                    "impr T=4*",
                    "RS(m+1) w=8",
                    "RS w=16",
                    "RS w=32",
                ],
            );
            for &n in &ns {
                if n <= m + 1 || s > n - m {
                    continue;
                }
                let Some(prep) = prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed) else {
                    continue;
                };
                let (sd, modeled) = sd_cells(&prep, args);
                improvements.push(modeled);

                // RS baseline with m+1 parity strips, same data width k=n-m.
                let mut cells = vec![n.to_string()];
                cells.extend(sd);
                cells.push(rs_mbs::<u8>(n - m, m + 1, r, args));
                cells.push(rs_mbs::<u16>(n - m, m + 1, r, args));
                cells.push(rs_mbs::<u32>(n - m, m + 1, r, args));
                t.row(&cells);
            }
            t.finish()?;
        }
    }

    // The figure's second axis: improvement vs r at fixed n (the paper:
    // "the performance improvement becomes smaller ... as the decreased
    // value of ... r").
    let rs_sweep: Vec<usize> = if args.full {
        vec![4, 8, 12, 16, 20, 24]
    } else {
        vec![4, 16, 24]
    };
    writeln!(out, "\n# r sweep (n=16, m=2, s=2, z={z})")?;
    let mut t = Table::new(
        out,
        &["r", "SD MB/s", "opt-SD MB/s", "impr T=1", "impr T=4*"],
    );
    for &rr in &rs_sweep {
        let Some(prep) = prepare_sd(16, rr, 2, 2, z, args.stripe_bytes, args.seed) else {
            continue;
        };
        let mut cells = vec![rr.to_string()];
        cells.extend(sd_cells(&prep, args).0);
        t.row(&cells);
    }
    t.finish()?;

    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let min = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = improvements
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    writeln!(
        out,
        "\nopt-SD improvement (T=4*, modeled 4 cores): avg {:+.2}% (range {:+.2}% .. {:+.2}%)",
        100.0 * avg,
        100.0 * min,
        100.0 * max
    )?;
    writeln!(
        out,
        "paper: avg +61.09% (range +8.22% .. +210.81%)  [* = simulated cores, see DESIGN.md]"
    )
}
