//! Figure 4: computational cost of the calculation sequences.
//!
//! Plots `C₂/C₁`, `C₃/C₁`, `C₄/C₁` against `n` for every `(m, s)` panel
//! (`m, s ∈ {1,2,3}`), at `r = 16`, `z = 1` — numeric non-zero counting,
//! no timing. The paper reports: "C₄ has the smallest value in most
//! cases … the average value of C₄/C₁ is 85.78% (from 47.97% to 98.06%)".
//!
//! `figures fig4 [--full] [--seed N]`

use crate::table::pct;
use crate::{prepare_sd, ExpArgs, Table};
use ppm_core::cost::{analyze, SdClosedForm};
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (r, z) = (16usize, 1usize);
    let ns: Vec<usize> = if args.full {
        (4..=24).collect()
    } else {
        vec![6, 11, 16, 21]
    };

    let mut c4_over_c1 = Vec::new();
    for m in 1..=3usize {
        for s in 1..=3usize {
            writeln!(out, "\n# panel m={m}, s={s} (r={r}, z={z})")?;
            let mut t = Table::new(
                out,
                &["n", "C1", "C2/C1", "C3/C1", "C4/C1", "C4/C1 (closed form)"],
            );
            for &n in &ns {
                if n <= m || s > n - m {
                    continue;
                }
                let Some(prep) = prepare_sd(n, r, m, s, z, 8 * n * r, args.seed + n as u64) else {
                    eprintln!("  n={n}: no decodable instance/scenario; skipped");
                    continue;
                };
                let rep = analyze(&prep.h, &prep.scenario).expect("analyzable");
                let cf = SdClosedForm { n, r, m, s, z };
                let ratio = |c: usize| pct(c as f64 / rep.c1 as f64);
                c4_over_c1.push(rep.c4 as f64 / rep.c1 as f64);
                t.row(&[
                    n.to_string(),
                    rep.c1.to_string(),
                    ratio(rep.c2),
                    ratio(rep.c3),
                    ratio(rep.c4),
                    pct(cf.c4() as f64 / cf.c1() as f64),
                ]);
            }
            t.finish()?;
        }
    }

    let avg = c4_over_c1.iter().sum::<f64>() / c4_over_c1.len() as f64;
    let min = c4_over_c1.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = c4_over_c1.iter().cloned().fold(0.0f64, f64::max);
    writeln!(
        out,
        "\nC4/C1 over the sweep: avg {} (range {} .. {})",
        pct(avg),
        pct(min),
        pct(max)
    )?;
    writeln!(
        out,
        "paper (full n=4..24 sweep): avg 85.78% (range 47.97% .. 98.06%)"
    )
}
