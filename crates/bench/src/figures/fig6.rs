//! Figure 6: `C₄/C₁` for different values of `r` (rows per strip).
//!
//! Sweeps `r = 4..24` for every `(m, s)` combination at `n = 16`, `z = 1`.
//! The paper observes `C₄/C₁` decreases as `r` increases (more clean rows
//! → more independent sub-matrices → bigger savings).
//!
//! `figures fig6 [--full]`

use crate::table::pct;
use crate::{prepare_sd, ExpArgs, Table};
use ppm_core::cost::analyze;
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (n, z) = (16usize, 1usize);
    let rs: Vec<usize> = if args.full {
        (4..=24).collect()
    } else {
        vec![4, 8, 16, 24]
    };

    let mut last_per_combo: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    for m in 1..=3usize {
        for s in 1..=3usize {
            writeln!(out, "\n# panel m={m}, s={s} (n={n}, z={z})")?;
            let mut t = Table::new(out, &["r", "C1", "C4", "C4/C1"]);
            let mut series = Vec::new();
            for &r in &rs {
                let Some(prep) = prepare_sd(n, r, m, s, z, 8 * n * r, args.seed + r as u64) else {
                    continue;
                };
                let rep = analyze(&prep.h, &prep.scenario).expect("analyzable");
                let ratio = rep.c4 as f64 / rep.c1 as f64;
                series.push(ratio);
                t.row(&[
                    r.to_string(),
                    rep.c1.to_string(),
                    rep.c4.to_string(),
                    pct(ratio),
                ]);
            }
            t.finish()?;
            last_per_combo.push((m, s, series));
        }
    }

    writeln!(
        out,
        "\nshape check (paper: C4/C1 decreases as r increases):"
    )?;
    for (m, s, series) in &last_per_combo {
        let monotone = series.windows(2).all(|w| w[1] <= w[0] + 1e-9);
        writeln!(
            out,
            "  m={m}, s={s}: {}",
            if monotone {
                "decreasing ✓"
            } else {
                "NOT monotone ✗"
            }
        )?;
    }
    Ok(())
}
