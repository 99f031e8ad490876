//! Figure 5: `C₄/C₁` for different values of `z` (`s = 3`, `r = 16`).
//!
//! The `s` additional faulty sectors may sit on `z ∈ {1, 2, 3}` stripe
//! rows; the paper observes that `C₄/C₁` *decreases* as `z` increases
//! (more coupled rows → the traditional method wastes more), and grows
//! with `n`.
//!
//! `figures fig5 [--full]`

use crate::table::pct;
use crate::{prepare_sd, ExpArgs, Table};
use ppm_core::cost::analyze;
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (r, s) = (16usize, 3usize);
    let ns: Vec<usize> = if args.full {
        (6..=24).collect()
    } else {
        vec![6, 11, 16, 21]
    };

    for m in 1..=3usize {
        writeln!(out, "\n# panel m={m} (s={s}, r={r})")?;
        let mut t = Table::new(out, &["n", "C4/C1 z=1", "C4/C1 z=2", "C4/C1 z=3"]);
        for &n in &ns {
            if n <= m || s > n - m {
                continue;
            }
            let mut cells = vec![n.to_string()];
            for z in 1..=3usize {
                let cell = prepare_sd(n, r, m, s, z, 8 * n * r, args.seed + z as u64)
                    .and_then(|prep| analyze(&prep.h, &prep.scenario).ok())
                    .map(|rep| pct(rep.c4 as f64 / rep.c1 as f64))
                    .unwrap_or_else(|| "-".into());
                cells.push(cell);
            }
            t.row(&cells);
        }
        t.finish()?;
    }
    writeln!(
        out,
        "\npaper: C4/C1 decreases as z increases; all curves grow with n."
    )
}
