//! The "jagged lines" effect: GF word-width switching.
//!
//! The paper notes that "the jagged lines in all these figures are a
//! result of switching between GF(2^8), GF(2^16) and GF(2^32)": once a
//! stripe has more than 255 sectors, GF(2^8) sector-parity coefficients
//! `a^l` repeat and the implementation must move to a wider (slower)
//! field. This experiment measures the same SD configurations at
//! w = 8 and w = 16 (and w = 32), quantifying the penalty a field switch
//! pays and therefore the jag size.
//!
//! `figures width_switch [--stripe-mib N]`

use super::host_header;
use crate::table::signed_pct;
use crate::{improvement, prepare_sd_w, throughput_mbs, time_plan, ExpArgs, Table};
use ppm_core::Strategy;
use ppm_gf::GfWord;
use std::io::{self, Write};

fn row<W: GfWord>(n: usize, r: usize, m: usize, s: usize, args: &ExpArgs, t: &mut Table) {
    let Some(prep) = prepare_sd_w::<W>(n, r, m, s, 1, args.stripe_bytes, args.seed) else {
        t.row(&[
            format!("n={n} r={r} w={}", W::WIDTH),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        return;
    };
    let bytes = prep.pristine.total_bytes();
    let (base, _) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
    let (opt, _) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
    t.row(&[
        format!("n={n} r={r} w={}", W::WIDTH),
        format!("{}", n * r),
        format!("{:.0}", throughput_mbs(bytes, base)),
        format!("{:.0}", throughput_mbs(bytes, opt)),
        signed_pct(improvement(base, opt)),
    ]);
}

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (m, s) = (2usize, 2usize);
    host_header(args, out)?;
    writeln!(
        out,
        "# SD decode speed by GF width (m={m}, s={s}, stripe {:.0} MiB)\n\
         # n*r <= 255: GF(2^8) valid; beyond, the paper switches fields\n",
        args.stripe_mib()
    )?;
    let mut t = Table::new(
        out,
        &["config", "n*r", "SD MB/s", "opt-SD MB/s", "impr T=1"],
    );
    for (n, r) in [(8usize, 16usize), (15, 16), (16, 16), (24, 16)] {
        row::<u8>(n, r, m, s, args, &mut t);
        row::<u16>(n, r, m, s, args, &mut t);
        if args.full {
            row::<u32>(n, r, m, s, args, &mut t);
        }
    }
    t.finish()?;
    writeln!(
        out,
        "\nthe w=8 -> w=16 drop is the paper's \"jag\": the wider field's\n\
         region kernel is several times slower (`gf.mul_xor_gibps.w16` vs\n\
         `.w8` in ppm-perf), so crossing n*r = 255 costs a visible step in\n\
         every curve."
    )
}
