//! Encoding throughput: traditional vs PPM.
//!
//! The paper's headline covers the *encoding/decoding* process; encoding
//! is the decode special case where all parity sectors are "faulty"
//! (§II-B footnote 1), so PPM's partition applies to it too: for SD every
//! stripe row's disk parities form an independent m×m group, with only
//! the sector parities in `H_rest`. This figure measures encode
//! throughput for representative SD / LRC / RS instances under both
//! methods.
//!
//! `figures encode_speed [--stripe-mib N]`

use super::host_header;
use crate::table::signed_pct;
use crate::{
    improvement, modeled_decode_time, prepare, throughput_mbs, time_plan, ExpArgs, Table,
    SPAWN_OVERHEAD,
};
use ppm_codes::{ErasureCode, EvenOddCode, FailureScenario, LrcCode, RsCode, SdCode};
use ppm_core::Strategy;
use ppm_gf::GfWord;
use rand::{rngs::StdRng, SeedableRng};
use std::io::{self, Write};

fn row<W: GfWord, C: ErasureCode<W>>(code: &C, args: &ExpArgs, t: &mut Table) {
    // Encoding is decoding with every parity sector "lost".
    let scenario = FailureScenario::new(code.parity_sectors());
    let mut rng = StdRng::seed_from_u64(args.seed);
    let prep = prepare(code, scenario, args.stripe_bytes, &mut rng).expect("encodable");
    let bytes = prep.pristine.total_bytes();
    let (trad, _) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
    let (ppm, plan) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
    let modeled = modeled_decode_time(&plan, ppm, args.threads, 4, SPAWN_OVERHEAD);
    t.row(&[
        prep.name,
        format!("{:.0}", throughput_mbs(bytes, trad)),
        format!("{:.0}", throughput_mbs(bytes, ppm)),
        signed_pct(improvement(trad, ppm)),
        signed_pct(improvement(trad, modeled)),
        plan.parallelism().to_string(),
    ]);
}

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    host_header(args, out)?;
    writeln!(
        out,
        "# encode throughput, stripe {:.0} MiB (T=4* modeled on 4 simulated cores)\n",
        args.stripe_mib()
    )?;
    let mut t = Table::new(
        out,
        &[
            "code",
            "trad MB/s",
            "PPM MB/s",
            "impr T=1",
            "impr T=4*",
            "p",
        ],
    );
    let seed = args.seed;
    row(
        &SdCode::<u8>::search(8, 16, 2, 2, seed, 3).unwrap(),
        args,
        &mut t,
    );
    row(
        &SdCode::<u8>::search(16, 16, 3, 3, seed, 2).unwrap(),
        args,
        &mut t,
    );
    row(&LrcCode::<u8>::new(12, 2, 2, 16).unwrap(), args, &mut t);
    row(&RsCode::<u8>::new(12, 4, 16).unwrap(), args, &mut t);
    row(&EvenOddCode::<u8>::new(17).unwrap(), args, &mut t);
    t.finish()?;
    writeln!(
        out,
        "\n(encoding = decoding of the parity positions, §II-B footnote 1)"
    )
}
