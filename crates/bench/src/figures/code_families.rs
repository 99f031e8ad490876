//! PPM across code families: the paper's thesis check.
//!
//! The paper positions PPM as the first general optimization for
//! *asymmetric* parity codes while noting symmetric codes already have
//! dedicated fast paths. Running the same machinery over every family in
//! the workspace shows where each of PPM's two mechanisms bites: the
//! sequence optimization matters most when equations are dense and
//! asymmetric (SD's global sector rows), while the partition gives
//! parallelism everywhere whole rows fail independently.
//!
//! `figures code_families [--stripe-mib N]`

use super::host_header;
use crate::table::signed_pct;
use crate::{improvement, modeled_decode_time, prepare, time_plan, ExpArgs, Table, SPAWN_OVERHEAD};
use ppm_codes::{
    ErasureCode, EvenOddCode, FailureScenario, LrcCode, RdpCode, RsCode, SdCode, StarCode,
};
use ppm_core::Strategy;
use ppm_gf::GfWord;
use rand::{rngs::StdRng, SeedableRng};
use std::io::{self, Write};

fn row<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    scenario: FailureScenario,
    args: &ExpArgs,
    t: &mut Table,
) {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let prep = prepare(code, scenario, args.stripe_bytes, &mut rng).expect("decodable outage");
    let (base, _) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);
    let (opt, plan) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
    let modeled = modeled_decode_time(&plan, opt, args.threads, 4, SPAWN_OVERHEAD);
    t.row(&[
        prep.name,
        if code.is_symmetric() { "sym" } else { "asym" }.into(),
        prep.scenario.failed_disks(code.layout()).len().to_string(),
        plan.parallelism().to_string(),
        plan.sectors_read().to_string(),
        signed_pct(improvement(base, opt)),
        signed_pct(improvement(base, modeled)),
    ]);
}

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    host_header(args, out)?;
    writeln!(
        out,
        "# PPM vs traditional across code families (stripe {:.0} MiB, worst-case outages)\n",
        args.stripe_mib()
    )?;
    let mut t = Table::new(
        out,
        &[
            "code",
            "parity",
            "disks",
            "p",
            "reads",
            "impr T=1",
            "impr T=4*",
        ],
    );
    let mut rng = StdRng::seed_from_u64(args.seed);

    let sd = SdCode::<u8>::search(8, 16, 2, 2, args.seed, 3).unwrap();
    let sc = sd.decodable_worst_case(1, &mut rng, 300).unwrap();
    row(&sd, sc, args, &mut t);

    let lrc = LrcCode::<u8>::new(12, 2, 2, 16).unwrap();
    let sc = lrc.spread_disk_failures(&mut rng);
    row(&lrc, sc, args, &mut t);

    let rs = RsCode::<u8>::new(12, 4, 16).unwrap();
    let sc = rs.random_disk_failures(4, &mut rng);
    row(&rs, sc, args, &mut t);

    let eo = EvenOddCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(eo.layout(), &[2, 9]);
    row(&eo, sc, args, &mut t);

    let rdp = RdpCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(rdp.layout(), &[0, 7]);
    row(&rdp, sc, args, &mut t);

    let star = StarCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(star.layout(), &[1, 6, 12]);
    row(&star, sc, args, &mut t);
    t.finish()?;

    writeln!(
        out,
        "\npaper: PPM is the first general optimization for asymmetric parity\n\
         codes; symmetric codes still gain partition parallelism where whole\n\
         rows fail independently, but less from sequence optimization."
    )
}
