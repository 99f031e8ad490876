//! The paper's worked example (Figures 2–3), verified and printed as a
//! compact report for EXPERIMENTS.md.
//!
//! `figures worked_example`

use crate::table::pct;
use crate::{prepare, ExpArgs};
use ppm_codes::{ErasureCode, FailureScenario, SdCode};
use ppm_core::cost::{analyze, SdClosedForm};
use ppm_core::{Decoder, DecoderConfig, LogTable, Partition, Strategy};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("paper instance");
    let h = code.parity_check_matrix();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);

    writeln!(out, "instance: {}", code.name())?;
    writeln!(
        out,
        "H: {}x{}; faulty: {:?}",
        h.rows(),
        h.cols(),
        sc.faulty()
    )?;

    let log = LogTable::build(&h, &sc);
    writeln!(out, "\nlog table:")?;
    for row in log.rows() {
        writeln!(out, "  i={} t={} l={:?}", row.row, row.t, row.l)?;
    }

    let part = Partition::build(&h, &sc);
    writeln!(
        out,
        "\npartition: p={}, rest={:?}",
        part.degree(),
        part.rest.as_ref().map(|r| &r.faulty)
    )?;

    let rep = analyze(&h, &sc).expect("decodable");
    let cf = SdClosedForm {
        n: 4,
        r: 4,
        m: 1,
        s: 1,
        z: 1,
    };
    writeln!(out, "\n        numeric  closed-form  paper")?;
    writeln!(out, "  C1    {:>7}  {:>11}     35", rep.c1, cf.c1())?;
    writeln!(out, "  C2    {:>7}  {:>11}     31", rep.c2, cf.c2())?;
    writeln!(out, "  C3    {:>7}  {:>11}      -", rep.c3, cf.c3())?;
    writeln!(out, "  C4    {:>7}  {:>11}      -", rep.c4, cf.c4())?;
    writeln!(
        out,
        "\n  (C1-C4)/C1 = {}   (paper: 17.14%)",
        pct((rep.c1 - rep.c4) as f64 / rep.c1 as f64)
    )?;

    assert_eq!((rep.c1, rep.c2, rep.c3, rep.c4), (35, 31, 37, 29));
    assert_eq!(part.degree(), 3);

    // Run the winning plan instrumented: the executed mult_XOR count from
    // the region kernels must land exactly on the predicted C4 = 29.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let prep = prepare(&code, sc.clone(), 16 * 4096, &mut rng).expect("paper scenario decodes");
    let decoder = Decoder::new(DecoderConfig::default());
    let plan = decoder.plan(&h, &sc, Strategy::PpmAuto).expect("plan");
    let mut stripe = prep.pristine.clone();
    stripe.erase(&sc);
    let stats = decoder.decode(&plan, &mut stripe).expect("decode");
    assert_eq!(stripe, prep.pristine, "recovery must be bit-exact");
    writeln!(
        out,
        "\nexecuted (runtime telemetry): strategy {:?}, p={}, \
         predicted {} mult_XORs, executed {} ({} as plain XORs)",
        stats.strategy,
        stats.parallelism,
        stats.predicted_mult_xors,
        stats.executed_mult_xors(),
        stats.executed_plain_xors()
    )?;
    assert!(stats.matches_prediction());
    assert_eq!(stats.executed_mult_xors(), 29);

    writeln!(out, "\nall assertions passed ✓")
}
