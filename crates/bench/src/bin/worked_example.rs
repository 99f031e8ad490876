//! The paper's worked example (Figures 2–3), verified and printed as a
//! compact report for EXPERIMENTS.md.
//!
//! `cargo run --release -p ppm-bench --bin worked_example`

use ppm_codes::{ErasureCode, FailureScenario, SdCode};
use ppm_core::cost::{analyze, SdClosedForm};
use ppm_core::{encode, Decoder, DecoderConfig, LogTable, Partition, Strategy};
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("paper instance");
    let h = code.parity_check_matrix();
    let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);

    println!("instance: {}", code.name());
    println!("H: {}x{}; faulty: {:?}", h.rows(), h.cols(), sc.faulty());

    let log = LogTable::build(&h, &sc);
    println!("\nlog table:");
    for row in log.rows() {
        println!("  i={} t={} l={:?}", row.row, row.t, row.l);
    }

    let part = Partition::build(&h, &sc);
    println!(
        "\npartition: p={}, rest={:?}",
        part.degree(),
        part.rest.as_ref().map(|r| &r.faulty)
    );

    let rep = analyze(&h, &sc).expect("decodable");
    let cf = SdClosedForm {
        n: 4,
        r: 4,
        m: 1,
        s: 1,
        z: 1,
    };
    println!("\n        numeric  closed-form  paper");
    println!("  C1    {:>7}  {:>11}     35", rep.c1, cf.c1());
    println!("  C2    {:>7}  {:>11}     31", rep.c2, cf.c2());
    println!("  C3    {:>7}  {:>11}      -", rep.c3, cf.c3());
    println!("  C4    {:>7}  {:>11}      -", rep.c4, cf.c4());
    println!(
        "\n  (C1-C4)/C1 = {:.2}%   (paper: 17.14%)",
        100.0 * (rep.c1 - rep.c4) as f64 / rep.c1 as f64
    );

    assert_eq!((rep.c1, rep.c2, rep.c3, rep.c4), (35, 31, 37, 29));
    assert_eq!(part.degree(), 3);

    // Run the winning plan instrumented: the executed mult_XOR count from
    // the region kernels must land exactly on the predicted C4 = 29.
    let decoder = Decoder::new(DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(2015);
    let mut stripe = random_data_stripe(&code, 4096, &mut rng);
    encode(&code, &decoder, &mut stripe).expect("encode");
    let pristine = stripe.clone();
    stripe.erase(&sc);
    let plan = decoder.plan(&h, &sc, Strategy::PpmAuto).expect("plan");
    let stats = decoder.decode(&plan, &mut stripe).expect("decode");
    assert_eq!(stripe, pristine, "recovery must be bit-exact");
    println!(
        "\nexecuted (runtime telemetry): strategy {:?}, p={}, \
         predicted {} mult_XORs, executed {} ({} as plain XORs)",
        stats.strategy,
        stats.parallelism,
        stats.predicted_mult_xors,
        stats.executed_mult_xors(),
        stats.executed_plain_xors()
    );
    assert!(stats.matches_prediction());
    assert_eq!(stats.executed_mult_xors(), 29);

    println!("\nall assertions passed ✓");
}
