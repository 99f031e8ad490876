//! Predicted-vs-executed mult_XOR ledger: for every code family in the
//! evaluation, decode with runtime telemetry and print the planner's
//! predicted cost (§III-B's `C` for the chosen strategy) next to the
//! executed region-operation count reported by the GF kernels. The two
//! columns must agree exactly — the cost model *is* the executed work.
//!
//! `cargo run --release -p ppm-bench --bin ledger [--stripe-mib 4] [--threads T]`

use ppm_bench::{ledger_plan, write_bench_json, ExpArgs, Table};
use ppm_core::Strategy;

fn main() {
    let args = ExpArgs::parse();
    println!(
        "# Predicted vs executed mult_XORs (stripe {:.0} MiB, T={})\n",
        args.stripe_mib(),
        args.threads
    );
    let t = Table::new(&[
        "instance",
        "strategy",
        "p",
        "predicted",
        "executed",
        "plainXOR",
        "util",
    ]);
    let mut rows = 0usize;
    let mut json_rows: Vec<String> = Vec::new();

    let mut emit = |name: &str, stats: &ppm_core::ExecStats| {
        t.row(&[
            name.to_string(),
            format!("{:?}", stats.strategy),
            stats.parallelism.to_string(),
            stats.predicted_mult_xors.to_string(),
            stats.executed_mult_xors().to_string(),
            stats.executed_plain_xors().to_string(),
            format!("{:.0}%", 100.0 * stats.thread_utilization()),
        ]);
        json_rows.push(format!(
            "{{\"instance\":\"{name}\",\"strategy\":\"{:?}\",\"parallelism\":{},\
             \"predicted_mult_xors\":{},\"executed_mult_xors\":{},\"executed_plain_xors\":{},\
             \"matches_prediction\":{}}}",
            stats.strategy,
            stats.parallelism,
            stats.predicted_mult_xors,
            stats.executed_mult_xors(),
            stats.executed_plain_xors(),
            stats.matches_prediction(),
        ));
        rows += 1;
    };

    // SD worst cases across the paper's shapes.
    for (n, r, m, s, z) in [
        (4, 4, 1, 1, 1),
        (6, 8, 2, 2, 1),
        (6, 8, 2, 2, 2),
        (11, 16, 2, 1, 1),
    ] {
        let Some(prep) = ppm_bench::prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed) else {
            continue;
        };
        for strategy in [Strategy::TraditionalNormal, Strategy::PpmAuto] {
            let (stats, _) = ledger_plan(&prep, strategy, args.threads);
            emit(&prep.name, &stats);
        }
    }

    // LRC spread outage and RS disk failures.
    if let Some(prep) = ppm_bench::prepare_lrc(6, 2, 2, 4, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }
    if let Some(prep) = ppm_bench::prepare_rs::<u8>(5, 3, 4, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }

    // Product code under correlated failures (rack loss and row burst)
    // and Hitchhiker-XOR under its worst whole-disk outage.
    for groups in [3usize, 0] {
        let Some(prep) =
            ppm_bench::prepare_product(4, 2, 3, 2, groups, args.stripe_bytes, args.seed)
        else {
            continue;
        };
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        let label = if groups > 0 { "rack" } else { "burst" };
        emit(&format!("{} [{label}]", prep.name), &stats);
    }
    if let Some(prep) = ppm_bench::prepare_hitchhiker(5, 3, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }

    assert!(rows > 0, "no instance prepared");

    let json = format!(
        "{{\"experiment\":\"ledger\",\"seed\":{},\"threads\":{},\"stripe_bytes\":{},\
         \"rows\":[{}]}}",
        args.seed,
        args.threads,
        args.stripe_bytes,
        json_rows.join(",")
    );
    let path = write_bench_json("ledger", &json);
    println!(
        "\nevery row decoded bit-exact with executed == predicted ✓ (json: {})",
        path.display()
    );
}
