//! `results/` is what the `figures` binary prints, not a hand-kept log:
//! the four figures that count operations instead of timing them are
//! run-to-run identical, so they are compared byte for byte with the
//! committed files, under the flags EXPERIMENTS.md's regeneration loop
//! gives them.

use ppm_bench::{figures, ExpArgs};

#[test]
fn committed_results_match_the_deterministic_figures() {
    for line in [
        "fig4 --full",
        "fig5 --full",
        "fig6 --full",
        "worked_example",
    ] {
        let (name, args) = ExpArgs::parse(line.split_whitespace().map(String::from));
        let figure = figures::find(&name).expect("listed figure");
        let mut printed = Vec::new();
        figure(&args, &mut printed).expect("writing to a Vec cannot fail");
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            printed == committed,
            "`figures {line}` no longer prints results/{name}.txt; \
             regenerate it with the loop in EXPERIMENTS.md"
        );
    }
}
