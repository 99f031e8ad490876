//! Minimal command-line parsing for the `figures` binary.

/// The usage line printed by `--help` and by every parse failure.
pub const USAGE: &str = "usage: figures <name>|list \
    [--stripe-mib <N>] [--reps <N>] [--threads <N>] [--seed <N>] [--full] [--smoke]";

/// Common experiment knobs. Every figure accepts:
///
/// * `--stripe-mib <N>` — stripe size in MiB (default 4; the paper uses 32,
///   pass `--stripe-mib 32` to match it exactly),
/// * `--reps <N>` — timing repetitions, best-of (default 3; paper averages
///   10 runs),
/// * `--threads <N>` — thread budget `T` (default 4, the paper's cap),
/// * `--full` — run the paper's full parameter sweep instead of the
///   representative subset,
/// * `--smoke` — shorthand for a 64 KiB stripe and one rep (CI scale);
///   correctness assertions still run,
/// * `--seed <N>` — RNG seed for workloads and failure scenarios.
#[derive(Clone, Copy, Debug)]
pub struct ExpArgs {
    /// Stripe size in bytes.
    pub stripe_bytes: usize,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// Thread budget `T`.
    pub threads: usize,
    /// Full sweep instead of the representative subset.
    pub full: bool,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            stripe_bytes: 4 << 20,
            reps: 3,
            threads: 4,
            full: false,
            seed: 2015,
        }
    }
}

impl ExpArgs {
    /// Parses a command line (without the program name): one figure name
    /// among the flags. Panics with the usage line on malformed input.
    pub fn parse(mut args: impl Iterator<Item = String>) -> (String, Self) {
        let mut name = None;
        let mut out = ExpArgs::default();
        while let Some(flag) = args.next() {
            let mut num = |what: &str| -> u64 {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{what} expects a number\n{USAGE}"))
            };
            match flag.as_str() {
                "--stripe-mib" => out.stripe_bytes = (num("--stripe-mib") as usize) << 20,
                "--reps" => out.reps = num("--reps") as usize,
                "--threads" => out.threads = num("--threads") as usize,
                "--seed" => out.seed = num("--seed"),
                "--full" => out.full = true,
                "--smoke" => {
                    out.stripe_bytes = 64 << 10;
                    out.reps = 1;
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other if name.is_none() && !other.starts_with('-') => name = Some(flag),
                other => panic!("unknown flag {other}\n{USAGE}"),
            }
        }
        let name = name.unwrap_or_else(|| panic!("missing figure name\n{USAGE}"));
        assert!(
            out.reps > 0 && out.threads > 0,
            "reps and threads must be positive"
        );
        (name, out)
    }

    /// MiB as a float, for labels.
    pub fn stripe_mib(&self) -> f64 {
        self.stripe_bytes as f64 / (1 << 20) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> (String, ExpArgs) {
        ExpArgs::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_are_sane() {
        let (name, a) = parse("fig4");
        assert_eq!(name, "fig4");
        assert_eq!(a.stripe_bytes, 4 << 20);
        assert_eq!(a.reps, 3);
        assert_eq!(a.threads, 4);
        assert!(!a.full);
        assert!((a.stripe_mib() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn smoke_is_a_shorthand_for_a_tiny_stripe_and_one_rep() {
        let (_, a) = parse("fig8 --full --smoke --seed 7");
        assert_eq!((a.stripe_bytes, a.reps, a.seed), (64 << 10, 1, 7));
        assert!(a.full);
    }

    #[test]
    #[should_panic(expected = "usage: figures")]
    fn unknown_flag_panics_with_usage() {
        parse("fig4 --out x");
    }

    #[test]
    #[should_panic(expected = "usage: figures")]
    fn missing_name_panics_with_usage() {
        parse("--full");
    }

    #[test]
    #[should_panic(expected = "unknown flag fig5")]
    fn second_name_panics() {
        parse("fig4 fig5");
    }
}
