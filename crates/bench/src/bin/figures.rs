//! `figures <name> [flags]` prints one figure of the paper's evaluation;
//! `figures list` prints the names. `results/` is this binary's output,
//! one file per name (EXPERIMENTS.md has the loop that regenerates it).

use ppm_bench::figures::{find, FIGURES};
use ppm_bench::{args::USAGE, ExpArgs};

fn main() -> std::io::Result<()> {
    let (name, args) = ExpArgs::parse(std::env::args().skip(1));
    if name == "list" {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return Ok(());
    }
    let Some(figure) = find(&name) else {
        panic!("unknown figure {name}; try `figures list`\n{USAGE}");
    };
    figure(&args, &mut std::io::stdout().lock())
}
