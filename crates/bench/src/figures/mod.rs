//! One function per figure of the paper's evaluation (plus the five
//! experiments of ours that EXPERIMENTS.md reports beside them), each
//! writing its report to the `out` it is given.

use crate::ExpArgs;
use ppm_gf::Backend;
use std::io::{self, Write};

mod ablation;
mod code_families;
mod encode_speed;
mod fig10;
mod fig11;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod width_switch;
mod worked_example;

/// Writes one figure's report.
pub type Figure = fn(&ExpArgs, &mut dyn Write) -> io::Result<()>;

/// Every figure by the name the `figures` binary takes, in the order
/// `figures list` prints them. `fig4`, `fig5`, `fig6` and
/// `worked_example` count operations and are run-to-run identical; the
/// rest time decodes on this host and open with a `# host:` line.
pub const FIGURES: [(&str, Figure); 13] = [
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("worked_example", worked_example::run),
    ("ablation", ablation::run),
    ("code_families", code_families::run),
    ("encode_speed", encode_speed::run),
    ("width_switch", width_switch::run),
];

/// The figure `figures <name>` runs, if `name` is one `figures list` prints.
pub fn find(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// The number of hardware threads this process may use.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of every wall-clock figure: what produced its numbers.
fn host_header(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "# host: nproc={} backend={:?} stripe={}MiB reps={} seed={}",
        nproc(),
        Backend::detect(),
        args.stripe_mib(),
        args.reps,
        args.seed
    )
}
