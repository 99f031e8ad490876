//! Ablation: which of PPM's two mechanisms buys what?
//!
//! PPM improves decoding through (1) calculation-sequence optimization
//! (cost reduction, works even single-threaded) and (2) partition
//! parallelism (needs cores). This figure isolates them on an SD worst
//! case:
//!
//! * `C1`  — traditional baseline (no sequence opt, no partition),
//! * `C2`  — sequence optimization only (matrix-first, unpartitioned),
//! * `C4 T=1` — partition + per-sub-matrix sequence choice, serial,
//! * `C4 T=4*` — full PPM with modeled 4-core parallelism,
//! * backend ablation — the same plans on the scalar vs SIMD region
//!   kernels.
//!
//! `figures ablation [--stripe-mib N]`

use super::host_header;
use crate::table::{secs, signed_pct};
use crate::{
    improvement, modeled_decode_time, modeled_decode_time_chunked, prepare_sd, time_plan,
    time_plan_on, ExpArgs, Table, SPAWN_OVERHEAD,
};
use ppm_core::Strategy;
use ppm_gf::Backend;
use std::io::{self, Write};

pub(super) fn run(args: &ExpArgs, out: &mut dyn Write) -> io::Result<()> {
    let (n, r, m, s, z) = (16usize, 16usize, 2usize, 2usize, 1usize);
    let prep = prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed).expect("decodable instance");
    host_header(args, out)?;
    writeln!(
        out,
        "instance {} | stripe {:.0} MiB | worst case m={m} disks + s={s} sectors (z={z})\n",
        prep.name,
        args.stripe_mib()
    )?;

    let (base, base_plan) = time_plan(&prep, Strategy::TraditionalNormal, 1, args.reps);

    let mut t = Table::new(out, &["variant", "mult_XORs", "time", "improvement"]);
    t.row(&[
        "C1 traditional".into(),
        base_plan.mult_xors().to_string(),
        secs(base),
        "+0.0%".into(),
    ]);

    for (label, strategy) in [
        ("C2 sequence-opt only", Strategy::TraditionalMatrixFirst),
        ("C3 partition, mf rest", Strategy::PpmMatrixFirstRest),
        ("C4 partition+sequence", Strategy::PpmNormalRest),
    ] {
        let (time, plan) = time_plan(&prep, strategy, 1, args.reps);
        t.row(&[
            format!("{label} (T=1)"),
            plan.mult_xors().to_string(),
            secs(time),
            signed_pct(improvement(base, time)),
        ]);
    }

    let (serial, plan) = time_plan(&prep, Strategy::PpmAuto, 1, args.reps);
    let modeled = modeled_decode_time(&plan, serial, 4, 4, SPAWN_OVERHEAD);
    t.row(&[
        "full PPM (T=4, modeled*)".into(),
        plan.mult_xors().to_string(),
        secs(modeled),
        signed_pct(improvement(base, modeled)),
    ]);
    // Our extension: chunk H_rest's regions across the threads as well.
    let chunked = modeled_decode_time_chunked(&plan, serial, 4, 4, SPAWN_OVERHEAD);
    t.row(&[
        "PPM + chunked rest (T=4, modeled*)".into(),
        plan.mult_xors().to_string(),
        secs(chunked),
        signed_pct(improvement(base, chunked)),
    ]);
    t.finish()?;

    // Backend ablation: same C1 plan on every backend this CPU runs.
    writeln!(out, "\nregion-kernel backend ablation (C1 plan):")?;
    let mut bt = Table::new(out, &["backend", "time", "speedup vs scalar"]);
    let mut scalar_time = None;
    for backend in [
        Backend::Scalar,
        Backend::Ssse3,
        Backend::Avx2,
        Backend::Gfni,
    ] {
        if !backend.is_available() {
            continue;
        }
        let (best, _) = time_plan_on(&prep, Strategy::TraditionalNormal, 1, args.reps, backend);
        let scalar = *scalar_time.get_or_insert(best);
        bt.row(&[
            format!("{backend:?}"),
            secs(best),
            format!("{:.2}x", scalar / best),
        ]);
    }
    bt.finish()?;
    writeln!(out, "\n(* = simulated 4 cores; see DESIGN.md §3)")
}
