//! `cli_archive`: the end-to-end user surface, `ppm-cli` as subprocesses.

use super::{build_code, Checked, Code, Workload};
use crate::host::nproc;
use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeCtx};
use crate::stats;
use crate::trace::{Tracer, OP};
use ppm_codes::FailureScenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const SPEC: &str = "sd:8,16,2,2";
const SECTOR_KIB: usize = 64;
const LOST_DISKS: [usize; 2] = [1, 3];
/// The four subprocess phases of a cycle, in order.
const PHASES: [&str; 4] = ["encode", "corrupt", "repair", "decode"];

/// `ppm-cli encode --code sd:8,16,2,2 --sector-kib 64` of a seeded 64 MiB
/// file → `corrupt --disks 1,3` → `repair --workers nproc` → `decode` →
/// byte comparison with the input. An op is one full cycle; this is the
/// only workload that pays process start, argument parsing and the
/// archive file I/O.
pub struct CliArchive {
    cli: PathBuf,
    dir: PathBuf,
    input: Vec<u8>,
    code: Code,
    /// Seconds per phase, one entry per cycle.
    phase_s: [Vec<f64>; 4],
    ok: bool,
}

impl CliArchive {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let cli = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("ppm-cli");
        if !cli.is_file() {
            return Err(format!(
                "{} not found: build it next to ppm-perf (benchmark/run.sh does)",
                cli.display()
            ));
        }
        let dir = crate::out_dir().join(format!("cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut input = vec![0u8; if scale.smoke { 2 << 20 } else { 64 << 20 }];
        StdRng::seed_from_u64(seed).fill(input.as_mut_slice());
        std::fs::write(dir.join("input.bin"), &input).map_err(|e| e.to_string())?;
        let mut w = CliArchive {
            cli,
            dir,
            input,
            code: build_code(SPEC)?,
            phase_s: Default::default(),
            ok: false,
        };
        // Warm-up: one whole cycle, so the binary and the files' pages
        // are in the page cache.
        w.prepare(0);
        w.call(0, None);
        if w.check(0).failed > 0 {
            return Err("ppm-cli warm-up cycle did not round-trip the file".into());
        }
        w.phase_s = Default::default();
        Ok(w)
    }

    fn archive(&self) -> PathBuf {
        self.dir.join("archive")
    }

    fn run(&self, args: &[&str]) -> bool {
        Command::new(&self.cli)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    }

    /// Runs phase `phase` of a cycle; true when the subprocess succeeded.
    fn phase(&mut self, phase: usize) -> bool {
        let archive = self.archive();
        let archive = archive.to_string_lossy();
        let input = self.dir.join("input.bin");
        let output = self.dir.join("output.bin");
        let (sector_kib, workers) = (SECTOR_KIB.to_string(), nproc().to_string());
        let disks = LOST_DISKS.map(|d| d.to_string()).join(",");
        let started = Instant::now();
        let ok = match PHASES[phase] {
            "encode" => self.run(&[
                "encode",
                "--code",
                SPEC,
                "--sector-kib",
                &sector_kib,
                &input.to_string_lossy(),
                &archive,
            ]),
            "corrupt" => self.run(&["corrupt", &archive, "--disks", &disks]),
            "repair" => self.run(&["repair", &archive, "--workers", &workers]),
            _ => self.run(&["decode", &archive, &output.to_string_lossy()]),
        };
        self.phase_s[phase].push(started.elapsed().as_secs_f64());
        ok
    }

    fn output_matches(&self) -> bool {
        std::fs::read(self.dir.join("output.bin")).is_ok_and(|out| out == self.input)
    }
}

impl Drop for CliArchive {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for CliArchive {
    fn calls_per_round(&self) -> usize {
        1
    }

    fn working_set_bytes(&self) -> u64 {
        self.input.len() as u64
    }

    fn prepare(&mut self, _index: u64) {
        let _ = std::fs::remove_dir_all(self.archive());
        let _ = std::fs::remove_file(self.dir.join("output.bin"));
    }

    fn call(&mut self, _index: u64, tracer: Option<&mut Tracer>) {
        self.ok = match tracer {
            None => (0..PHASES.len()).all(|p| self.phase(p)) && self.output_matches(),
            Some(t) => t.span(OP, |t| {
                let phases_ok = (0..PHASES.len()).all(|p| t.span("cli", |_| self.phase(p)));
                phases_ok && t.span("harness.cmp", |_| self.output_matches())
            }),
        };
    }

    fn check(&mut self, _index: u64) -> Checked {
        Checked {
            ops: 1,
            bytes: self.input.len() as u64,
            failed: u64::from(!self.ok),
        }
    }

    fn probe_ctx(&self) -> ProbeCtx {
        ProbeCtx {
            spec: SPEC,
            code: self.code,
            scenario: FailureScenario::whole_disks(self.code.layout(), &LOST_DISKS),
            sector_bytes: SECTOR_KIB << 10,
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, scale: Scale) {
        for (phase, name) in [
            "cli.encode_s",
            "cli.corrupt_s",
            "cli.repair_s",
            "cli.decode_s",
        ]
        .into_iter()
        .enumerate()
        {
            m.put_opt(name, stats::median(&self.phase_s[phase]));
        }

        // Process start: `ppm-cli info` does nothing but load the manifest.
        let archive = self.archive();
        let archive = archive.to_string_lossy();
        let startup_ns = probes::median_ns(scale.probe_budget(), || {
            let t = Instant::now();
            self.run(&["info", &archive]);
            t.elapsed()
        });
        m.put("cli.startup_ms", startup_ns / 1e6);

        // The same stripes repaired in-process: what is left of
        // `cli.repair_s` is process start, file I/O and the manifest.
        let ctx = self.probe_ctx();
        let stripe_bytes = self.code.data_sectors().len() * ctx.sector_bytes;
        let stripes = self.input.len().div_ceil(stripe_bytes);
        let per_stripe_ns = probes::reference_repair(&ctx, nproc(), false, scale, m);
        if let Some(repair_s) = stats::median(&self.phase_s[2]) {
            m.put(
                "cli.io_frac",
                1.0 - per_stripe_ns * stripes as f64 / 1e9 / repair_s,
            );
        }
    }
}
