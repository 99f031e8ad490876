//! `ppm-perf` — the repository's layered performance benchmark.
//!
//! ```text
//! ppm-perf [--workload NAME] [--seed N] [--seconds S] [--smoke] [--repeat N]
//!     every workload (or one): an untraced pass for the end-to-end
//!     metrics, then a traced pass for the per-layer ones, each in its own
//!     process, one after the other; prints every metric by name with its
//!     unit and writes one JSON result file
//! ppm-perf --workload NAME --seed N --seconds S --trace 0|1
//!     one pass in this process; the last stdout line is one JSON object
//!     {"correct", "attempted", "failed", "metrics"}
//! ppm-perf compare BASE.json NEW.json
//!     one row per (workload, end-to-end metric); exits 1 on any "worse"
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and procedures.

mod compare;
mod host;
mod json;
mod measure;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use json::Value;
use measure::Scale;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2015;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.15;
const SCHEMA: &str = "ppm-perf/1";

/// Where traces, pass reports, result files and the CLI workload's
/// scratch files go: `$PPM_PERF_OUT`, else `benchmark/out` under the
/// current directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("PPM_PERF_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    /// Where a single pass also writes its full report (set by the
    /// all-workloads driver for its children).
    report: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        report: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => out.smoke = true,
            "--repeat" => {
                out.repeat = value()?.parse().map_err(|e| bad(&e))?;
                if !(1..=100).contains(&out.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--report" => out.report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &out.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (one of {:?})",
                workloads::NAMES
            ));
        }
    }
    Ok(out)
}

impl Args {
    fn scale(&self) -> Scale {
        Scale {
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            smoke: self.smoke,
        }
    }
}

fn print_metrics(title: &str, metrics: &Value) {
    println!("{title}");
    for (name, m) in metrics.fields() {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        match m.get("value").and_then(Value::as_f64) {
            Some(v) => println!("  {name:<32} {v:>16.4} {unit}"),
            None => println!("  {name:<32} {:>16} {unit}", "null"),
        }
    }
}

/// One pass of one workload in this process.
fn single_pass(args: &Args, workload: &str, traced: bool) -> Result<bool, String> {
    let scale = args.scale();
    let outcome = if traced {
        measure::traced_pass(workload, args.seed, scale, &out_dir())?
    } else {
        measure::untraced_pass(workload, args.seed, scale)?
    };
    let section = if traced { "per_layer" } else { "end_to_end" };
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  nproc {}",
        args.seed,
        scale.seconds,
        u8::from(traced),
        host::nproc()
    );
    if let Some(metrics) = outcome.report.get(section) {
        print_metrics(section, metrics);
    }
    if let Some(attribution) = outcome.report.get("attribution") {
        println!("attribution (share of op wall time)");
        for (layer, share) in attribution.fields() {
            println!(
                "  {layer:<32} {:>15.2} %",
                share.as_f64().unwrap_or(0.0) * 100.0
            );
        }
    }
    if let Some(path) = &args.report {
        std::fs::write(path, outcome.report.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.last_line.render());
    Ok(outcome.correct)
}

/// Runs one pass as a child process and returns its report.
fn child_pass(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = dir.join(format!("pass_{workload}_{}.json", u8::from(traced)));
    let _ = std::fs::remove_file(&report);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.scale().seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
    let text = std::fs::read_to_string(&report).map_err(|_| {
        format!(
            "{workload} (trace {}) wrote no report; exit {status}",
            u8::from(traced)
        )
    })?;
    let _ = std::fs::remove_file(&report);
    json::parse(&text)
}

/// Folds the untraced passes of `--repeat` runs into one end-to-end
/// object per metric: median, the runs, and their quartiles.
fn merge_end_to_end(runs: &[Value]) -> Value {
    let mut out = Value::obj();
    for def in &metrics::END_TO_END {
        let per_run: Vec<Option<f64>> = runs
            .iter()
            .map(|r| r.get("end_to_end")?.get(def.name)?.get("value")?.as_f64())
            .collect();
        let values: Vec<f64> = per_run.iter().flatten().copied().collect();
        let samples = runs
            .iter()
            .filter_map(|r| r.get("end_to_end")?.get(def.name)?.get("samples")?.as_f64())
            .sum::<f64>();
        let mut m = Value::obj();
        // A metric undefined in any run (p90 below 100 samples) is
        // undefined for the set.
        let defined = values.len() == runs.len();
        m.set("value", defined.then(|| stats::median(&values)).flatten())
            .set("unit", def.unit)
            .set("better", def.better.name())
            .set("bound", def.bound)
            .set("samples", samples)
            .set(
                "runs",
                per_run.into_iter().map(Value::from).collect::<Vec<_>>(),
            );
        if let Some((q1, q3)) = stats::quartiles(&values) {
            m.set("q1", q1).set("q3", q3);
        }
        out.set(def.name, m);
    }
    out
}

/// Checks a result file's shape and metric names; returns what is wrong.
fn validate_result(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        problems.push(format!("schema is not {SCHEMA:?}"));
    }
    for key in [
        "nproc",
        "cpu_model",
        "cpu_features",
        "l2_bytes",
        "rustc",
        "git_sha",
        "profile",
    ] {
        if doc.get("host").and_then(|h| h.get(key)).is_none() {
            problems.push(format!("host.{key} missing"));
        }
    }
    let workloads = doc.get("workloads").map(Value::fields).unwrap_or(&[]);
    if workloads.is_empty() {
        problems.push("no workloads".into());
    }
    for (name, w) in workloads {
        let expect: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        let got: Vec<&str> = w
            .get("end_to_end")
            .map(Value::fields)
            .unwrap_or(&[])
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if got != expect {
            problems.push(format!(
                "{name}: end_to_end names {got:?}, expected {expect:?}"
            ));
        }
        for section in ["end_to_end", "per_layer"] {
            for (metric, m) in w.get(section).map(Value::fields).unwrap_or(&[]) {
                if !metrics::valid_name(metric) {
                    problems.push(format!("{name}: bad metric name {metric:?}"));
                }
                if m.get("unit").and_then(Value::as_str).is_none() || m.get("value").is_none() {
                    problems.push(format!("{name}.{metric}: needs value and unit"));
                }
                if section == "per_layer" && metrics::per_layer(metric).is_none() {
                    problems.push(format!("{name}: unregistered per-layer metric {metric:?}"));
                }
            }
        }
        for def in metrics::PER_LAYER.iter().filter(|d| d.universal) {
            if w.get("per_layer").and_then(|p| p.get(def.name)).is_none() {
                problems.push(format!("{name}: per-layer metric {} missing", def.name));
            }
        }
        if w.get("working_set_bytes").and_then(Value::as_f64).is_none() {
            problems.push(format!("{name}: working_set_bytes missing"));
        }
    }
    problems
}

fn print_attribution(result: &Value) {
    let workloads = result.get("workloads").map(Value::fields).unwrap_or(&[]);
    let mut layers: Vec<&str> = Vec::new();
    for (_, w) in workloads {
        for (layer, _) in w.get("attribution").map(Value::fields).unwrap_or(&[]) {
            if !layers.contains(&layer.as_str()) {
                layers.push(layer);
            }
        }
    }
    println!("\nattribution: % of op wall time per layer (self time), per workload");
    print!("{:<22}", "workload");
    for layer in &layers {
        print!(" {layer:>18}");
    }
    println!();
    for (name, w) in workloads {
        print!("{name:<22}");
        for layer in &layers {
            match w
                .get("attribution")
                .and_then(|a| a.get(layer))
                .and_then(Value::as_f64)
            {
                Some(share) => print!(" {:>17.2}%", share * 100.0),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Every selected workload, each pass in its own process, sequentially.
fn run_all(args: &Args) -> Result<bool, String> {
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let scale = args.scale();
    let mut result = Value::obj();
    result
        .set("schema", SCHEMA)
        .set("host", host::envelope())
        .set("seed", args.seed)
        .set("seconds", scale.seconds)
        .set("smoke", scale.smoke)
        .set("repeat", args.repeat);
    let mut all_correct = true;
    let mut by_workload = Value::obj();
    for name in selected {
        eprintln!("== {name}");
        let mut untraced = Vec::new();
        for rep in 0..args.repeat {
            untraced.push(child_pass(args, name, args.seed + rep as u64, false)?);
        }
        let traced = child_pass(args, name, args.seed, true)?;
        let end_to_end = merge_end_to_end(&untraced);
        let correct = untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        let sum = |key: &str| -> f64 {
            untraced
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };

        print_metrics(&format!("\n{name}: end_to_end"), &end_to_end);
        if let Some(per_layer) = traced.get("per_layer") {
            print_metrics(&format!("{name}: per_layer"), per_layer);
        }

        let mut w = Value::obj();
        w.set("why", workloads::why(name))
            .set(
                "working_set_bytes",
                untraced[0]
                    .get("working_set_bytes")
                    .cloned()
                    .unwrap_or(Value::Null),
            )
            .set("correct", correct)
            .set("attempted", sum("attempted"))
            .set("failed", sum("failed"))
            .set("end_to_end", end_to_end);
        for key in ["per_layer", "attribution", "trace_file"] {
            w.set(key, traced.get(key).cloned().unwrap_or(Value::Null));
        }
        by_workload.set(name, w);
    }
    result.set("workloads", by_workload);
    print_attribution(&result);

    let problems = validate_result(&result);
    for p in &problems {
        eprintln!("result file invalid: {p}");
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let kind = if scale.smoke { "smoke" } else { "result" };
    let path = out_dir().join(format!("{kind}_{stamp}_seed{}.json", args.seed));
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresult file: {}", path.display());
    if !all_correct {
        eprintln!("fail_ratio is non-zero: some operation failed or was not bit-identical");
    }
    Ok(all_correct && problems.is_empty())
}

fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare::rows(&load(base)?, &load(new)?);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    Ok(!compare::print(&rows))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, base, new] => compare_files(Path::new(base), Path::new(new)),
            _ => Err("usage: ppm-perf compare BASE.json NEW.json".into()),
        },
        _ => parse_args(&argv).and_then(|args| match (args.trace, &args.workload) {
            (Some(traced), Some(workload)) => single_pass(&args, workload, traced),
            (Some(_), None) => Err("--trace needs --workload".into()),
            (None, _) => run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ppm-perf: {e}");
            ExitCode::from(2)
        }
    }
}
