//! One pass of one workload: set-up, the timed closed loop, and the
//! numbers that come out of it.
//!
//! The loop is closed with one client: call `i + 1` is issued only after
//! call `i` has returned and been checked. Every call is timed on its
//! own, with input preparation and output checking outside the timed
//! region; consecutive calls are grouped into *rounds*, and each round
//! yields one throughput sample (work done ÷ time inside its calls).
//! Reported figures are medians over rounds or calls, so a burst of
//! interference from another tenant of the host moves a few samples,
//! not the result.

use crate::host;
use crate::json::Value;
use crate::metrics::{self, metric_json, Metrics};
use crate::probes;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Checked, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// How a pass is sized.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Wall seconds the measuring loop runs for.
    pub seconds: f64,
    /// ~1/50 scale: tiny pools, one set-up, short probes. Checks the
    /// plumbing, not the performance.
    pub smoke: bool,
}

impl Scale {
    /// Whether an untraced pass that has done `reps` set-ups in
    /// `spent` should do another. `setup_s` is their median — at least
    /// five, so the slow first touch of fresh memory does not decide it,
    /// and more while they are cheap, so a millisecond-sized set-up is
    /// not decided by one timer hiccup either.
    fn another_setup(&self, reps: usize, spent: Duration) -> bool {
        if self.smoke {
            return reps < 1;
        }
        reps < 5 || (reps < 64 && spent < Duration::from_secs(1))
    }

    /// Time budget of one per-layer probe.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 2 } else { 40 })
    }
}

const MIN_ROUNDS: usize = 3;

#[derive(Default)]
struct Round {
    ops: u64,
    bytes: u64,
    wall_ns: u64,
    cpu_us: u64,
}

#[derive(Default)]
struct Samples {
    rounds: Vec<Round>,
    call_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn per_round(&self, f: impl Fn(&Round) -> f64) -> Option<f64> {
        stats::median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    fn throughput_mibps(&self) -> Option<f64> {
        self.per_round(|r| r.bytes as f64 / (1u64 << 20) as f64 / (r.wall_ns as f64 / 1e9))
    }

    fn ops_per_s(&self) -> Option<f64> {
        self.per_round(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
    }

    fn cpu_us_per_op(&self) -> Option<f64> {
        self.per_round(|r| r.cpu_us as f64 / r.ops.max(1) as f64)
    }

    fn latency_us(&self, p: f64) -> Option<f64> {
        let supported = p == 50.0 || stats::supports(self.call_ns.len(), p);
        supported
            .then(|| stats::percentile(&self.call_ns, p))
            .flatten()
            .map(|ns| ns / 1e3)
    }
}

/// Runs one round; `tracer` selects the traced path.
fn run_round(
    w: &mut dyn Workload,
    next_call: &mut u64,
    mut tracer: Option<&mut Tracer>,
    into: &mut Samples,
) {
    let mut round = Round::default();
    for _ in 0..w.calls_per_round() {
        let index = *next_call;
        *next_call += 1;
        w.prepare(index);
        let cpu_before = host::cpu_us();
        let started = Instant::now();
        w.call(index, tracer.as_deref_mut());
        let elapsed = started.elapsed().as_nanos() as u64;
        let cpu_after = host::cpu_us();
        let Checked { ops, bytes, failed } = w.check(index);
        round.ops += ops;
        round.bytes += bytes;
        round.wall_ns += elapsed;
        round.cpu_us += cpu_after.saturating_sub(cpu_before);
        into.call_ns.push(elapsed as f64);
        into.attempted += ops;
        into.failed += failed;
    }
    into.rounds.push(round);
}

fn fold_finish(into: &mut Samples, end: Checked) {
    into.attempted += end.ops;
    into.failed += end.failed;
}

/// What one pass produced: the contract's last-line object plus the
/// fuller report the all-workloads driver merges into the result file.
pub struct PassOutcome {
    pub last_line: Value,
    pub report: Value,
    pub correct: bool,
}

/// Runs the untraced pass: end-to-end metrics.
pub fn untraced_pass(name: &str, seed: u64, scale: Scale) -> Result<PassOutcome, String> {
    let mut setups = Vec::new();
    let mut workload = None;
    let setup_started = Instant::now();
    while scale.another_setup(setups.len(), setup_started.elapsed()) {
        // Free the previous instance first so peak memory is one set-up's.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workloads::build(name, seed, scale)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut w = workload.ok_or("no set-up ran")?;

    let mut samples = Samples::default();
    let mut next_call = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(scale.seconds);
    while samples.rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        run_round(w.as_mut(), &mut next_call, None, &mut samples);
    }
    fold_finish(&mut samples, w.finish(None));

    let mut m = Metrics::default();
    m.put_opt("setup_s", stats::median(&setups));
    m.put_opt("throughput_mibps", samples.throughput_mibps());
    m.put_opt("ops_per_s", samples.ops_per_s());
    m.put_opt("latency_p50_us", samples.latency_us(50.0));
    m.put_opt("latency_p90_us", samples.latency_us(90.0));
    m.put_opt("cpu_us_per_op", samples.cpu_us_per_op());
    m.put("peak_rss_mib", host::peak_rss_mib());
    m.put(
        "fail_ratio",
        samples.failed as f64 / samples.attempted.max(1) as f64,
    );
    m.put_opt("wire_bytes_per_op", w.wire_bytes_per_op());

    let mut last = Value::obj();
    for def in metrics::END_TO_END.iter().filter(|d| d.declared) {
        last.set(def.name, metric_json(m.get(def.name), def.unit));
    }
    let mut all = Value::obj();
    for def in &metrics::END_TO_END {
        let mut v = metric_json(m.get(def.name), def.unit);
        v.set("samples", sample_count(def.name, &samples, setups.len()));
        all.set(def.name, v);
    }
    let mut report = Value::obj();
    report
        .set("workload", name)
        .set("working_set_bytes", w.working_set_bytes())
        .set("calls", samples.call_ns.len())
        .set("rounds", samples.rounds.len())
        .set("end_to_end", all)
        .set(
            "round_ops_per_s",
            samples
                .rounds
                .iter()
                .map(|r| Value::from(r.ops as f64 / (r.wall_ns.max(1) as f64 / 1e9)))
                .collect::<Vec<_>>(),
        );
    // The highest percentile this many calls support, whatever it is.
    if let Some(p) = stats::highest_supported_percentile(samples.call_ns.len()) {
        let mut tail = Value::obj();
        tail.set("percentile", p)
            .set("value_us", samples.latency_us(p))
            .set("samples", samples.call_ns.len());
        report.set("latency_tail", tail);
    }
    Ok(finish_outcome(last, report, &samples))
}

/// How many samples stand behind an end-to-end figure.
fn sample_count(name: &str, samples: &Samples, setups: usize) -> usize {
    match name {
        "setup_s" => setups,
        "latency_p50_us" | "latency_p90_us" => samples.call_ns.len(),
        "peak_rss_mib" | "fail_ratio" | "wire_bytes_per_op" => 1,
        _ => samples.rounds.len(),
    }
}

fn finish_outcome(metrics_obj: Value, mut report: Value, samples: &Samples) -> PassOutcome {
    let correct = samples.failed == 0 && samples.attempted > 0;
    let mut last_line = Value::obj();
    last_line
        .set("correct", correct)
        .set("attempted", samples.attempted.max(1))
        .set("failed", samples.failed)
        .set("metrics", metrics_obj);
    report
        .set("correct", correct)
        .set("attempted", samples.attempted)
        .set("failed", samples.failed);
    PassOutcome {
        last_line,
        report,
        correct,
    }
}

/// Runs the traced pass: the same inputs through the decomposed public
/// path with a span around each layer call, alternating with untraced
/// rounds so the two throughputs are measured under the same conditions
/// and their difference is the tracing overhead; then the per-layer
/// probes at the workload's own geometry.
pub fn traced_pass(
    name: &str,
    seed: u64,
    scale: Scale,
    trace_dir: &Path,
) -> Result<PassOutcome, String> {
    let mut w = workloads::build(name, seed, scale)?;
    let mut tracer = Tracer::new();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut next_call = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(scale.seconds);
    while traced.rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        run_round(w.as_mut(), &mut next_call, None, &mut plain);
        run_round(w.as_mut(), &mut next_call, Some(&mut tracer), &mut traced);
    }
    fold_finish(&mut traced, w.finish(Some(&mut tracer)));
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;

    let mut m = Metrics::default();
    probes::run(&w.probe_ctx(), scale, &mut m);
    w.layer_metrics(&mut m, scale);

    // Round i of each kind ran back to back: the median of the pairs'
    // throughput ratios is the overhead, whatever the host did meanwhile.
    let rate = |r: &Round| r.ops as f64 / r.wall_ns.max(1) as f64;
    let ratios: Vec<f64> = plain
        .rounds
        .iter()
        .zip(&traced.rounds)
        .map(|(p, t)| rate(t) / rate(p))
        .collect();
    let overhead = stats::median(&ratios).map(|r| 1.0 - r);
    m.put_opt("trace.overhead_frac", overhead);
    m.put("trace.spans", tracer.spans() as f64);
    m.put("trace.unattributed_frac", tracer.unattributed_frac());
    let shares = tracer.shares();
    let share = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| shares.get(n).copied().unwrap_or(0.0))
            .sum()
    };
    let planner = share(&["core.planner"]);
    let gf_tape = share(&["core.tape.compile", "core.tape.exec", "gf"]);
    let executor = share(&["core.executor"]);
    m.put("share.planner_matrix", planner);
    m.put("share.gf_tape", gf_tape);
    m.put("share.executor", executor);
    m.put(
        "share.other_layers",
        (1.0 - planner - gf_tape - executor - tracer.unattributed_frac()).max(0.0),
    );
    m.put_opt("lat.p99_us", traced.latency_us(99.0));
    m.put_opt(
        "lat.max_us",
        stats::percentile(&traced.call_ns, 100.0).map(|ns| ns / 1e3),
    );

    std::fs::create_dir_all(trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let trace_path = trace_dir.join(format!("trace_{name}.jsonl"));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut last = Value::obj();
    for def in metrics::PER_LAYER.iter().filter(|d| d.universal) {
        let value = m
            .get(def.name)
            .ok_or_else(|| format!("{name}: per-layer metric {} was not measured", def.name))?;
        last.set(def.name, metric_json(Some(value), def.unit));
    }
    let mut all = Value::obj();
    for def in metrics::PER_LAYER {
        if def.universal || m.get(def.name).is_some() {
            let mut v = metric_json(m.get(def.name), def.unit);
            v.set("better", def.better.name());
            all.set(def.name, v);
        }
    }
    let mut attribution = Value::obj();
    for (span, frac) in &shares {
        let label = if *span == trace::OP {
            "(unattributed)"
        } else {
            span
        };
        attribution.set(label, *frac);
    }
    let mut report = Value::obj();
    report
        .set("workload", name)
        .set("per_layer", all)
        .set("attribution", attribution)
        .set("trace_file", trace_path.display().to_string())
        .set("traced_calls", traced.call_ns.len());
    Ok(finish_outcome(last, report, &traced))
}
