//! `ppm-perf compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric) with a verdict against the metric's bound.

use crate::json::Value;
use crate::metrics::{self, Better};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The base's own run-to-run spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for a metric with direction `better` and
/// regression bound `bound` (a share of `base`); `base_spread` is the
/// base's inter-quartile distance as a share of its median, when the
/// base holds enough runs to have one.
pub fn verdict(
    base: f64,
    new: f64,
    better: Better,
    bound: f64,
    base_spread: Option<f64>,
) -> Verdict {
    if base_spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    // How much worse `new` is, as a share of `base`; negative = better.
    // A zero base (fail_ratio) has no share: any change counts in full.
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    } / if base == 0.0 { 1.0 } else { base.abs() };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub base_spread: Option<f64>,
    pub verdict: Verdict,
}

fn metric_of<'a>(doc: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)
}

/// Every comparable row: metrics present (non-null) in both files.
pub fn rows(base: &Value, new: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    let workloads = base.get("workloads").map(Value::fields).unwrap_or(&[]);
    for (workload, _) in workloads {
        for def in &metrics::END_TO_END {
            let value = |doc| metric_of(doc, workload, def.name)?.get("value")?.as_f64();
            let (Some(b), Some(n)) = (value(base), value(new)) else {
                continue;
            };
            let runs: Vec<f64> = metric_of(base, workload, def.name)
                .and_then(|m| m.get("runs"))
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            // Quartiles of fewer than four runs say nothing about spread.
            let base_spread = (runs.len() >= 4).then(|| stats::iqr_frac(&runs)).flatten();
            out.push(Row {
                workload: workload.clone(),
                metric: def.name,
                base: b,
                new: n,
                bound: def.bound,
                base_spread,
                verdict: verdict(b, n, def.better, def.bound, base_spread),
            });
        }
    }
    out
}

/// Prints the table; returns whether any row is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>18} {:>6} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut counts = [0usize; 4];
    for r in rows {
        let ratio = if r.base != 0.0 {
            format!("{:.4} of {:.4}", r.new / r.base, r.base)
        } else {
            "-".to_string()
        };
        let spread = r.base_spread.map_or("-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{:<22} {:<18} {:>14.4} {:>14.4} {:>18} {:>6.2} {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            ratio,
            r.bound,
            spread,
            r.verdict.name()
        );
        counts[r.verdict as usize] += 1;
    }
    println!(
        "{} rows: {} better, {} same, {} worse, {} unresolved",
        rows.len(),
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    counts[Verdict::Worse as usize] > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 105.0, Lower, 0.10, None), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(100.0, 85.0, Lower, 0.10, None), Verdict::Better);
        // Higher is better: a drop is worse.
        assert_eq!(verdict(100.0, 89.0, Higher, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(100.0, 95.0, Higher, 0.10, None), Verdict::Same);
        assert_eq!(verdict(100.0, 120.0, Higher, 0.10, None), Verdict::Better);
        // A tight base spread does not change the verdict; a wide one
        // makes the row unresolved whatever the difference.
        assert_eq!(
            verdict(100.0, 111.0, Lower, 0.10, Some(0.03)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 111.0, Lower, 0.10, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, Lower, 0.10, Some(0.12)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn zero_bounds_demand_exact_repeats() {
        use Better::Lower;
        // fail_ratio: expected 0, any increase is a regression.
        assert_eq!(verdict(0.0, 0.0, Lower, 0.0, None), Verdict::Same);
        assert_eq!(verdict(0.0, 0.001, Lower, 0.0, None), Verdict::Worse);
        // wire_bytes_per_op: an exact count.
        assert_eq!(verdict(51234.0, 51234.0, Lower, 0.0, None), Verdict::Same);
        assert_eq!(verdict(51234.0, 51235.0, Lower, 0.0, None), Verdict::Worse);
        assert_eq!(verdict(51234.0, 51000.0, Lower, 0.0, None), Verdict::Better);
    }

    #[test]
    fn rows_pair_up_metrics_and_skip_nulls() {
        let file = |throughput: f64, runs: &str| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"encode_mid":{{"end_to_end":{{
                    "throughput_mibps":{{"value":{throughput},"unit":"MiB/s","runs":{runs}}},
                    "latency_p90_us":{{"value":null,"unit":"us"}},
                    "fail_ratio":{{"value":0,"unit":"ratio"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let base = file(1000.0, "[990,1000,1005,1010]");
        let new = file(600.0, "[600]");
        let rows = rows(&base, &new);
        let names: Vec<_> = rows.iter().map(|r| r.metric).collect();
        assert_eq!(names, ["throughput_mibps", "fail_ratio"]);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(rows[0].base_spread.unwrap() < 0.05);
        assert_eq!(rows[1].verdict, Verdict::Same);

        let noisy = file(1000.0, "[700,900,1100,1300]");
        assert_eq!(super::rows(&noisy, &new)[0].verdict, Verdict::Unresolved);
    }
}
