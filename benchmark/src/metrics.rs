//! The metric registry: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root declares the subset that has a
//! value on every workload (`declared` / `universal` below); the result
//! file and the printed tables carry all of them. A unit test keeps the
//! two in step.

use crate::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen before
    /// `compare` says "worse".
    pub bound: f64,
    /// Declared in `BENCHMARK.json`: has a non-zero value on every
    /// workload. The rest are exact counts or undefined on some workload.
    pub declared: bool,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    declared: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        declared,
    }
}

/// The nine end-to-end metrics, reported per workload. The timing
/// bounds are the A/A drift measured on the calibration host (see the
/// README), not a wish.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25, true),
    e2e("throughput_mibps", "MiB/s", Higher, 0.25, true),
    e2e("ops_per_s", "1/s", Higher, 0.25, true),
    e2e("latency_p50_us", "us", Lower, 0.25, true),
    // Needs >= 100 samples; null (never compared) below that.
    e2e("latency_p90_us", "us", Lower, 0.25, false),
    e2e("cpu_us_per_op", "us", Lower, 0.25, true),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, true),
    // Expected 0: any increase is a regression.
    e2e("fail_ratio", "ratio", Lower, 0.0, false),
    // Exact count, cluster_repair only: must repeat exactly.
    e2e("wire_bytes_per_op", "B", Lower, 0.0, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Measured on every workload (the per-layer set `BENCHMARK.json`
    /// declares); otherwise only on the workload that owns the layer.
    pub universal: bool,
}

const fn u(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        universal: true,
    }
}

const fn own(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        universal: false,
    }
}

/// Per-layer metrics, grouped by layer (crate/module name prefix).
pub const PER_LAYER: &[PerLayer] = &[
    // gf — region kernels against a memcpy/XOR roofline, at the
    // workload's sector size.
    u("gf.memcpy_gibps", "GiB/s", Higher),
    u("gf.xor_gibps", "GiB/s", Higher),
    u("gf.mul_xor_gibps.w8", "GiB/s", Higher),
    u("gf.mul_copy_gibps.w8", "GiB/s", Higher),
    u("gf.mul_xor_fused4_gibps.w8", "GiB/s", Higher),
    u("gf.mul_xor_gibps.w16", "GiB/s", Higher),
    u("gf.roofline_frac", "ratio", Higher),
    u("gf.table_build_ns", "ns", Lower),
    u("gf.bytes_per_op", "B", Lower),
    // matrix — on the workload's F and S.
    u("matrix.factor_us", "us", Lower),
    u("matrix.inverse_us", "us", Lower),
    u("matrix.solve_mat_us", "us", Lower),
    // core.planner — plan, partition, cost, cache.
    u("planner.build_us", "us", Lower),
    u("planner.hit_ns", "ns", Lower),
    u("planner.key_ns", "ns", Lower),
    u("planner.hit_rate", "ratio", Higher),
    u("planner.evictions", "count", Lower),
    u("plan.mult_xors_per_op", "count", Lower),
    u("plan.predicted_eq_executed", "ratio", Higher),
    u("plan.parallelism", "count", Higher),
    u("plan.speedup_vs_c1", "ratio", Higher),
    // core.tape
    u("tape.compile_us", "us", Lower),
    u("tape.exec_us", "us", Lower),
    u("tape.vs_kernel_x", "ratio", Lower),
    u("tape.graph_x", "ratio", Higher),
    u("tape.segments", "count", Lower),
    u("tape.fused_continuations", "count", Higher),
    // core.executor, incl. ScratchArena
    u("executor.decode_us", "us", Lower),
    u("executor.overhead_us", "us", Lower),
    u("executor.phase_a_frac", "ratio", Higher),
    u("executor.phase_b_frac", "ratio", Lower),
    u("executor.thread_speedup", "ratio", Higher),
    u("arena.take_give_ns", "ns", Lower),
    u("arena.reuse_rate", "ratio", Higher),
    u("arena.contended", "count", Lower),
    // core.service
    u("service.repair_us", "us", Lower),
    u("service.over_executor_us", "us", Lower),
    u("service.batch_w1_ops_per_s", "1/s", Higher),
    u("service.batch_wN_ops_per_s", "1/s", Higher),
    u("service.batch_speedup", "ratio", Higher),
    u("service.stream_ops_per_s", "1/s", Higher),
    u("service.verify_overhead_frac", "ratio", Lower),
    own("lat.p99_us", "us", Lower),
    u("lat.max_us", "us", Lower),
    // core.wire
    u("wire.from_plan_us", "us", Lower),
    u("wire.encode_us", "us", Lower),
    u("wire.decode_us", "us", Lower),
    u("wire.compile_us", "us", Lower),
    u("wire.plan_bytes", "B", Lower),
    // update
    own("update.write_ns", "ns", Lower),
    own("update.flush_us", "us", Lower),
    own("update.apply_update_us", "us", Lower),
    own("update.coalesce_ratio", "ratio", Higher),
    own("update.delta_flush_frac", "ratio", Higher),
    own("update.evictions", "count", Lower),
    own("update.parity_patches_per_write", "count", Lower),
    own("update.mult_xors_per_kib", "count", Lower),
    // cluster
    u("cluster.seal_ns", "ns", Lower),
    u("cluster.unseal_ns", "ns", Lower),
    u("cluster.crc32_gibps", "GiB/s", Higher),
    u("cluster.msg_encode_ns", "ns", Lower),
    u("cluster.msg_decode_ns", "ns", Lower),
    u("cluster.partials_us", "us", Lower),
    own("cluster.finish_rest_us", "us", Lower),
    own("cluster.frames_per_stripe", "count", Lower),
    own("cluster.plan_bytes_per_stripe", "B", Lower),
    own("cluster.plans_shipped", "count", Lower),
    own("cluster.partial_vs_naive_bytes", "ratio", Lower),
    own("cluster.sim_over_local_x", "ratio", Lower),
    // codes / stripe — harness costs, kept out of timed regions.
    u("codes.build_ms", "ms", Lower),
    u("codes.h_build_us", "us", Lower),
    u("stripe.clone_us", "us", Lower),
    u("stripe.erase_ns", "ns", Lower),
    // cli
    own("cli.startup_ms", "ms", Lower),
    own("cli.encode_s", "s", Lower),
    own("cli.corrupt_s", "s", Lower),
    own("cli.repair_s", "s", Lower),
    own("cli.decode_s", "s", Lower),
    own("cli.io_frac", "ratio", Lower),
    // trace — the traced pass itself, and where op wall time went.
    u("trace.overhead_frac", "ratio", Lower),
    u("trace.spans", "count", Lower),
    u("trace.unattributed_frac", "ratio", Lower),
    u("share.planner_matrix", "ratio", Lower),
    u("share.gf_tape", "ratio", Higher),
    u("share.executor", "ratio", Lower),
    u("share.other_layers", "ratio", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Names are letters, digits, `_`, `.`, `-`, start with a letter or a
/// digit, and are at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name, in the order they were recorded.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, Option<f64>)>,
}

impl Metrics {
    /// Records `value` under a registered per-layer or end-to-end name
    /// (an unregistered name is a bug in this program).
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_opt(name, Some(value));
    }

    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        assert!(
            per_layer(name).is_some() || end_to_end(name).is_some(),
            "unregistered metric {name}"
        );
        let value = value.filter(|v| v.is_finite());
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
}

/// `{"value": v, "unit": "..."}` — the shape of one metric in every JSON
/// this program writes.
pub fn metric_json(value: Option<f64>, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value).set("unit", unit);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} registered twice");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
    }

    /// `BENCHMARK.json` must declare exactly the metrics a single pass
    /// prints on its last line, with this registry's units, directions
    /// and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();

        let declared: Vec<_> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .collect();
        let expected: Vec<_> = END_TO_END.iter().filter(|m| m.declared).collect();
        assert_eq!(declared.len(), expected.len());
        for (d, e) in declared.iter().zip(&expected) {
            assert_eq!(field(d, "name"), e.name);
            assert_eq!(field(d, "unit"), e.unit);
            assert_eq!(field(d, "better"), e.better.name());
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                Some(e.bound),
                "{}",
                e.name
            );
        }

        let declared: Vec<_> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .collect();
        let expected: Vec<_> = PER_LAYER.iter().filter(|m| m.universal).collect();
        assert_eq!(declared.len(), expected.len());
        for (d, e) in declared.iter().zip(&expected) {
            assert_eq!(field(d, "name"), e.name);
            assert_eq!(field(d, "unit"), e.unit);
            assert_eq!(field(d, "better"), e.better.name());
        }

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::NAMES
            .iter()
            .map(|n| (n.to_string(), crate::workloads::why(n).to_string()))
            .collect();
        assert_eq!(workloads, expected);
    }
}
