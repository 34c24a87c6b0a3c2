//! Metric names, units, and the result line.

use std::collections::BTreeMap;

use crate::trace::PASSES;

/// Every end-to-end metric, `(name, unit)`. Each workload prints all of
/// them (see the README for what each means on each workload).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("compile_cells_per_s", "cells/s"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p95", "ms"),
    ("rebuild_s", "s"),
    ("events_per_s", "ev/s"),
    ("step_ns_p50", "ns/event"),
    ("step_ns_p99", "ns/event"),
    ("code_bytes", "B"),
    ("dyn_insts_per_event", "insts"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-pass counters.
const LAYERS: [(&str, &str); 33] = [
    ("umlsm.gen_ms", "ms"),
    ("mbo.optimize_ms", "ms"),
    ("mbo.states_removed", "count"),
    ("mbo.transitions_removed", "count"),
    ("cgen.generate_ms", "ms"),
    ("tlang.check_ms", "ms"),
    ("occ.lower.ms", "ms"),
    ("occ.lower.mir_insts", "count"),
    ("occ.opt.ms", "ms"),
    ("occ.opt.mir_insts_out", "count"),
    ("occ.opt.pass_runs", "count"),
    ("occ.opt.pass_changes", "count"),
    ("occ.opt.useful_run_ratio", "ratio"),
    ("occ.backend.vcode_ms", "ms"),
    ("occ.backend.regalloc_ms", "ms"),
    ("occ.backend.emit_ms", "ms"),
    ("occ.backend.spill_slots", "count"),
    ("occ.backend.spill_bytes", "B"),
    ("occ.backend.saved_regs", "count"),
    ("occ.vm.decode_ms", "ms"),
    ("occ.vm.ops", "count"),
    ("occ.vm.storm_ms", "ms"),
    ("occ.vm.dispatches_per_event", "ops/event"),
    ("occ.vm.fused_share", "ratio"),
    ("occ.driver.hash_us", "us"),
    ("occ.driver.hit_us", "us"),
    ("occ.driver.miss_ms", "ms"),
    ("occ.driver.hit_rate", "ratio"),
    ("occ.driver.misses", "count"),
    ("occ.driver.rejected", "count"),
    ("occ.driver.artifact_roundtrip_us", "us"),
    ("occ.driver.parallel_efficiency", "ratio"),
    ("layerbench.trace_overhead_pct", "%"),
];

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for pass in PASSES {
        for counter in ["runs", "changes", "insts_removed"] {
            out.push((format!("occ.opt.{pass}.{counter}"), "count"));
        }
    }
    out
}

/// What a run produced: operation counts, failures and named values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: compiles, checks, storm chunks, rebuilds.
    pub attempted: u64,
    /// Operations that failed, plus fidelity and hit/miss violations.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable notes: sample counts, the hit/miss mix.
    pub notes: Vec<String>,
    /// `incremental-rebuild`'s pinned `(disk hits, misses)` per rebuild,
    /// checked on every repetition.
    pub mix: Option<(usize, usize)>,
}

impl Outcome {
    /// Counts one operation, failed when `result` is an error.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts a failure that is not an operation of its own (a
    /// deterministic count that moved, an unexpected hit/miss mix).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// The metrics a run prints: every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn printed(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    }
}

/// Renders the result line for `names`, failing if a value is missing
/// or not finite, or if the outcome holds a metric no list declares.
///
/// # Errors
///
/// Names a missing, undeclared or non-finite metric.
pub fn result_line(out: &Outcome, names: &[(String, &str)]) -> Result<String, String> {
    let declared = [printed(false), printed(true)].concat();
    if let Some(extra) = out
        .values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = *out
            .values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
///
/// If `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
