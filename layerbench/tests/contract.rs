//! The benchmark's own contract: deterministic inputs, the metric names
//! `BENCHMARK.json` declares, the pinned hit/miss mix, and agreement of
//! the deterministic figures between traced and untraced runs.
//!
//! Workloads run here on a few machines instead of the benchmark's
//! slices, so the suite stays fast.

use std::collections::BTreeSet;
use std::path::PathBuf;

use layerbench::corpus;
use layerbench::report::{self, END_TO_END};
use layerbench::trace::Trace;
use layerbench::workload::{self, Params, Workload};
use occ::driver::job_hash;

fn params(test: &str, trace: bool) -> Params {
    let mut p = Params::new(
        5,
        0.2,
        trace,
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("layerbench-{test}")),
    );
    p.cold_machines = 2;
    p.rebuild_machines = 4;
    p
}

fn job_hashes(seed: u64) -> Vec<u128> {
    let inputs = corpus::corpus(seed, 3, &mut Trace::off()).expect("corpus builds");
    inputs.jobs.iter().map(|(m, l)| job_hash(m, *l)).collect()
}

#[test]
fn same_seed_gives_the_same_job_list() {
    let a = job_hashes(11);
    assert_eq!(a.len(), 3 * 12);
    assert_eq!(a, job_hashes(11), "same seed, same jobs in the same order");
    let b = job_hashes(12);
    assert_ne!(a, b, "the seed draws the serving order");
    let sorted = |v: &[u128]| v.iter().copied().collect::<BTreeSet<_>>();
    assert_eq!(sorted(&a), sorted(&b), "the machines themselves are pinned");
}

/// The `"name"` values inside one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared("per_layer"), layers);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads"), workloads);
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<String> = report::printed(false)
        .into_iter()
        .chain(report::printed(true))
        .map(|(n, _)| n)
        .collect();
    for n in &names {
        assert!(n.len() <= 64, "{n} is too long");
        assert!(
            n.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{n} must start with a letter or digit"
        );
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{n} must match [A-Za-z0-9_.-]+"
        );
    }
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "metric names must be unique");
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = workload::run(w, &params(&format!("all-{}-{trace}", w.name()), trace))
                .expect("runs");
            assert_eq!(
                out.failed,
                0,
                "{} trace {trace}: {:?}",
                w.name(),
                out.errors
            );
            report::result_line(&out, &report::printed(trace)).expect("every metric measured");
        }
    }
}

#[test]
fn incremental_rebuild_sees_its_pinned_hit_miss_mix() {
    let p = params("mix", false);
    let out = workload::run(Workload::IncrementalRebuild, &p).expect("runs");
    assert_eq!(out.failed, 0, "{:?}", out.errors);
    // One edited machine: its 3 patterns × 4 levels miss, the rest hit.
    let cells = p.rebuild_machines * 12;
    assert_eq!(out.mix, Some((cells - 12, 12)));
}

#[test]
fn deterministic_figures_agree_between_traced_and_untraced_runs() {
    for w in Workload::ALL {
        let plain = workload::run(w, &params(&format!("det-{}", w.name()), false)).expect("runs");
        let traced = workload::run(w, &params(&format!("det-{}-t", w.name()), true)).expect("runs");
        let again = workload::run(w, &params(&format!("det-{}-t2", w.name()), true)).expect("runs");
        for name in ["code_bytes", "dyn_insts_per_event"] {
            assert_eq!(
                plain.values[name],
                traced.values[name],
                "{}: {name} traced vs untraced",
                w.name()
            );
        }
        for (name, unit) in report::per_layer() {
            if unit == "count"
                || name == "occ.vm.dispatches_per_event"
                || name == "occ.vm.fused_share"
            {
                assert_eq!(
                    traced.values[&name],
                    again.values[&name],
                    "{}: {name} must repeat exactly",
                    w.name()
                );
            }
        }
    }
}
