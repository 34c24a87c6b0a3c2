//! Criterion micro-benchmarks of the toolchain itself, plus the
//! size-ablation benches DESIGN.md calls out (switch lowering strategy,
//! per-pattern compile cost) and per-pass costs of the mid-end.
//!
//! Run with `cargo bench -p bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgen::Pattern;
use mbo::Optimizer;
use occ::analysis::AnalysisCache;
use occ::mem::{FnAddrs, MemoryModel};
use occ::mir::MirFunction;
use occ::{opt, ssa, OptLevel};
use umlsm::{gen, samples};

fn bench_model_optimizer(c: &mut Criterion) {
    let machines = [
        ("flat", samples::flat_unreachable()),
        ("hierarchical", samples::hierarchical_never_active()),
        ("scaling12", samples::flat_with_unreachable(12)),
    ];
    let mut group = c.benchmark_group("model_optimize");
    group.sample_size(20);
    for (name, m) in &machines {
        group.bench_with_input(BenchmarkId::from_parameter(name), m, |b, m| {
            b.iter(|| {
                Optimizer::with_all()
                    .optimize(std::hint::black_box(m))
                    .expect("optimizes")
            })
        });
    }
    group.finish();
}

fn bench_codegen_patterns(c: &mut Criterion) {
    let m = samples::hierarchical_never_active();
    let mut group = c.benchmark_group("codegen");
    group.sample_size(20);
    for p in Pattern::all() {
        group.bench_with_input(BenchmarkId::from_parameter(p.label()), &p, |b, p| {
            b.iter(|| cgen::generate(std::hint::black_box(&m), *p).expect("generates"))
        });
    }
    group.finish();
}

fn bench_compiler_levels(c: &mut Criterion) {
    let m = samples::hierarchical_never_active();
    let generated = cgen::generate(&m, Pattern::NestedSwitch).expect("generates");
    // Report per-pass effect counts once per level so the bench output
    // shows *what* each level's time is buying.
    for level in OptLevel::all() {
        let artifact = occ::compile(&generated.module, level).expect("compiles");
        println!(
            "pass effects at {} ({} bytes):",
            level.flag(),
            artifact.sizes().total()
        );
        for line in bench::pass_effect_lines(&artifact) {
            println!("  {line}");
        }
    }
    let mut group = c.benchmark_group("compile");
    group.sample_size(15);
    for level in OptLevel::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.flag()),
            &level,
            |b, level| {
                b.iter(|| {
                    occ::compile(std::hint::black_box(&generated.module), *level).expect("compiles")
                })
            },
        );
    }
    group.finish();
}

/// Ablation: switch lowering (branch chain at -O1 vs jump table at -Os).
/// Criterion measures compile time; the report prints the resulting sizes
/// once, so the size delta is visible in the bench output.
fn bench_switch_lowering(c: &mut Criterion) {
    let m = samples::flat_with_unreachable(10);
    let generated = cgen::generate(&m, Pattern::NestedSwitch).expect("generates");
    let chain = occ::compile(&generated.module, OptLevel::O1).expect("compiles");
    let table = occ::compile(&generated.module, OptLevel::Os).expect("compiles");
    println!(
        "switch lowering ablation: -O1 (chains) {} bytes vs -Os (tables where smaller) {} bytes",
        chain.sizes().total(),
        table.sizes().total()
    );
    let mut group = c.benchmark_group("switch_lowering");
    group.sample_size(15);
    group.bench_function("O1_chain", |b| {
        b.iter(|| occ::compile(std::hint::black_box(&generated.module), OptLevel::O1))
    });
    group.bench_function("Os_table", |b| {
        b.iter(|| occ::compile(std::hint::black_box(&generated.module), OptLevel::Os))
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let m = samples::hierarchical_never_active();
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("two_step_nested_switch", |b| {
        b.iter(|| {
            let opt = Optimizer::with_all()
                .optimize(std::hint::black_box(&m))
                .expect("optimizes");
            let generated = cgen::generate(&opt.machine, Pattern::NestedSwitch).expect("generates");
            occ::compile(&generated.module, OptLevel::Os).expect("compiles")
        })
    });
    group.finish();
}

/// Generated machines whose functions the `passes` group runs on: the
/// first seeds of the pinned `umlsm::gen` corpus slice.
const PASS_BENCH_SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

/// One function as the `-O2` SSA fixed point first sees it, with the
/// memory model of its program.
struct PassInput {
    /// φ-free, after the program passes and `simplify_cfg`: the input of
    /// `ssa::construct`.
    phi_free: MirFunction,
    /// `phi_free` after `ssa::construct`: the input of the SSA passes.
    ssa: MirFunction,
    model: MemoryModel,
}

/// Every function of every pattern of the [`PASS_BENCH_SEEDS`] machines
/// (model-optimized, as the toolchain runs them), lowered and taken
/// through the `-O2` program passes, CFG simplification and SSA
/// construction.
fn pass_inputs() -> Vec<PassInput> {
    let mut inputs = Vec::new();
    for seed in PASS_BENCH_SEEDS {
        let model = gen::generate(seed, &gen::GenConfig::default());
        let machine = Optimizer::with_all()
            .optimize(&model)
            .expect("optimizes")
            .machine;
        for pattern in Pattern::all() {
            let generated = cgen::generate(&machine, pattern).expect("generates");
            let mut program = occ::lower::lower_module(&generated.module).expect("lowers");
            opt::inline_small_functions(&mut program, 24);
            opt::dead_function_elimination(&mut program);
            let memory = MemoryModel::of(&program);
            for mut f in program.functions {
                let mut cache = AnalysisCache::new();
                opt::simplify_cfg(&mut f, &mut cache);
                let mut ssa_form = f.clone();
                ssa::construct(&mut ssa_form, &mut AnalysisCache::new());
                inputs.push(PassInput {
                    phi_free: f,
                    ssa: ssa_form,
                    model: memory.clone(),
                });
            }
        }
    }
    inputs
}

/// Per-pass cost of the mid-end on real SSA-form functions: one sample
/// runs the pass once over every captured function, each with a fresh
/// analysis cache (so a pass pays for the analyses it reads). Mutating
/// passes work on clones; the `clone` entry is that copying cost alone.
fn bench_passes(c: &mut Criterion) {
    let inputs = pass_inputs();
    let insts: usize = inputs.iter().map(|i| i.ssa.inst_count()).sum();
    println!(
        "passes: {} SSA-form functions, {insts} instructions, from gen seeds {PASS_BENCH_SEEDS:?} at -O2",
        inputs.len()
    );
    type Pass = fn(&mut MirFunction, &MemoryModel, &mut AnalysisCache) -> occ::analysis::Changed;
    let ssa_passes: [(&str, Pass); 3] = [
        ("sccp", opt::sccp),
        ("dce", opt::dead_code_elim),
        ("cross_block_forward", opt::cross_block_forward),
    ];
    let mut group = c.benchmark_group("passes");
    group.sample_size(20);
    group.bench_function("clone", |b| {
        b.iter(|| inputs.iter().map(|i| i.ssa.clone()).collect::<Vec<_>>())
    });
    group.bench_function("ssa_construct", |b| {
        b.iter(|| {
            for i in &inputs {
                let mut f = i.phi_free.clone();
                ssa::construct(&mut f, &mut AnalysisCache::new());
            }
        })
    });
    for (name, pass) in ssa_passes {
        group.bench_function(name, |b| {
            b.iter(|| {
                for i in &inputs {
                    let mut f = i.ssa.clone();
                    pass(&mut f, &i.model, &mut AnalysisCache::new());
                }
            })
        });
    }
    group.bench_function("fn_addrs", |b| {
        b.iter(|| {
            inputs
                .iter()
                .map(|i| FnAddrs::analyze(&i.ssa))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("avail_loads", |b| {
        b.iter(|| {
            inputs
                .iter()
                .map(|i| opt::avail_loads(&i.ssa, &i.model, &mut AnalysisCache::new()))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_passes,
    bench_model_optimizer,
    bench_codegen_patterns,
    bench_compiler_levels,
    bench_switch_lowering,
    bench_end_to_end
);
criterion_main!(benches);
