//! The traced run: spans and counters recorded from outside each layer,
//! around calls into its public functions.
//!
//! Every layer call the benchmark makes is sequential, so a span's
//! duration is the layer's self time. The driver's self time is a driver
//! call's wall-clock less the layer calls it makes inside, each measured
//! again from outside on the same input.

use std::collections::BTreeMap;
use std::time::Instant;

use cgen::CodeMap;
use occ::backend::{self, Assembly};
use occ::driver::{deserialize_artifact, job_hash, serialize_artifact};
use occ::vm::DecodedProgram;
use occ::{Artifact, OptLevel};

use crate::storm;

/// Named accumulators of one run. A disabled trace records nothing and
/// calls no clock.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    sums: BTreeMap<String, f64>,
}

impl Trace {
    /// A trace that records nothing.
    pub fn off() -> Trace {
        Trace::default()
    }

    /// A recording trace.
    pub fn on() -> Trace {
        Trace {
            on: true,
            sums: BTreeMap::new(),
        }
    }

    /// Whether this trace records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall-clock in milliseconds to `key`.
    pub fn span<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(key, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Adds `value` to `key`.
    pub fn add(&mut self, key: &str, value: f64) {
        if self.on {
            *self.sums.entry(key.to_string()).or_default() += value;
        }
    }

    /// The accumulated value of `key` (0 if never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// The 16 mid-end passes, by canonical name.
pub const PASSES: [&str; 16] = {
    use occ::opt::pass::*;
    [
        CONST_FOLD,
        COPY_PROP,
        SCCP,
        LICM,
        COPY_COALESCE,
        TAIL_MERGE,
        GVN_CSE,
        STORE_LOAD_FWD,
        CROSS_LOAD_FWD,
        LOAD_PRE,
        DSE,
        TERM_FOLD,
        DCE,
        SIMPLIFY_CFG,
        INLINE,
        DEAD_FN_ELIM,
    ]
};

fn mir_insts(program: &occ::mir::Program) -> f64 {
    program
        .functions
        .iter()
        .map(occ::mir::MirFunction::inst_count)
        .sum::<usize>() as f64
}

/// Compiles one job again, stage by stage through `occ`'s public stage
/// functions, recording a span per stage, and checks that the result is
/// the driver's artifact: the same `Assembly` (`==`), the same pass
/// statistics, and the same decoded size. Also times `job_hash` and an
/// artifact serialize/deserialize round trip on the job.
///
/// # Errors
///
/// A description of the first stage failure or mismatch.
pub fn staged_compile(
    trace: &mut Trace,
    module: &tlang::Module,
    level: OptLevel,
    reference: &Artifact,
) -> Result<(), String> {
    let t = Instant::now();
    std::hint::black_box(job_hash(module, level));
    trace.add("hash_us", t.elapsed().as_secs_f64() * 1e6);
    trace.add("hash_calls", 1.0);

    trace
        .span("tlang.check_ms", || module.check())
        .map_err(|e| format!("type check failed: {e}"))?;
    let mut program = trace
        .span("occ.lower.ms", || occ::lower::lower_module(module))
        .map_err(|e| e.to_string())?;
    trace.add("occ.lower.mir_insts", mir_insts(&program));
    let stats = trace.span("occ.opt.ms", || occ::opt::run_pipeline(&mut program, level));
    trace.add("occ.opt.mir_insts_out", mir_insts(&program));
    for p in stats.passes() {
        trace.add(&format!("occ.opt.{}.runs", p.name), p.runs as f64);
        trace.add(&format!("occ.opt.{}.changes", p.name), p.changes as f64);
        trace.add(
            &format!("occ.opt.{}.insts_removed", p.name),
            p.insts_removed as f64,
        );
    }

    let mut functions = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        let mut vc = trace
            .span("occ.backend.vcode_ms", || {
                backend::lower::lower_function(f, level)
            })
            .map_err(|e| e.to_string())?;
        let alloc = trace.span("occ.backend.regalloc_ms", || {
            backend::regalloc::allocate(&mut vc)
        });
        functions.push(trace.span("occ.backend.emit_ms", || {
            backend::emit::emit_function(&vc, level, alloc.stats)
        }));
    }
    // Layout and data relocation are only reachable through
    // `compile_program`, which runs the per-function stages again; it is
    // not timed, and its functions must be the ones just built.
    let asm: Assembly = backend::compile_program(&program, level).map_err(|e| e.to_string())?;
    if asm.functions != functions {
        return Err("per-function backend output differs from compile_program".into());
    }
    let ra = asm.regalloc_stats();
    trace.add("occ.backend.spill_slots", ra.spill_slots as f64);
    trace.add("occ.backend.spill_bytes", ra.spill_bytes as f64);
    trace.add("occ.backend.saved_regs", ra.saved_regs as f64);

    let decoded = trace
        .span("occ.vm.decode_ms", || DecodedProgram::decode(&asm))
        .map_err(|e| format!("decode: {e}"))?;
    trace.add("occ.vm.ops", decoded.op_count() as f64);

    if &asm != reference.assembly() {
        return Err("staged Assembly differs from occ::compile's".into());
    }
    if &stats != reference.pass_stats() {
        return Err("staged pass statistics differ from occ::compile's".into());
    }
    if decoded.op_count() != reference.decoded().op_count() {
        return Err("staged decode differs from occ::compile's".into());
    }

    let t = Instant::now();
    let bytes = serialize_artifact(reference);
    let back = deserialize_artifact(&bytes);
    trace.add("roundtrip_us", t.elapsed().as_secs_f64() * 1e6);
    match back {
        Ok(a) if a.assembly() == reference.assembly() => Ok(()),
        Ok(_) => Err("artifact round trip changed the Assembly".into()),
        Err(e) => Err(format!("artifact round trip failed: {e}")),
    }
}

/// Times one plain storm round over a cell and counts its dispatches
/// through the coverage hook, checking that both engines' views of the
/// chunk agree on the executed-instruction count.
///
/// # Errors
///
/// A VM fault or a count mismatch, described.
pub fn traced_storm(
    trace: &mut Trace,
    prog: &DecodedProgram,
    codes: &CodeMap,
    chunks: usize,
) -> Result<(), String> {
    let plain = storm::round([(prog, codes)], chunks);
    if let Some(f) = plain.faults.first() {
        return Err(f.clone());
    }
    trace.add("occ.vm.storm_ms", plain.secs * 1e3);
    trace.add("storm_events", plain.events as f64);
    trace.add("storm_insts", plain.dyn_insts as f64);
    let counted = storm::count_dispatches(prog, codes)?;
    if counted.dyn_insts * chunks as u64 != plain.dyn_insts {
        return Err(format!(
            "coverage-counted chunk executed {} instructions, plain storm {} per {chunks} chunks",
            counted.dyn_insts, plain.dyn_insts
        ));
    }
    trace.add("dispatch_events", counted.events as f64);
    trace.add("dispatch_insts", counted.dyn_insts as f64);
    trace.add("dispatches", counted.dispatches as f64);
    Ok(())
}
