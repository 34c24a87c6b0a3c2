//! `occ` — an optimizing compiler for [`tlang`], standing in for GCC.
//!
//! The paper compiles generated C++ with GCC 4.3.2 `-Os` and measures the
//! assembly size. This crate reproduces that pipeline end to end:
//!
//! * **Front end**: [`lower`] translates a checked [`tlang::Module`] into a
//!   three-address control-flow-graph IR ([`mir`]).
//! * **Mid end**: SSA construction (Cytron-style dominance frontiers,
//!   [`ssa`]), then the fixed-point [`PassManager`] of [`opt`] — sparse
//!   conditional constant propagation (Wegman-Zadeck), dense constant
//!   folding, root-based dead-code elimination, copy propagation, global
//!   value numbering / CSE, block-local *and* cross-block store-to-load
//!   forwarding (the latter over the dominator-scoped available-load
//!   dataflow [`opt::avail_loads`]), load partial-redundancy elimination
//!   on diamond joins, dead-store elimination — all over the
//!   memory-dependence layer of [`mem`] (flat-image alias model: `Addr`
//!   roots plus constant offsets) — loop-invariant code motion out of
//!   natural loops ([`cfg::natural_loops`]) including clobber-free
//!   loads, terminator folding and jump threading, copy coalescing and
//!   return-block tail merging on the φ-free form, CFG simplification,
//!   bottom-up inlining of small functions, and call-graph dead-function
//!   elimination. The full roster per level and the per-pass contracts
//!   are documented in the [`opt`] module rustdoc; the pass set mirrors
//!   GCC's `-O0/-O1/-O2/-Os` philosophy ([`OptLevel`]), and every pass
//!   reports effect counters ([`PassStats`]) on the compiled
//!   [`Artifact`].
//! * **Back end**: a four-stage, Cranelift-shaped pipeline ([`backend`]):
//!   MIR lowers to `VCode` (machine instruction shapes over virtual
//!   registers with operand constraints), a liveness-range linear scan
//!   allocates with loop-weighted spill costs and caller-saved registers
//!   usable across call-free ranges, a debug-build verifier re-checks
//!   every constraint, and layout-aware emission (fall-through ordering,
//!   branch inversion, `-Os`-aware switch lowering, peephole) produces
//!   byte-accurate encoding ([`Assembly`] reports text/rodata/data sizes
//!   — the paper's "assembly code size in bytes"; [`RegAllocStats`]
//!   reports the allocator's spill/save footprint per artifact).
//! * **VM**: two EM32 execution engines ([`vm`]) behind one contract — a
//!   reference oracle walking the instruction stream, and a fast engine
//!   dispatching over a one-time pre-decode ([`vm::DecodedProgram`],
//!   carried on every [`Artifact`]) — so compiled programs can be
//!   *executed*, differentially tested against the `tlang` reference
//!   interpreter and against each other, and driven through event storms
//!   at bench speed. The [`vm`] module doc is the canonical two-engine
//!   contract.
//! * **Verifier**: a tiered MIR/SSA static checker ([`verify`]) whose
//!   module doc is the canonical invariant catalogue; debug builds
//!   re-check every pipeline boundary, and `OCC_VERIFY=each` escalates
//!   to per-pass verification with pass blame.
//! * **Driver**: the batch-compilation session layer ([`driver`]) —
//!   content-addressed artifact caching (an in-memory tier behind a
//!   lookup-only lock plus an optional on-disk tier) and parallel batch
//!   compilation over a shared worker pool, with per-session
//!   [`driver::DriverStats`] observability (cache hits/misses, compile
//!   throughput, per-stage wall-clock). The [`driver`] module doc is the
//!   canonical caching/hashing/parallelism contract.
//!
//! The central property the dead-code experiment (paper §III.C) relies on
//! falls out of soundness, not special-casing: generated state-machine code
//! keeps every state's functions **address-reachable** (switch cases over a
//! runtime state code, function pointers in const tables), so dead-function
//! elimination — which roots at exported functions and address-taken
//! symbols — must keep them, at every optimization level.
//!
//! # Example
//!
//! ```
//! use occ::{compile, OptLevel};
//! use tlang::{Expr, Function, Module, Stmt, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! module.push_function(Function {
//!     name: "answer".into(),
//!     params: vec![],
//!     ret: Type::I32,
//!     body: vec![Stmt::Return(Some(Expr::Int(42)))],
//!     exported: true,
//! });
//! let artifact = compile(&module, OptLevel::Os)?;
//! assert!(artifact.sizes().text > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod cfg;
pub mod driver;
pub mod lower;
pub mod mem;
pub mod mir;
pub mod opt;
pub mod ssa;
pub mod verify;
pub mod vm;

use std::fmt;

pub use backend::{Assembly, RegAllocStats, SizeReport};
pub use opt::{PassManager, PassStats, PipelineStats};

/// Optimization level, mirroring GCC's user-facing levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimization: straight lowering, fast-allocated registers.
    O0,
    /// Basic cleanups: CFG simplification, local folding, DCE.
    O1,
    /// Full mid-end: O1 plus constant propagation, copy propagation,
    /// inlining, dead-function elimination.
    O2,
    /// Optimize for size: the O2 pipeline with size-tuned inlining and
    /// size-aware switch lowering (the paper's `-Os`).
    Os,
}

impl OptLevel {
    /// All levels in ascending order.
    pub fn all() -> [OptLevel; 4] {
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::Os]
    }

    /// The GCC-style flag name.
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::Os => "-Os",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.flag())
    }
}

/// A compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The input module failed `tlang` type checking.
    Check(String),
    /// A function takes more arguments than the EM32 calling convention
    /// passes in registers.
    TooManyArgs {
        /// Offending function.
        function: String,
        /// Its arity.
        arity: usize,
    },
    /// Internal invariant violation (a compiler bug).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Check(msg) => write!(f, "type check failed: {msg}"),
            CompileError::TooManyArgs { function, arity } => {
                write!(f, "function `{function}` takes {arity} arguments (max 4)")
            }
            CompileError::Internal(msg) => write!(f, "internal compiler error: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The result of compiling a module: the final assembly plus reports.
#[derive(Debug, Clone)]
pub struct Artifact {
    asm: Assembly,
    decoded: vm::DecodedProgram,
    pass_stats: PipelineStats,
    surviving_functions: Vec<String>,
    level: OptLevel,
}

impl Artifact {
    /// The assembled program.
    pub fn assembly(&self) -> &Assembly {
        &self.asm
    }

    /// The pre-decoded dense form of the program, ready for
    /// [`vm::FastVm`]. Decoded once at compile time, so executing an
    /// artifact never pays a per-run decode.
    pub fn decoded(&self) -> &vm::DecodedProgram {
        &self.decoded
    }

    /// Size accounting (the paper's metric).
    pub fn sizes(&self) -> SizeReport {
        self.asm.sizes()
    }

    /// Register-allocation quality counters summed over all surviving
    /// functions: spill slots, saved callee-saved registers, and text
    /// bytes of inserted spill code.
    pub fn regalloc_stats(&self) -> RegAllocStats {
        self.asm.regalloc_stats()
    }

    /// Per-pass effect statistics from the mid-end pass manager — the
    /// analogue of GCC's per-pass dump files the paper inspected ("in the
    /// dead code elimination file, we have found that code related to the
    /// unreachable state still exists").
    pub fn pass_stats(&self) -> &PipelineStats {
        &self.pass_stats
    }

    /// One human-readable line per executed pass, rendered from
    /// [`Artifact::pass_stats`].
    pub fn pass_log(&self) -> Vec<String> {
        self.pass_stats.render()
    }

    /// Names of the functions present in the final program — the direct
    /// probe for the dead-code experiment.
    pub fn surviving_functions(&self) -> &[String] {
        &self.surviving_functions
    }

    /// The level this artifact was compiled at.
    pub fn level(&self) -> OptLevel {
        self.level
    }
}

/// Wall-clock cost of one [`compile`] call, split by pipeline stage —
/// the per-compile granularity behind [`driver::DriverStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Type check + MIR lowering.
    pub lower: std::time::Duration,
    /// Mid-end pass pipeline.
    pub opt: std::time::Duration,
    /// Backend (lowering, regalloc, emission).
    pub backend: std::time::Duration,
    /// Pre-decode for the fast engine.
    pub decode: std::time::Duration,
}

impl StageTimes {
    /// Total time across all four stages.
    pub fn total(&self) -> std::time::Duration {
        self.lower + self.opt + self.backend + self.decode
    }
}

/// Compiles a module at the given optimization level.
///
/// # Errors
///
/// Fails if the module does not type-check or exceeds backend limits (see
/// [`CompileError`]).
pub fn compile(module: &tlang::Module, level: OptLevel) -> Result<Artifact, CompileError> {
    compile_timed(module, level).map(|(artifact, _)| artifact)
}

/// [`compile`], additionally reporting per-stage wall-clock times. The
/// [`driver`] aggregates these into its observability counters; plain
/// callers use [`compile`].
///
/// # Errors
///
/// Fails if the module does not type-check or exceeds backend limits (see
/// [`CompileError`]).
pub fn compile_timed(
    module: &tlang::Module,
    level: OptLevel,
) -> Result<(Artifact, StageTimes), CompileError> {
    let mut times = StageTimes::default();
    let t = std::time::Instant::now();
    module
        .check()
        .map_err(|e| CompileError::Check(e.to_string()))?;
    let mut program = lower::lower_module(module)?;
    times.lower = t.elapsed();

    let t = std::time::Instant::now();
    let pass_stats = opt::run_pipeline(&mut program, level);
    times.opt = t.elapsed();

    let t = std::time::Instant::now();
    let asm = backend::compile_program(&program, level)?;
    times.backend = t.elapsed();

    let t = std::time::Instant::now();
    let decoded = vm::DecodedProgram::decode(&asm)
        .map_err(|e| CompileError::Internal(format!("decode: {e}")))?;
    times.decode = t.elapsed();

    let surviving_functions = program.functions.iter().map(|f| f.name.clone()).collect();
    Ok((
        Artifact {
            asm,
            decoded,
            pass_stats,
            surviving_functions,
            level,
        },
        times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlang::{Expr, Function, Module, Stmt, Type};

    fn answer_module() -> Module {
        let mut m = Module::new("demo");
        m.push_function(Function {
            name: "answer".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![Stmt::Return(Some(Expr::Int(40).add(Expr::Int(2))))],
            exported: true,
        });
        m
    }

    #[test]
    fn compiles_at_every_level() {
        let m = answer_module();
        for level in OptLevel::all() {
            let a = compile(&m, level).expect("compiles");
            assert!(a.sizes().text > 0, "{level}");
            assert_eq!(a.level(), level);
        }
    }

    #[test]
    fn optimization_shrinks_constant_math() {
        let m = answer_module();
        let o0 = compile(&m, OptLevel::O0).expect("o0");
        let os = compile(&m, OptLevel::Os).expect("os");
        assert!(
            os.sizes().text <= o0.sizes().text,
            "-Os ({}) must not exceed -O0 ({})",
            os.sizes().text,
            o0.sizes().text
        );
    }

    #[test]
    fn rejects_ill_typed_modules() {
        let mut m = Module::new("bad");
        m.push_function(Function {
            name: "f".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![],
            exported: true,
        });
        assert!(matches!(
            compile(&m, OptLevel::O1),
            Err(CompileError::Check(_))
        ));
    }

    #[test]
    fn flag_names_match_gcc() {
        assert_eq!(OptLevel::Os.flag(), "-Os");
        assert_eq!(OptLevel::all().len(), 4);
    }
}
