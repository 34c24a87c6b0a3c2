//! The mid-end: a fixed-point pass manager over SSA passes, plus the
//! program-level passes (inlining, dead-function elimination) that frame
//! it. This module doc is the canonical description of the pass
//! pipeline; ROADMAP.md's Building section only points here.
//!
//! # Architecture
//!
//! [`run_pipeline`] is the entry point. For `-O1` and above it builds a
//! [`PassManager`] with the SSA passes registered for the level and runs
//! every function through it. The pass manager drives each function
//! through bounded **outer rounds** of
//!
//! ```text
//! simplify_cfg → ssa::construct → [SSA passes to a fixed point] → ssa::destruct → [post passes]
//! ```
//!
//! and iterates the registered SSA passes inside each round until a full
//! sweep changes nothing (or [`PassManager::MAX_SSA_ROUNDS`] is hit). The
//! outer rounds matter because φ-free CFG simplification exposes work the
//! SSA passes could not see — threading two empty arms of a `Br` onto the
//! same join block, for example, creates the equal-target branch that
//! [`fold_terminators`] collapses in the next round. The φ-free **post
//! passes** run after each `ssa::destruct`, where the φ-lowering copy
//! residue is first visible; they are cleanup and never drive another
//! outer round on their own.
//!
//! ## The analysis cache
//!
//! Every step of a function's run — each pass, [`simplify_cfg`],
//! [`ssa::construct`] and [`ssa::destruct`] — shares one
//! [`AnalysisCache`]: predecessors, reverse postorder and reachability,
//! the dominator map, natural loops, dominance frontiers,
//! [`mem::FnAddrs`] and [`AvailLoads`], each computed on first use. No
//! pass derives an analysis itself. Most pass runs change nothing, so
//! most queries are hits: in a quiet sweep every memory pass and
//! [`licm`] share one address resolution, and [`load_pre`] reuses the
//! availability dataflow [`cross_block_forward`] built.
//!
//! Each step reports a [`Changed`] class instead of a `bool`, and the
//! manager applies it to the cache:
//!
//! | class | meaning | the cache keeps |
//! |---|---|---|
//! | [`Changed::Nothing`] | the function is untouched | everything |
//! | [`Changed::Insts`] | instructions, φs or terminator operands changed; every successor list is intact | the CFG analyses (all but [`mem::FnAddrs`] and [`AvailLoads`]) |
//! | [`Changed::Cfg`] | a successor list, the block count or the numbering changed | nothing |
//!
//! A pass that mutates and then queries again within one run — [`licm`]
//! re-discovering loops after each hoist, [`fold_terminators`] threading
//! one edge at a time — invalidates at the point of mutation. The
//! [`crate::analysis`] module doc tables what each entry depends on.
//!
//! ```
//! use occ::analysis::{AnalysisCache, Changed};
//! use occ::mem::MemoryModel;
//! use occ::mir::{Block, BlockId, Inst, MirFunction, Term, VReg};
//! use occ::{opt, ssa};
//!
//! // v1 = 2; v2 = 3; v3 = v1 + v2; return v3
//! let mut f = MirFunction {
//!     name: "f".into(),
//!     params: 0,
//!     returns_value: true,
//!     exported: true,
//!     blocks: vec![Block {
//!         insts: vec![
//!             Inst::Const { dst: VReg(1), value: 2 },
//!             Inst::Const { dst: VReg(2), value: 3 },
//!             Inst::Bin { op: occ::mir::BinOp::Add, dst: VReg(3), lhs: VReg(1), rhs: VReg(2) },
//!         ],
//!         term: Term::Ret(Some(VReg(3))),
//!     }],
//!     next_vreg: 4,
//! };
//! let model = MemoryModel::default();
//! let mut cache = AnalysisCache::new();
//! let changed = ssa::construct(&mut f, &mut cache);
//! cache.invalidate(changed);
//! // Folding the add rewrites an instruction but no edge.
//! let changed = opt::sccp(&mut f, &model, &mut cache);
//! assert_eq!(changed, Changed::Insts);
//! cache.invalidate(changed);
//! // A second run finds nothing left to fold.
//! assert_eq!(opt::sccp(&mut f, &model, &mut cache), Changed::Nothing);
//! assert!(cache.stale(&f, &model).is_empty());
//! ```
//!
//! Every pass records a [`PassStats`] entry — `runs`, `changes` (runs
//! that rewrote something) and `insts_removed` — collected into the
//! [`PipelineStats`] that [`crate::compile`] exposes on the artifact.
//! This is the analogue of GCC's per-pass dump files the paper inspected
//! ("in the dead code elimination file, we have found that code related
//! to the unreachable state still exists"), made machine-readable so the
//! bench harness can report per-pass effect counts next to the size
//! tables, and the CI regression gate can diff whole matrices of them.
//!
//! # The roster per level
//!
//! `-O0` runs nothing. The SSA fixed point then runs, in registration
//! order:
//!
//! | pass                    | `-O1` (2 rounds) | `-O2`/`-Os` (3 rounds) |
//! |-------------------------|------------------|------------------------|
//! | [`sccp`]                |                  | ✓                      |
//! | [`constant_fold`]       | ✓                |                        |
//! | [`copy_propagate`]      |                  | ✓                      |
//! | [`gvn_cse`]             |                  | ✓                      |
//! | [`store_load_forward`]  | ✓                | ✓                      |
//! | [`cross_block_forward`] | ✓                | ✓                      |
//! | [`load_pre`]            | ✓                | ✓                      |
//! | [`dead_store_elim`]     | ✓                | ✓                      |
//! | [`licm`]                |                  | ✓                      |
//! | [`fold_terminators`]    | ✓                | ✓                      |
//! | [`dead_code_elim`]      | ✓                | ✓                      |
//!
//! with [`coalesce_copies`] and [`merge_return_blocks`] as the φ-free
//! post passes at every level above `-O0`, and the program passes
//! [`inline_small_functions`] → [`dead_function_elimination`] framing
//! the per-function loop at `-O2`/`-Os` (with a size-tuned inlining
//! threshold at `-Os`). The memory passes run after [`gvn_cse`] —
//! addresses are canonical by then — and before [`licm`], so forwarding
//! eats load redundancy first and LICM hoists only the loads that
//! survive.
//!
//! # Per-pass contracts
//!
//! Every SSA pass has the signature [`SsaPass`]: it receives the
//! [`mem::MemoryModel`] of the program it runs inside — the memory
//! passes consult it for rodata facts; the others ignore it — and the
//! function's [`AnalysisCache`], and returns its [`Changed`] class.
//!
//! * [`sccp`] — sparse conditional constant propagation over the
//!   ⊤/const/⊥ lattice with the Wegman–Zadeck two-worklist scheme:
//!   tracks executable CFG edges, meets φs over executable incoming
//!   edges only, folds proven-constant instructions and terminators, and
//!   removes never-executable blocks. Folds through branches the dense
//!   fold must leave.
//! * [`constant_fold`] — dense constant propagation/folding with branch
//!   folding; the constant pass at `-O1`. [`sccp`] replaces it at
//!   `-O2`/`-Os`: everything the dense fixpoint proves constant, SCCP
//!   proves too.
//! * [`copy_propagate`] — transitive copy propagation into uses.
//! * [`gvn_cse`] — dominator-scoped global value numbering / common
//!   subexpression elimination with commutative canonicalization; loads
//!   are deliberately not value-numbered (the memory passes own them).
//! * [`store_load_forward`] — block-local store-to-load forwarding and
//!   redundant-load elimination over the tracked memory state of
//!   [`crate::mem`]; rewrites loads to copies.
//! * [`cross_block_forward`] — **cross-block** store-to-load forwarding
//!   / redundant-load elimination over the [`avail_loads`] must-
//!   availability dataflow: loads of cells available on every incoming
//!   path are deleted outright, their uses rewritten through new φs at
//!   joins where predecessor values differ.
//! * [`load_pre`] — load partial-redundancy elimination for diamond
//!   joins: a load available on exactly one of two incoming edges gets a
//!   speculative compensating load in the other predecessor (licensed by
//!   the rooted-loads-never-fault rule of [`crate::mem`]) and a φ-merge.
//! * [`dead_store_elim`] — block-local backward sweep dropping stores
//!   overwritten before any possible read.
//! * [`licm`] — loop-invariant code motion out of natural loops with
//!   φ-safe preheader insertion, seeded from computations worth a
//!   register; hoists loads whose address is invariant and whose cell
//!   the loop body provably leaves alone ([`mem::LoopClobbers`]).
//! * [`fold_terminators`] — terminator folding (equal-target `Br`,
//!   `Switch` arm pruning) and φ-safe SSA jump threading through empty
//!   forwarding blocks.
//! * [`dead_code_elim`] — mark-and-sweep removal of pure instructions
//!   unreachable from the impure/terminator roots; dead loop-carried
//!   φ-cycles retire wholesale.
//!
//! φ-free post passes:
//!
//! * [`coalesce_copies`] — cheap copy coalescing of the φ-lowering
//!   residue (block-local propagation + liveness-based dead-copy sweep);
//!   this is what lets `-O1` afford a second outer round.
//! * [`merge_return_blocks`] — crossjumping restricted to
//!   `Ret`-terminated blocks, canonical-key comparison up to block-local
//!   renaming.
//!
//! Program passes (`-O2`+, run once before the per-function loop):
//!
//! * [`inline_small_functions`] — bottom-up inlining of single-block
//!   callees,
//! * [`dead_function_elimination`] — call-graph reachability rooted at
//!   exported and **address-taken** functions. This is the pass the
//!   paper's §III.C probes: an unreachable state's handlers stay
//!   address-reachable (dispatch tables, switch cases over a runtime
//!   value), so the model-level fact "no incoming transition" does not
//!   survive code generation and the compiler must keep the code.
//!
//! # Verification
//!
//! Every invariant the rosters above rely on is cataloged — and, in
//! debug builds, *checked between passes* — by the [`crate::verify`]
//! static verifier: pipeline boundaries are always re-checked, and the
//! `OCC_VERIFY=each` knob (or [`PassManager::with_verify`]) escalates to
//! per-pass verification that attributes a broken invariant to the pass
//! and round that introduced it.
//!
//! Verify-each also checks every step's [`Changed`] report, since the
//! cache trusts it. A step reporting [`Changed::Nothing`] must leave the
//! function `==` to a clone taken before it. After every step, each
//! analysis still cached is recomputed and compared with the cached copy
//! ([`AnalysisCache::stale`]). A step that under-reports — say, a
//! terminator retargeted under [`Changed::Insts`] — fails as a verifier
//! error naming the step, the round and the stale entries, not as a
//! miscompile three passes later.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::rc::Rc;

use crate::analysis::{AnalysisCache, Changed};
use crate::cfg;
use crate::mem;
use crate::mir::{BinOp, Block, BlockId, Inst, MirFunction, Program, Term, UnOp, VReg, Word};
use crate::ssa;
use crate::verify;
use crate::OptLevel;

// ---------------------------------------------------------------------
// Pass statistics
// ---------------------------------------------------------------------

/// Effect counters for one named pass, aggregated over every function and
/// round it ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Canonical pass name (see the [`pass`] constants).
    pub name: &'static str,
    /// How many times the pass executed.
    pub runs: usize,
    /// Rewrites reported: for the SSA fixed-point passes, the number of
    /// executions that changed something (`changes <= runs`); the
    /// program-level passes report item counts instead — call sites
    /// inlined, functions removed — which can exceed `runs`.
    pub changes: usize,
    /// Net instructions removed across all executions (terminators count
    /// one instruction each; growth in a single run saturates to zero).
    pub insts_removed: usize,
}

/// Canonical pass names as they appear in [`PassStats::name`].
pub mod pass {
    /// Constant propagation/folding with branch folding.
    pub const CONST_FOLD: &str = "const-fold";
    /// Transitive copy propagation.
    pub const COPY_PROP: &str = "copy-prop";
    /// Sparse conditional constant propagation.
    pub const SCCP: &str = "sccp";
    /// Loop-invariant code motion.
    pub const LICM: &str = "licm";
    /// φ-free copy coalescing (post-destruct cleanup).
    pub const COPY_COALESCE: &str = "copy-coalesce";
    /// Return-block tail merging (crossjumping).
    pub const TAIL_MERGE: &str = "tail-merge";
    /// Global value numbering / common-subexpression elimination.
    pub const GVN_CSE: &str = "gvn-cse";
    /// Store-to-load forwarding and redundant-load elimination.
    pub const STORE_LOAD_FWD: &str = "store-load-fwd";
    /// Cross-block store-to-load forwarding / redundant-load elimination.
    pub const CROSS_LOAD_FWD: &str = "cross-load-fwd";
    /// Load partial-redundancy elimination for diamond joins.
    pub const LOAD_PRE: &str = "load-pre";
    /// Dead-store elimination.
    pub const DSE: &str = "dse";
    /// Terminator folding and SSA jump threading.
    pub const TERM_FOLD: &str = "term-fold";
    /// Dead-code elimination.
    pub const DCE: &str = "dce";
    /// φ-free CFG simplification.
    pub const SIMPLIFY_CFG: &str = "simplify-cfg";
    /// Bottom-up inlining of small functions.
    pub const INLINE: &str = "inline";
    /// Call-graph dead-function elimination.
    pub const DEAD_FN_ELIM: &str = "dead-fn-elim";

    /// Resolves a pass name carried in serialized form (a cached
    /// artifact, a snapshot cell) back to its canonical `&'static str`.
    /// Returns `None` for a name this toolchain does not know — a cache
    /// entry written by a different pass roster must be treated as
    /// stale, not adopted.
    pub fn canonical(name: &str) -> Option<&'static str> {
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
        .into_iter()
        .find(|c| *c == name)
    }
}

/// Per-pass statistics for one whole [`run_pipeline`] invocation, in
/// first-execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    passes: Vec<PassStats>,
}

impl PipelineStats {
    /// All recorded passes in first-execution order.
    pub fn passes(&self) -> &[PassStats] {
        &self.passes
    }

    /// Rebuilds stats from deserialized parts (the driver's on-disk
    /// artifact cache round-trips them; names are already canonical).
    pub(crate) fn from_passes(passes: Vec<PassStats>) -> PipelineStats {
        PipelineStats { passes }
    }

    /// Looks up one pass by canonical name.
    pub fn get(&self, name: &str) -> Option<&PassStats> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Total instructions removed by all passes.
    pub fn total_insts_removed(&self) -> usize {
        self.passes.iter().map(|p| p.insts_removed).sum()
    }

    /// Renders one human-readable, column-aligned line per executed pass.
    pub fn render(&self) -> Vec<String> {
        self.passes
            .iter()
            .filter(|p| p.runs > 0)
            .map(|p| {
                format!(
                    "{:<14} runs {:>3}  changes {:>3}  insts removed {:>4}",
                    p.name, p.runs, p.changes, p.insts_removed
                )
            })
            .collect()
    }

    fn entry(&mut self, name: &'static str) -> &mut PassStats {
        if let Some(i) = self.passes.iter().position(|p| p.name == name) {
            return &mut self.passes[i];
        }
        self.passes.push(PassStats {
            name,
            ..PassStats::default()
        });
        self.passes.last_mut().expect("just pushed")
    }

    fn record(&mut self, name: &'static str, changed: bool, insts_removed: usize) {
        let st = self.entry(name);
        st.runs += 1;
        if changed {
            st.changes += 1;
        }
        st.insts_removed += insts_removed;
    }
}

// ---------------------------------------------------------------------
// The pass manager
// ---------------------------------------------------------------------

/// A function-local SSA pass: rewrites the function and reports what it
/// changed ([`Changed`]), which the manager applies to the function's
/// [`AnalysisCache`]. The [`mem::MemoryModel`] carries the program-wide
/// facts (global mutability) the memory passes consult; passes that do
/// not reason about memory ignore it. Every analysis a pass needs comes
/// from the cache; a pass that queries it again after mutating the
/// function invalidates first.
pub type SsaPass = fn(&mut MirFunction, &mem::MemoryModel, &mut AnalysisCache) -> Changed;

/// How much of the [`crate::verify`] static checker the manager runs in
/// debug builds (release builds compile all verification out, like the
/// backend's `VCode` verifier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Verify only at pipeline boundaries: after lowering, after
    /// [`ssa::construct`]/[`ssa::destruct`] (those hooks live in their
    /// producers) and once per function after the final cleanup.
    #[default]
    Boundaries,
    /// Verify-each: additionally re-check the appropriate tier after
    /// *every* pass, attributing any violation to the pass and round
    /// that introduced it. Selected by default when the `OCC_VERIFY`
    /// environment variable is `each`.
    Each,
}

impl VerifyMode {
    /// The mode the `OCC_VERIFY` environment knob selects (`each` turns
    /// on per-pass verification; anything else keeps boundaries only).
    pub fn from_env() -> VerifyMode {
        match std::env::var("OCC_VERIFY") {
            Ok(v) if v == "each" => VerifyMode::Each,
            _ => VerifyMode::Boundaries,
        }
    }
}

/// Runs registered SSA passes over functions to a bounded fixed point and
/// records per-pass [`PassStats`].
#[derive(Debug, Default)]
pub struct PassManager {
    ssa_passes: Vec<(&'static str, SsaPass)>,
    /// φ-free passes run after [`ssa::destruct`] in every outer round
    /// (copy coalescing lives here: destruct's parallel-copy residue is
    /// only visible once the φs are lowered).
    post_passes: Vec<(&'static str, SsaPass)>,
    outer_rounds: usize,
    verify: Option<VerifyMode>,
    stats: PipelineStats,
}

impl PassManager {
    /// Bound on SSA-pass sweeps inside one outer round; a sweep that
    /// changes nothing ends the fixed-point loop early, so this only
    /// caps pathological ping-ponging between passes.
    pub const MAX_SSA_ROUNDS: usize = 8;

    /// An empty manager running a single outer round, with the
    /// verification mode taken from [`VerifyMode::from_env`].
    pub fn new() -> PassManager {
        PassManager {
            ssa_passes: Vec::new(),
            post_passes: Vec::new(),
            outer_rounds: 1,
            verify: None,
            stats: PipelineStats::default(),
        }
    }

    /// The standard pass roster for `level`.
    pub fn for_level(level: OptLevel) -> PassManager {
        let mut pm = PassManager::new();
        match level {
            OptLevel::O0 => {}
            OptLevel::O1 => {
                // Copy coalescing cleans the construct/destruct φ-copy
                // round trip without the O2 roster, so O1 can afford a
                // second outer round. The block-local memory passes are
                // cheap enough for O1 and directly shrink the
                // context-variable traffic every generated handler emits.
                pm.outer_rounds = 2;
                pm.register(pass::CONST_FOLD, constant_fold);
                pm.register(pass::STORE_LOAD_FWD, store_load_forward);
                pm.register(pass::CROSS_LOAD_FWD, cross_block_forward);
                pm.register(pass::LOAD_PRE, load_pre);
                pm.register(pass::DSE, dead_store_elim);
                pm.register(pass::TERM_FOLD, fold_terminators);
                pm.register(pass::DCE, dead_code_elim);
                pm.register_post(pass::COPY_COALESCE, coalesce_copies);
                pm.register_post(pass::TAIL_MERGE, merge_return_blocks);
            }
            OptLevel::O2 | OptLevel::Os => {
                // Extra outer rounds let φ-free CFG cleanup and the SSA
                // passes feed each other; copy propagation erases the
                // copies each construct/destruct round introduces. SCCP
                // leads and subsumes the dense fold (it folds everything
                // the dense fixpoint proves, and through branches the
                // dense pass must leave), so the dense fold is not
                // registered here. The memory passes run after GVN/CSE
                // (addresses are canonical by then) and before LICM, so
                // forwarding eats block-local load redundancy first and
                // LICM hoists only the loads that survive.
                pm.outer_rounds = 3;
                pm.register(pass::SCCP, sccp);
                pm.register(pass::COPY_PROP, copy_propagate);
                pm.register(pass::GVN_CSE, gvn_cse);
                pm.register(pass::STORE_LOAD_FWD, store_load_forward);
                pm.register(pass::CROSS_LOAD_FWD, cross_block_forward);
                pm.register(pass::LOAD_PRE, load_pre);
                pm.register(pass::DSE, dead_store_elim);
                pm.register(pass::LICM, licm);
                pm.register(pass::TERM_FOLD, fold_terminators);
                pm.register(pass::DCE, dead_code_elim);
                pm.register_post(pass::COPY_COALESCE, coalesce_copies);
                pm.register_post(pass::TAIL_MERGE, merge_return_blocks);
            }
        }
        pm
    }

    /// Registers an SSA pass under its reporting name.
    pub fn register(&mut self, name: &'static str, p: SsaPass) -> &mut PassManager {
        self.ssa_passes.push((name, p));
        self
    }

    /// Registers a φ-free pass run after SSA destruction in every outer
    /// round, under its reporting name.
    pub fn register_post(&mut self, name: &'static str, p: SsaPass) -> &mut PassManager {
        self.post_passes.push((name, p));
        self
    }

    /// Overrides the number of outer rounds (φ-free simplify + SSA
    /// fixed point) per function.
    pub fn with_outer_rounds(mut self, rounds: usize) -> PassManager {
        self.outer_rounds = rounds.max(1);
        self
    }

    /// Overrides the debug-build verification mode (by default the
    /// `OCC_VERIFY` environment knob decides, see
    /// [`VerifyMode::from_env`]). Release builds never verify,
    /// whichever mode is set.
    pub fn with_verify(mut self, mode: VerifyMode) -> PassManager {
        self.verify = Some(mode);
        self
    }

    fn verify_each(&self) -> bool {
        cfg!(debug_assertions)
            && self.verify.unwrap_or_else(VerifyMode::from_env) == VerifyMode::Each
    }

    /// [`FnRun::step`] for a registered pass, recording its
    /// [`PassStats`]; `at` names the round for the blame.
    fn run_pass(
        &mut self,
        run: &mut FnRun<'_>,
        (name, p): (&'static str, SsaPass),
        tier: verify::Tier,
        at: impl FnOnce() -> String,
    ) -> bool {
        let before = run.f.inst_count();
        let model = run.model;
        let ctx = || format!("after {name} in {}", at());
        let changed = run.step(Some(tier), ctx, |f, c| p(f, model, c));
        let removed = before.saturating_sub(run.f.inst_count());
        self.stats.record(name, changed.any(), removed);
        changed.any()
    }

    /// Runs every function of `program` through
    /// [`PassManager::run_function`], under the program's
    /// [`mem::MemoryModel`].
    pub fn run_program(&mut self, program: &mut Program) {
        let model = mem::MemoryModel::of(program);
        for f in &mut program.functions {
            self.run_function(f, &model);
        }
    }

    /// Optimizes one function: bounded outer rounds of φ-free CFG
    /// simplification around an SSA fixed point, then a final cleanup.
    /// `model` carries the program-wide memory facts the memory passes
    /// consult (pass [`mem::MemoryModel::default`] for a bare function).
    /// Every step shares one [`AnalysisCache`] for the function, so an
    /// analysis is computed once per function state. Returns `true` if
    /// anything changed.
    pub fn run_function(&mut self, f: &mut MirFunction, model: &mem::MemoryModel) -> bool {
        let simplify: (&'static str, SsaPass) = (pass::SIMPLIFY_CFG, |f, _, c| simplify_cfg(f, c));
        let mut run = FnRun {
            f,
            model,
            cache: AnalysisCache::new(),
            verify_each: self.verify_each(),
        };
        let mut any = false;
        for round in 1..=self.outer_rounds {
            let label = || format!("round {round}");
            any |= self.run_pass(&mut run, simplify, verify::Tier::PhiFree, label);
            if self.ssa_passes.is_empty() && self.post_passes.is_empty() {
                break;
            }
            let mut ssa_changed = false;
            if !self.ssa_passes.is_empty() {
                let ctx = || format!("after ssa::construct in round {round}");
                run.step(None, ctx, ssa::construct);
                ssa_changed = self.ssa_fixpoint(&mut run, round);
                let ctx = || format!("after ssa::destruct in round {round}");
                run.step(None, ctx, |f, _| ssa::destruct(f));
            }
            // φ-free post passes see destruct's copy residue; they are
            // cleanup, so they do not drive another outer round on
            // their own.
            for i in 0..self.post_passes.len() {
                any |= self.run_pass(&mut run, self.post_passes[i], verify::Tier::PhiFree, label);
            }
            any |= ssa_changed;
            if !ssa_changed {
                break;
            }
        }
        let label = || "the final cleanup".to_string();
        any |= self.run_pass(&mut run, simplify, verify::Tier::PhiFree, label);
        // Post-pipeline boundary: whatever the mode, the function handed
        // to the backend must be φ-free, structurally sound, and inside
        // the memory contract.
        run.verify(verify::Tier::PhiFree, "after the mid-end pipeline");
        any
    }

    /// A deterministic textual signature of this manager's registration
    /// data: outer rounds plus the SSA and φ-free pass rosters in
    /// registration order. [`crate::driver`] hashes the signatures of
    /// every level into its toolchain fingerprint, so any roster change
    /// (a pass added, removed or reordered) invalidates every cached
    /// artifact.
    pub fn roster_signature(&self) -> String {
        let names = |ps: &[(&'static str, SsaPass)]| {
            ps.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(",")
        };
        format!(
            "rounds={};ssa={};post={}",
            self.outer_rounds,
            names(&self.ssa_passes),
            names(&self.post_passes)
        )
    }

    /// The collected statistics so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Consumes the manager, returning its statistics.
    pub fn into_stats(self) -> PipelineStats {
        self.stats
    }

    fn ssa_fixpoint(&mut self, run: &mut FnRun<'_>, outer_round: usize) -> bool {
        let mut any = false;
        for sweep in 1..=Self::MAX_SSA_ROUNDS {
            let mut round_changed = false;
            for i in 0..self.ssa_passes.len() {
                let label = || format!("round {outer_round}.{sweep}");
                round_changed |= self.run_pass(run, self.ssa_passes[i], verify::Tier::Ssa, label);
            }
            if !round_changed {
                break;
            }
            any = true;
        }
        any
    }
}

/// The state one [`PassManager::run_function`] call threads through its
/// steps: the function, its memory model and analysis cache, and whether
/// verify-each is on.
struct FnRun<'a> {
    f: &'a mut MirFunction,
    model: &'a mem::MemoryModel,
    cache: AnalysisCache,
    verify_each: bool,
}

impl FnRun<'_> {
    /// Debug-build verification hook: checks the function at `tier` plus
    /// the memory tier and panics with `ctx` (the pass/round blame) on
    /// the first broken invariant.
    fn verify(&self, tier: verify::Tier, ctx: &str) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut vs = verify::verify_function(self.f, tier);
        vs.extend(verify::verify_memory(self.f, self.model));
        assert!(vs.is_empty(), "MIR verifier: {ctx}:{}", verify::report(&vs));
    }

    /// Runs one pipeline step and applies the [`Changed`] class it
    /// reports to the cache. Under verify-each (debug builds) the step is
    /// then checked at `tier` (when given), and its report against what
    /// it did: a step reporting [`Changed::Nothing`] must leave the
    /// function equal to its state before, and every analysis still
    /// cached must equal a fresh computation. `ctx` names the step and
    /// round for the blame.
    fn step(
        &mut self,
        tier: Option<verify::Tier>,
        ctx: impl FnOnce() -> String,
        step: impl FnOnce(&mut MirFunction, &mut AnalysisCache) -> Changed,
    ) -> Changed {
        let before = self.verify_each.then(|| self.f.clone());
        let changed = step(self.f, &mut self.cache);
        self.cache.invalidate(changed);
        if let Some(before) = before {
            let ctx = ctx();
            if let Some(tier) = tier {
                self.verify(tier, &ctx);
            }
            let f = &*self.f;
            assert!(
                changed.any() || *f == before,
                "MIR verifier: {ctx}: reported no change but rewrote the function:\n{f}"
            );
            let stale = self.cache.stale(f, self.model);
            assert!(
                stale.is_empty(),
                "MIR verifier: {ctx}: stale analysis cache ({}) after a reported \
                 {changed:?} change:\n{f}",
                stale.join(", ")
            );
        }
        changed
    }
}

/// Runs the pipeline for `level`, returning per-pass statistics.
pub fn run_pipeline(program: &mut Program, level: OptLevel) -> PipelineStats {
    run_pipeline_impl(program, level, None)
}

/// [`run_pipeline`] with an explicit [`VerifyMode`], bypassing the
/// `OCC_VERIFY` environment knob. Test harnesses use this to force
/// verify-each regardless of the environment (the differential net runs
/// it so a violation is attributed to a pass *and* to the generated
/// program that provoked it). Release builds still verify nothing.
pub fn run_pipeline_with_verify(
    program: &mut Program,
    level: OptLevel,
    mode: VerifyMode,
) -> PipelineStats {
    run_pipeline_impl(program, level, Some(mode))
}

fn run_pipeline_impl(
    program: &mut Program,
    level: OptLevel,
    verify_mode: Option<VerifyMode>,
) -> PipelineStats {
    let mut pm = PassManager::for_level(level);
    if let Some(mode) = verify_mode {
        pm = pm.with_verify(mode);
    }
    if level >= OptLevel::O2 {
        let threshold = if level == OptLevel::Os { 10 } else { 24 };
        let inlined = inline_small_functions(program, threshold);
        let st = pm.stats.entry(pass::INLINE);
        st.runs += 1;
        st.changes += inlined;
        let before: usize = program.functions.iter().map(MirFunction::inst_count).sum();
        let removed_fns = dead_function_elimination(program);
        let after: usize = program.functions.iter().map(MirFunction::inst_count).sum();
        pm.stats.record(
            pass::DEAD_FN_ELIM,
            !removed_fns.is_empty(),
            before.saturating_sub(after),
        );
        let st = pm.stats.entry(pass::DEAD_FN_ELIM);
        st.changes = st.changes.max(removed_fns.len());
        // Program-pass boundary: inlining remaps registers and call
        // indices across functions; re-check before the per-function
        // loop (debug builds only).
        if cfg!(debug_assertions) {
            let vs = verify::verify_program(program, verify::Tier::PhiFree);
            assert!(
                vs.is_empty(),
                "MIR verifier: after the program passes:{}",
                verify::report(&vs)
            );
        }
    }
    if level > OptLevel::O0 {
        pm.run_program(program);
    }
    pm.into_stats()
}

// ---------------------------------------------------------------------
// Constant propagation + folding + branch folding (on SSA)
// ---------------------------------------------------------------------

/// Propagates and folds constants; folds constant branches (a CFG
/// change).
pub fn constant_fold(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let mut known: BTreeMap<VReg, i32> = BTreeMap::new();
    let mut changed = false;
    // SSA: each def has one value; iterate to a fixpoint to flow through
    // φs and copies in any block order.
    loop {
        let mut grew = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            for inst in &f.block(b).insts {
                let Some(dst) = inst.def() else { continue };
                if known.contains_key(&dst) {
                    continue;
                }
                let value = match inst {
                    Inst::Const { value, .. } => Some(*value),
                    Inst::Copy { src, .. } => known.get(src).copied(),
                    Inst::Un { op, src, .. } => known.get(src).map(|v| op.eval(*v)),
                    Inst::Bin { op, lhs, rhs, .. } => match (known.get(lhs), known.get(rhs)) {
                        (Some(a), Some(b)) => Some(op.eval(*a, *b)),
                        _ => None,
                    },
                    Inst::Phi { args, .. } => {
                        let vals: Option<BTreeSet<i32>> =
                            args.iter().map(|(_, v)| known.get(v).copied()).collect();
                        vals.and_then(|s| {
                            if s.len() == 1 {
                                s.into_iter().next()
                            } else {
                                None
                            }
                        })
                    }
                    _ => None,
                };
                if let Some(v) = value {
                    known.insert(dst, v);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    // Rewrite: folded instructions become Consts; constant branches become
    // gotos.
    let mut folded_branch = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        for inst in &mut blk.insts {
            let Some(dst) = inst.def() else { continue };
            if let Some(v) = known.get(&dst) {
                let replace = !matches!(inst, Inst::Const { .. })
                    && inst.is_pure()
                    && !matches!(inst, Inst::Load { .. });
                if replace {
                    *inst = Inst::Const { dst, value: *v };
                    changed = true;
                }
            }
        }
        match &blk.term {
            Term::Br {
                cond,
                then_block,
                else_block,
            } => {
                if let Some(v) = known.get(cond) {
                    blk.term = Term::Goto(if *v != 0 { *then_block } else { *else_block });
                    changed = true;
                    folded_branch = true;
                }
            }
            Term::Switch {
                val,
                cases,
                default,
            } => {
                if let Some(v) = known.get(val) {
                    let target = cases
                        .iter()
                        .find(|(c, _)| c == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    blk.term = Term::Goto(target);
                    changed = true;
                    folded_branch = true;
                }
            }
            _ => {}
        }
    }
    // Folding a branch removes CFG edges, which strands φ-arguments in the
    // old arms' targets; prune them (and fold now-trivial φs) so the SSA
    // invariants hold after this pass just like after `sccp`.
    if folded_branch {
        cache.invalidate(Changed::Cfg);
        ssa::remove_unreachable_blocks(f, cache);
        prune_phi_args(f, cache);
        return Changed::Cfg;
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Sparse conditional constant propagation (on SSA)
// ---------------------------------------------------------------------

/// The SCCP value lattice: unknown (⊤) → a single constant → overdefined
/// (⊥). Values only ever move downward, which bounds the worklist run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    /// No evidence yet (optimistic initial state).
    Top,
    /// Proven to always hold this constant on every executable path.
    Const(i32),
    /// Proven to vary (or to come from memory, calls or parameters).
    Bottom,
}

impl Lattice {
    fn meet(a: Lattice, b: Lattice) -> Lattice {
        match (a, b) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
            (Lattice::Const(x), Lattice::Const(y)) if x == y => Lattice::Const(x),
            _ => Lattice::Bottom,
        }
    }
}

/// Analysis state of one [`sccp`] run (the classic two-worklist scheme of
/// Wegman & Zadeck: a *flow* worklist of CFG edges becoming executable
/// and an *SSA* worklist of uses whose operand lattice dropped).
struct SccpState<'a> {
    f: &'a MirFunction,
    values: BTreeMap<VReg, Lattice>,
    exec_edge: BTreeSet<(BlockId, BlockId)>,
    exec_block: BTreeSet<BlockId>,
    /// CFG edges newly marked executable, to propagate from.
    flow: Vec<(BlockId, BlockId)>,
    /// `(block, Some(inst index))` for an instruction re-evaluation,
    /// `(block, None)` for a terminator re-evaluation.
    ssa_work: Vec<(BlockId, Option<usize>)>,
    inst_users: BTreeMap<VReg, Vec<(BlockId, usize)>>,
    term_users: BTreeMap<VReg, Vec<BlockId>>,
}

impl SccpState<'_> {
    fn val(&self, v: VReg) -> Lattice {
        self.values.get(&v).copied().unwrap_or(Lattice::Top)
    }

    /// Lowers `dst` to `meet(old, new)`; queues its users if it moved.
    fn lower(&mut self, dst: VReg, new: Lattice) {
        let old = self.val(dst);
        let merged = Lattice::meet(old, new);
        if merged == old {
            return;
        }
        self.values.insert(dst, merged);
        if let Some(users) = self.inst_users.get(&dst) {
            for &(b, i) in users {
                self.ssa_work.push((b, Some(i)));
            }
        }
        if let Some(users) = self.term_users.get(&dst) {
            for &b in users {
                self.ssa_work.push((b, None));
            }
        }
    }

    fn visit_inst(&mut self, b: BlockId, i: usize) {
        let inst = &self.f.block(b).insts[i];
        let Some(dst) = inst.def() else { return };
        let new = match inst {
            Inst::Const { value, .. } => Lattice::Const(*value),
            Inst::Copy { src, .. } => self.val(*src),
            Inst::Un { op, src, .. } => match self.val(*src) {
                Lattice::Top => Lattice::Top,
                Lattice::Const(c) => Lattice::Const(op.eval(c)),
                Lattice::Bottom => Lattice::Bottom,
            },
            Inst::Bin { op, lhs, rhs, .. } => match (self.val(*lhs), self.val(*rhs)) {
                (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                (Lattice::Const(a), Lattice::Const(b)) => Lattice::Const(op.eval(a, b)),
                _ => Lattice::Top,
            },
            Inst::Phi { args, .. } => args
                .iter()
                .filter(|(p, _)| self.exec_edge.contains(&(*p, b)))
                .fold(Lattice::Top, |acc, (_, v)| Lattice::meet(acc, self.val(*v))),
            // Memory, addresses and call results are never constant here.
            Inst::Load { .. }
            | Inst::Addr { .. }
            | Inst::FnAddr { .. }
            | Inst::Call { .. }
            | Inst::CallExtern { .. }
            | Inst::CallInd { .. }
            | Inst::Store { .. } => Lattice::Bottom,
        };
        self.lower(dst, new);
    }

    fn visit_term(&mut self, b: BlockId) {
        match &self.f.block(b).term {
            Term::Goto(t) => self.flow.push((b, *t)),
            Term::Br {
                cond,
                then_block,
                else_block,
            } => match self.val(*cond) {
                Lattice::Top => {}
                Lattice::Const(c) => {
                    let t = if c != 0 { *then_block } else { *else_block };
                    self.flow.push((b, t));
                }
                Lattice::Bottom => {
                    self.flow.push((b, *then_block));
                    self.flow.push((b, *else_block));
                }
            },
            Term::Switch {
                val,
                cases,
                default,
            } => match self.val(*val) {
                Lattice::Top => {}
                Lattice::Const(c) => {
                    let t = cases
                        .iter()
                        .find(|(k, _)| *k == c)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    self.flow.push((b, t));
                }
                Lattice::Bottom => {
                    for (_, t) in cases {
                        self.flow.push((b, *t));
                    }
                    self.flow.push((b, *default));
                }
            },
            Term::Ret(_) => {}
        }
    }

    fn visit_block(&mut self, b: BlockId) {
        for i in 0..self.f.block(b).insts.len() {
            self.visit_inst(b, i);
        }
        self.visit_term(b);
    }

    fn run(&mut self) {
        self.exec_block.insert(BlockId(0));
        self.visit_block(BlockId(0));
        loop {
            if let Some((p, s)) = self.flow.pop() {
                if self.exec_edge.insert((p, s)) {
                    if self.exec_block.insert(s) {
                        self.visit_block(s);
                    } else {
                        // Already-executable target: only its φs see the
                        // new incoming edge.
                        for i in 0..self.f.block(s).insts.len() {
                            if matches!(self.f.block(s).insts[i], Inst::Phi { .. }) {
                                self.visit_inst(s, i);
                            }
                        }
                    }
                }
                continue;
            }
            if let Some((b, oi)) = self.ssa_work.pop() {
                if self.exec_block.contains(&b) {
                    match oi {
                        Some(i) => self.visit_inst(b, i),
                        None => self.visit_term(b),
                    }
                }
                continue;
            }
            break;
        }
    }
}

/// Sparse conditional constant propagation (Wegman–Zadeck), on SSA.
///
/// Unlike the dense [`constant_fold`] fixpoint, SCCP tracks which CFG
/// edges can execute and meets φ-arguments over *executable* incoming
/// edges only, so a constant flowing through a branch it itself decides
/// is still folded: reachability and constancy reinforce each other.
/// Instructions proven constant become `Const`s, terminators with a
/// proven scrutinee become `Goto`s (subsuming most of what
/// [`fold_terminators`] would clean up afterwards), never-executable
/// blocks are removed, and φ-arguments of dropped edges are pruned.
pub fn sccp(f: &mut MirFunction, _model: &mem::MemoryModel, cache: &mut AnalysisCache) -> Changed {
    // Use lists, so lattice drops re-queue exactly the affected users.
    let mut inst_users: BTreeMap<VReg, Vec<(BlockId, usize)>> = BTreeMap::new();
    let mut term_users: BTreeMap<VReg, Vec<BlockId>> = BTreeMap::new();
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            for u in inst.uses() {
                inst_users.entry(u).or_default().push((b, i));
            }
        }
        for u in f.block(b).term.uses() {
            term_users.entry(u).or_default().push(b);
        }
    }
    let mut values: BTreeMap<VReg, Lattice> = BTreeMap::new();
    for p in 0..f.params {
        values.insert(VReg(p as u32), Lattice::Bottom);
    }
    let mut state = SccpState {
        f,
        values,
        exec_edge: BTreeSet::new(),
        exec_block: BTreeSet::new(),
        flow: Vec::new(),
        ssa_work: Vec::new(),
        inst_users,
        term_users,
    };
    state.run();
    let SccpState {
        values, exec_block, ..
    } = state;

    // Rewrite phase: executable blocks only; the rest are removed below.
    let mut changed = false;
    let mut folded_term = false;
    for &b in &exec_block {
        let blk = f.block_mut(b);
        for inst in &mut blk.insts {
            let Some(dst) = inst.def() else { continue };
            let Some(Lattice::Const(c)) = values.get(&dst).copied() else {
                continue;
            };
            if !matches!(inst, Inst::Const { .. }) && inst.is_pure() {
                *inst = Inst::Const { dst, value: c };
                changed = true;
            }
        }
        match &blk.term {
            Term::Br {
                cond,
                then_block,
                else_block,
            } => {
                if let Some(Lattice::Const(c)) = values.get(cond) {
                    blk.term = Term::Goto(if *c != 0 { *then_block } else { *else_block });
                    changed = true;
                    folded_term = true;
                }
            }
            Term::Switch {
                val,
                cases,
                default,
            } => {
                if let Some(Lattice::Const(c)) = values.get(val) {
                    let target = cases
                        .iter()
                        .find(|(k, _)| k == c)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    blk.term = Term::Goto(target);
                    changed = true;
                    folded_term = true;
                }
            }
            _ => {}
        }
    }
    if !changed {
        return Changed::Nothing;
    }
    let mut class = if folded_term {
        Changed::Cfg
    } else {
        Changed::Insts
    };
    cache.invalidate(class);
    if ssa::remove_unreachable_blocks(f, cache) {
        class = Changed::Cfg;
    }
    prune_phi_args(f, cache);
    class
}

/// Drops φ-arguments whose predecessor edge no longer exists (after a
/// branch was folded to a `Goto` the old arm's argument is stale), and
/// deduplicates arguments per remaining predecessor. Keeps SSA form
/// consistent for [`ssa::destruct`], which inserts one parallel copy per
/// `(pred, block)` edge. Blocks left with a single predecessor have
/// their φs folded to copies ([`ssa::fold_trivial_phis`]), preserving
/// the verifier's φ-join discipline.
fn prune_phi_args(f: &mut MirFunction, cache: &mut AnalysisCache) {
    let preds = cache.preds(f);
    for b in f.block_ids().collect::<Vec<_>>() {
        let ps: BTreeSet<BlockId> = preds[b.0 as usize].iter().copied().collect();
        for inst in &mut f.block_mut(b).insts {
            if let Inst::Phi { args, .. } = inst {
                let mut seen: BTreeSet<BlockId> = BTreeSet::new();
                args.retain(|(p, _)| ps.contains(p) && seen.insert(*p));
            }
        }
    }
    ssa::fold_trivial_phis(f, cache);
}

// ---------------------------------------------------------------------
// Copy propagation (on SSA)
// ---------------------------------------------------------------------

/// Replaces uses of copies with their (transitively resolved) sources.
pub fn copy_propagate(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    _cache: &mut AnalysisCache,
) -> Changed {
    let mut alias: BTreeMap<VReg, VReg> = BTreeMap::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        for inst in &f.block(b).insts {
            if let Inst::Copy { dst, src } = inst {
                alias.insert(*dst, *src);
            }
        }
    }
    if alias.is_empty() {
        return Changed::Nothing;
    }
    let resolve = |mut v: VReg| {
        let mut hops = 0;
        while let Some(&next) = alias.get(&v) {
            v = next;
            hops += 1;
            if hops > alias.len() {
                break; // defensive: cycles cannot occur in SSA
            }
        }
        v
    };
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        for inst in &mut blk.insts {
            inst.map_uses(&mut |v| {
                let r = resolve(v);
                if r != v {
                    changed = true;
                }
                r
            });
        }
        blk.term.map_uses(&mut |v| {
            let r = resolve(v);
            if r != v {
                changed = true;
            }
            r
        });
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Global value numbering / common-subexpression elimination (on SSA)
// ---------------------------------------------------------------------

/// A value-number key for a pure, memory-free computation. `Const` is
/// deliberately absent: re-materializing an immediate is as cheap as a
/// copy, and CSE-ing constants would ping-pong with [`sccp`] (which
/// rewrites known-value copies back into constants).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GvnKey {
    Un(UnOp, VReg),
    Bin(BinOp, VReg, VReg),
    Addr(usize, i32),
    FnAddr(usize),
}

/// Dominator-scoped global value numbering / common-subexpression
/// elimination. A pure, memory-free instruction recomputing a value
/// already available from a dominating definition is replaced by a
/// `Copy` from that definition; copy propagation and DCE then erase the
/// leftovers. Operands are canonicalized through already-discovered
/// value leaders (and by operand order for commutative operators), so
/// second-order redundancies fall in one sweep. Loads are deliberately
/// not value-numbered — block-local load redundancy is
/// [`store_load_forward`]'s job, which tracks clobbers.
pub fn gvn_cse(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let idom = cache.dominators(f);
    let children = cfg::dominator_tree_children(&idom);
    let mut table: BTreeMap<GvnKey, VReg> = BTreeMap::new();
    let mut leader: BTreeMap<VReg, VReg> = BTreeMap::new();
    let mut changed = false;
    gvn_walk(
        f,
        BlockId(0),
        &children,
        &mut table,
        &mut leader,
        &mut changed,
    );
    Changed::insts_if(changed)
}

fn gvn_leader(leader: &BTreeMap<VReg, VReg>, v: VReg) -> VReg {
    leader.get(&v).copied().unwrap_or(v)
}

fn gvn_walk(
    f: &mut MirFunction,
    b: BlockId,
    children: &BTreeMap<BlockId, Vec<BlockId>>,
    table: &mut BTreeMap<GvnKey, VReg>,
    leader: &mut BTreeMap<VReg, VReg>,
    changed: &mut bool,
) {
    // Keys this block introduced; they go out of scope (become
    // non-dominating) when the walk leaves the block's subtree.
    let mut added: Vec<GvnKey> = Vec::new();
    for i in 0..f.block(b).insts.len() {
        let inst = f.block(b).insts[i].clone();
        let key = match &inst {
            Inst::Copy { dst, src } => {
                let l = gvn_leader(leader, *src);
                leader.insert(*dst, l);
                continue;
            }
            Inst::Un { op, src, .. } => Some(GvnKey::Un(*op, gvn_leader(leader, *src))),
            Inst::Bin { op, lhs, rhs, .. } => {
                let (mut a, mut c) = (gvn_leader(leader, *lhs), gvn_leader(leader, *rhs));
                if op.commutative() && c < a {
                    std::mem::swap(&mut a, &mut c);
                }
                Some(GvnKey::Bin(*op, a, c))
            }
            Inst::Addr { global, offset, .. } => Some(GvnKey::Addr(*global, *offset)),
            Inst::FnAddr { func, .. } => Some(GvnKey::FnAddr(*func)),
            _ => None,
        };
        let (Some(key), Some(dst)) = (key, inst.def()) else {
            continue;
        };
        if let Some(&rep) = table.get(&key) {
            f.block_mut(b).insts[i] = Inst::Copy { dst, src: rep };
            leader.insert(dst, gvn_leader(leader, rep));
            *changed = true;
        } else {
            table.insert(key.clone(), dst);
            added.push(key);
        }
    }
    if let Some(kids) = children.get(&b) {
        for &k in kids {
            gvn_walk(f, k, children, table, leader, changed);
        }
    }
    for k in added {
        table.remove(&k);
    }
}

// ---------------------------------------------------------------------
// Store-to-load forwarding / redundant-load elimination (block-local)
// ---------------------------------------------------------------------

/// Block-local store-to-load forwarding and redundant-load elimination
/// over a tracked memory state. Walking each block forward, the pass
/// remembers which register holds the current content of every exactly
/// addressed cell ([`mem::AddrInfo::Exact`]) — from a store's source or
/// a previous load's destination — and rewrites a later load of the same
/// cell into a `Copy` (copy propagation and DCE then erase it). The
/// aliasing discipline is [`mem::alias`]: an exact store invalidates
/// its own cell and any tracked cell within a word of it (accesses are
/// words at byte granularity, so near offsets partially overlap), a
/// rooted run-time store invalidates its global, an untraceable store
/// invalidates everything. `Call`/`CallInd` invalidate
/// every mutable global's cells (rodata survives: no callee can store to
/// a `const` global); `CallExtern` invalidates nothing (the EM32 `Ecall`
/// passes registers only). This is the pass that shrinks the
/// load-global → test → store-global context traffic every generated
/// handler emits.
///
/// Sound on any form: multiply-defined registers resolve to
/// [`mem::AddrInfo::Unknown`], and a redefinition of a tracked value
/// register drops its cells, so non-SSA input merely loses precision.
pub fn store_load_forward(
    f: &mut MirFunction,
    model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let addrs = cache.fn_addrs(f);
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        // (global, offset) -> register holding that cell's content here.
        let mut cells: BTreeMap<(usize, i32), VReg> = BTreeMap::new();
        for inst in &mut f.block_mut(b).insts {
            // Forward first: the rewrite must see the state *before* this
            // instruction's own definition invalidates anything.
            if let Inst::Load { dst, addr } = *inst {
                if let mem::AddrInfo::Exact { global, offset } = addrs.info(addr) {
                    if let Some(&v) = cells.get(&(global, offset)) {
                        *inst = Inst::Copy { dst, src: v };
                        changed = true;
                    }
                }
            }
            // A redefinition of a tracked value register makes the
            // remembered content stale (only possible off SSA form).
            if let Some(d) = inst.def() {
                cells.retain(|_, v| *v != d);
            }
            match inst {
                Inst::Load { dst, addr } => {
                    if let mem::AddrInfo::Exact { global, offset } = addrs.info(*addr) {
                        cells.insert((global, offset), *dst);
                    }
                }
                Inst::Store { addr, src } => match addrs.info(*addr) {
                    mem::AddrInfo::Exact { global, offset } => {
                        // Accesses are words at byte granularity: the
                        // store also corrupts any tracked cell within a
                        // word of its offset.
                        cells.retain(|&(g, o), _| g != global || !mem::overlaps(o, offset));
                        cells.insert((global, offset), *src);
                    }
                    mem::AddrInfo::Base { global } => {
                        cells.retain(|(g, _), _| *g != global);
                    }
                    mem::AddrInfo::Unknown => cells.clear(),
                },
                i if i.may_write_mem() => {
                    cells.retain(|(g, _), _| model.is_rodata(*g));
                }
                _ => {}
            }
        }
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Dead-store elimination (block-local)
// ---------------------------------------------------------------------

/// Block-local dead-store elimination: a store to an exactly addressed
/// cell that is overwritten by a later store to the same cell — with no
/// possible read of the cell in between — is dropped. Walking each block
/// backward, the pass carries the set of cells certain to be overwritten
/// before any read: a store inserts its cell (or dies against it), a
/// read removes what it may alias (a call may read everything; an extern
/// cannot read memory at all), and the set starts empty at the block end
/// because memory is live across blocks and calls.
pub fn dead_store_elim(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let addrs = cache.fn_addrs(f);
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        let mut overwritten: BTreeSet<(usize, i32)> = BTreeSet::new();
        let mut kept_rev: Vec<Inst> = Vec::with_capacity(blk.insts.len());
        for inst in std::mem::take(&mut blk.insts).into_iter().rev() {
            match &inst {
                Inst::Store { addr, .. } => {
                    // Stores read no memory, so even an untraceable store
                    // leaves the overwritten set intact.
                    if let mem::AddrInfo::Exact { global, offset } = addrs.info(*addr) {
                        if !overwritten.insert((global, offset)) {
                            changed = true;
                            continue; // dead: surely overwritten unread
                        }
                    }
                }
                Inst::Load { addr, .. } => match addrs.info(*addr) {
                    mem::AddrInfo::Exact { global, offset } => {
                        // The word read touches every cell within a word
                        // of its offset (byte-granular addressing).
                        overwritten.retain(|&(g, o)| g != global || !mem::overlaps(o, offset));
                    }
                    mem::AddrInfo::Base { global } => {
                        overwritten.retain(|(g, _)| *g != global);
                    }
                    mem::AddrInfo::Unknown => overwritten.clear(),
                },
                i if i.may_read_mem() => overwritten.clear(),
                _ => {}
            }
            kept_rev.push(inst);
        }
        kept_rev.reverse();
        blk.insts = kept_rev;
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Cross-block load redundancy elimination (avail_loads + two passes)
// ---------------------------------------------------------------------

/// Result of [`avail_loads`]: per block, the set of exactly addressed
/// memory cells ([`mem::Cell`]) whose values are *must-available* — on
/// every path from the entry, the cell was last written or read with no
/// intervening clobber — on block entry and exit, plus the per-block
/// [`mem::BlockCells`] transfer summaries the sets were computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvailLoads {
    universe: BTreeSet<mem::Cell>,
    effects: Vec<mem::BlockCells>,
    avail_in: Vec<BTreeSet<mem::Cell>>,
    avail_out: Vec<BTreeSet<mem::Cell>>,
}

impl AvailLoads {
    /// The cell universe the analysis ranged over.
    pub fn universe(&self) -> &BTreeSet<mem::Cell> {
        &self.universe
    }

    /// Cells available on entry to `b`.
    pub fn on_entry(&self, b: BlockId) -> &BTreeSet<mem::Cell> {
        &self.avail_in[b.0 as usize]
    }

    /// Cells available at the exit of `b`.
    pub fn at_exit(&self, b: BlockId) -> &BTreeSet<mem::Cell> {
        &self.avail_out[b.0 as usize]
    }

    /// `true` if `cell` is available on the CFG edge `p → _` (edges
    /// neither kill nor gen, so edge availability is the source block's
    /// exit availability) — the per-edge query load-PRE partitions a
    /// join's predecessors with.
    pub fn on_edge(&self, p: BlockId, cell: mem::Cell) -> bool {
        self.avail_out[p.0 as usize].contains(&cell)
    }

    /// The transfer summary of block `b`.
    pub fn effects(&self, b: BlockId) -> &mem::BlockCells {
        &self.effects[b.0 as usize]
    }
}

/// Forward must-availability dataflow over the CFG: a cell is available
/// at a point if on *every* path there it was last stored or loaded with
/// no intervening clobber ([`mem::CellState`]'s aliasing discipline:
/// may-aliasing stores, and calls to non-transparent effects — rodata
/// cells survive calls, externs are memory-transparent).
///
/// The meet is set intersection over the block's reachable predecessors,
/// seeded optimistically (everything available everywhere except the
/// entry, whose in-set is empty) and iterated in reverse postorder to
/// the greatest fixed point, so loop-transparent cells stay available
/// around back edges. At natural-loop headers the in-set is additionally
/// filtered through the loop's [`mem::LoopClobbers`] summary — the
/// explicit "the body writes this, kill it" rule, which makes the common
/// reducible case converge in a single sweep (the fixed point covers
/// irreducible shapes the loop forest cannot describe).
///
/// Computes afresh, reading address resolution and the CFG analyses from
/// `cache`; [`AnalysisCache::avail_loads`] is the memoized form passes
/// use.
pub fn avail_loads(
    f: &MirFunction,
    model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> AvailLoads {
    let n = f.blocks.len();
    let addrs = cache.fn_addrs(f);
    let universe = mem::cell_universe(f, &addrs);
    let effects: Vec<mem::BlockCells> = f
        .block_ids()
        .map(|b| mem::BlockCells::summarize(f, b, &universe, &addrs, model))
        .collect();
    let mut avail = AvailLoads {
        universe,
        effects,
        avail_in: vec![BTreeSet::new(); n],
        avail_out: vec![BTreeSet::new(); n],
    };
    if avail.universe.is_empty() {
        return avail;
    }
    let rpo = cache.rpo(f);
    let reachable = cache.reachable(f);
    let preds = cache.preds(f);
    let header_clobbers: BTreeMap<BlockId, mem::LoopClobbers> = cache
        .loops(f)
        .iter()
        .map(|lp| (lp.header, mem::LoopClobbers::summarize(f, &lp.body, &addrs)))
        .collect();
    for &b in rpo.iter() {
        if b != BlockId(0) {
            avail.avail_out[b.0 as usize] = avail.universe.clone();
        }
    }
    loop {
        let mut changed = false;
        for &b in rpo.iter() {
            let mut in_set = BTreeSet::new();
            if b != BlockId(0) {
                let ps: BTreeSet<BlockId> = preds[b.0 as usize]
                    .iter()
                    .copied()
                    .filter(|p| reachable.contains(p))
                    .collect();
                let mut first = true;
                for p in ps {
                    let out = &avail.avail_out[p.0 as usize];
                    if first {
                        in_set = out.clone();
                        first = false;
                    } else {
                        in_set.retain(|c| out.contains(c));
                    }
                }
                if let Some(cl) = header_clobbers.get(&b) {
                    in_set.retain(|&c| !cl.clobbers(mem::cell_info(c), model));
                }
            }
            let out_set = avail.effects[b.0 as usize].flow(&in_set);
            let i = b.0 as usize;
            if in_set != avail.avail_in[i] || out_set != avail.avail_out[i] {
                avail.avail_in[i] = in_set;
                avail.avail_out[i] = out_set;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    avail
}

/// A φ the load rewriter decided to insert, not yet materialized (its
/// arguments may still collapse through the replacement map).
struct PendingPhi {
    block: BlockId,
    dst: VReg,
    args: Vec<(BlockId, VReg)>,
}

/// Shared state of the lazy cell-value resolution both cross-block
/// passes use: memoized per-(block, cell) entry values and the φs
/// allocated to merge differing predecessor values.
struct LoadResolver<'a> {
    avail: &'a AvailLoads,
    preds: &'a [Vec<BlockId>],
    reachable: &'a BTreeSet<BlockId>,
    entry_memo: BTreeMap<(BlockId, mem::Cell), VReg>,
    phis: Vec<PendingPhi>,
}

impl LoadResolver<'_> {
    /// The register holding `cell`'s value on entry to `b`. Only valid
    /// when the dataflow proved the cell available there; φs are
    /// allocated at joins whose predecessors disagree, memoized *before*
    /// the recursive argument resolution so loop back edges close on the
    /// φ itself (Braun et al.'s on-demand construction).
    fn entry_value(&mut self, f: &mut MirFunction, b: BlockId, cell: mem::Cell) -> VReg {
        if let Some(&v) = self.entry_memo.get(&(b, cell)) {
            return v;
        }
        debug_assert!(
            self.avail.on_entry(b).contains(&cell),
            "entry_value on unavailable cell {cell:?} at {b}"
        );
        let ps: Vec<BlockId> = self.preds[b.0 as usize]
            .iter()
            .copied()
            .filter(|p| self.reachable.contains(p))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        debug_assert!(!ps.is_empty(), "available cell with no predecessor at {b}");
        if ps.len() == 1 {
            let v = self.exit_value(f, ps[0], cell);
            self.entry_memo.insert((b, cell), v);
            v
        } else {
            let dst = f.fresh();
            self.entry_memo.insert((b, cell), dst);
            let args: Vec<(BlockId, VReg)> = ps
                .into_iter()
                .map(|p| {
                    let v = self.exit_value(f, p, cell);
                    (p, v)
                })
                .collect();
            self.phis.push(PendingPhi {
                block: b,
                dst,
                args,
            });
            dst
        }
    }

    /// The register holding `cell`'s value at the exit of `p`: the
    /// block's own provider if it has one, else the entry value carried
    /// through a transparent block.
    fn exit_value(&mut self, f: &mut MirFunction, p: BlockId, cell: mem::Cell) -> VReg {
        if let Some(&v) = self.avail.effects(p).provides.get(&cell) {
            return v;
        }
        self.entry_value(f, p, cell)
    }
}

/// The shared analysis prologue of the two cross-block passes: address
/// resolution, the availability dataflow, dominators and the
/// dominance-ordered reachable-block walk, all read from the
/// [`AnalysisCache`] — so [`load_pre`] reuses what
/// [`cross_block_forward`] derived whenever the latter changed nothing.
struct CrossBlockCtx {
    addrs: Rc<mem::FnAddrs>,
    avail: Rc<AvailLoads>,
    idom: Rc<BTreeMap<BlockId, BlockId>>,
    order: Vec<BlockId>,
    preds: Rc<Vec<Vec<BlockId>>>,
    reachable: Rc<BTreeSet<BlockId>>,
}

impl CrossBlockCtx {
    /// `None` when the function touches no exactly addressed cell —
    /// neither pass has anything to do then.
    fn analyze(
        f: &MirFunction,
        model: &mem::MemoryModel,
        cache: &mut AnalysisCache,
    ) -> Option<CrossBlockCtx> {
        let avail = cache.avail_loads(f, model);
        if avail.universe().is_empty() {
            return None;
        }
        let addrs = cache.fn_addrs(f);
        let idom = cache.dominators(f);
        let order = cfg::dominator_preorder(&idom);
        let preds = cache.preds(f);
        let reachable = cache.reachable(f);
        Some(CrossBlockCtx {
            addrs,
            avail,
            idom,
            order,
            preds,
            reachable,
        })
    }

    fn resolver(&self) -> LoadResolver<'_> {
        LoadResolver {
            avail: &self.avail,
            preds: &self.preds,
            reachable: &self.reachable,
            entry_memo: BTreeMap::new(),
            phis: Vec::new(),
        }
    }
}

/// The edits a cross-block pass accumulates before touching the
/// function: loads to delete (with every use of their destination
/// rewritten to the forwarded value), φs to materialize, instructions to
/// append to predecessor blocks (load-PRE's compensating loads).
#[derive(Default)]
struct LoadEdits {
    /// Replacements for deleted definitions (and collapsed φs); applied
    /// transitively to every use in the function.
    repl: BTreeMap<VReg, VReg>,
    /// `(block, instruction index)` of loads to delete.
    delete: BTreeSet<(BlockId, usize)>,
    /// Instructions appended to the end of a block (before its
    /// terminator).
    append: BTreeMap<BlockId, Vec<Inst>>,
}

impl LoadEdits {
    fn resolve(&self, mut v: VReg) -> VReg {
        let mut hops = 0;
        while let Some(&n) = self.repl.get(&v) {
            v = n;
            hops += 1;
            if hops > self.repl.len() {
                break; // defensive: replacement chains cannot cycle
            }
        }
        v
    }

    /// Applies everything: collapses trivial φs (all arguments resolve
    /// to one value besides the φ itself — such a φ *is* that value, the
    /// self-argument being the unchanged loop-carried copy), prepends the
    /// surviving φs, deletes the forwarded loads, rewrites every use
    /// through the replacement map and appends the compensating
    /// instructions. Returns `true` if the function changed.
    fn apply(mut self, f: &mut MirFunction, mut phis: Vec<PendingPhi>) -> bool {
        if self.delete.is_empty() && phis.is_empty() && self.append.is_empty() {
            return false;
        }
        // Trivial-φ collapse to a fixed point: collapsing one φ can make
        // another's arguments agree.
        loop {
            let mut collapsed = false;
            phis.retain(|phi| {
                let distinct: BTreeSet<VReg> = phi
                    .args
                    .iter()
                    .map(|(_, v)| self.resolve(*v))
                    .filter(|v| *v != phi.dst)
                    .collect();
                if distinct.len() == 1 {
                    let only = *distinct.iter().next().expect("one element");
                    self.repl.insert(phi.dst, only);
                    collapsed = true;
                    false
                } else {
                    true
                }
            });
            if !collapsed {
                break;
            }
        }
        let mut phi_by_block: BTreeMap<BlockId, Vec<Inst>> = BTreeMap::new();
        for phi in phis {
            let args = phi
                .args
                .iter()
                .map(|&(p, v)| (p, self.resolve(v)))
                .collect();
            phi_by_block
                .entry(phi.block)
                .or_default()
                .push(Inst::Phi { dst: phi.dst, args });
        }
        for b in f.block_ids().collect::<Vec<_>>() {
            let tail = self.append.remove(&b).unwrap_or_default();
            let blk = f.block_mut(b);
            let old = std::mem::take(&mut blk.insts);
            let mut insts = phi_by_block.remove(&b).unwrap_or_default();
            insts.reserve(old.len() + tail.len());
            for (i, inst) in old.into_iter().enumerate() {
                if !self.delete.contains(&(b, i)) {
                    insts.push(inst);
                }
            }
            insts.extend(tail);
            blk.insts = insts;
            let blk = f.block_mut(b);
            for inst in &mut blk.insts {
                inst.map_uses(&mut |v| self.resolve(v));
            }
            blk.term.map_uses(&mut |v| self.resolve(v));
        }
        true
    }
}

/// Cross-block store-to-load forwarding / redundant-load elimination, on
/// SSA — the mid-end's first *global* memory optimization. Backed by
/// [`avail_loads`]: a load of a cell that is must-available on block
/// entry (dominated by a same-cell store or load with no intervening
/// clobber on any path) is **deleted** and every use of its destination
/// rewritten to the available value, threaded through the SSA graph with
/// new φs at joins where the incoming values differ (and closing over
/// back edges with loop φs — a loop-transparent cell's value enters the
/// φ from outside and recycles through the latch). Trivial φs (every
/// argument one value) collapse away before materialization, so
/// straight-line chains — the State Pattern's call-free handler paths
/// re-reading the context cell the caller just tested — forward with no
/// φ at all.
///
/// This is the pass the recorded `gain_order_matches_table1` deviation
/// pointed at: block-local forwarding helps the State Pattern least
/// because its handlers re-load the same context cells *across* block
/// boundaries. Deleting the loads here (rather than leaving copies)
/// makes the pass's `insts_removed` stat the direct count of loads
/// eliminated.
pub fn cross_block_forward(
    f: &mut MirFunction,
    model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let Some(ctx) = CrossBlockCtx::analyze(f, model, cache) else {
        return Changed::Nothing;
    };
    let mut resolver = ctx.resolver();
    let mut edits = LoadEdits::default();
    for &b in &ctx.order {
        let mut st = mem::CellState::new(ctx.avail.universe());
        for i in 0..f.block(b).insts.len() {
            let load = match &f.block(b).insts[i] {
                Inst::Load { dst, addr } => Some((*dst, *addr)),
                _ => None,
            };
            if let Some((dst, addr)) = load {
                if let mem::AddrInfo::Exact { global, offset } = ctx.addrs.info(addr) {
                    let cell = (global, offset);
                    let forwarded = match st.value(cell) {
                        mem::CellVal::Reg(v) => Some(v),
                        mem::CellVal::FromEntry if ctx.avail.on_entry(b).contains(&cell) => {
                            Some(resolver.entry_value(f, b, cell))
                        }
                        _ => None,
                    };
                    if let Some(v) = forwarded {
                        edits.delete.insert((b, i));
                        edits.repl.insert(dst, v);
                        st.set(cell, mem::CellVal::Reg(v));
                        continue;
                    }
                }
            }
            st.apply(&f.block(b).insts[i], &ctx.addrs, model);
        }
    }
    if edits.delete.is_empty() {
        return Changed::Nothing;
    }
    Changed::insts_if(edits.apply(f, resolver.phis))
}

/// Load partial-redundancy elimination for diamond joins, on SSA. Where
/// [`cross_block_forward`] needs a cell available on *every* incoming
/// path, this pass handles the half-available case: at a two-predecessor
/// join that is not a loop header, a load of a cell available on exactly
/// one incoming edge ([`AvailLoads::on_edge`]) is made fully redundant
/// by inserting the compensating load in the *other* predecessor — a
/// fresh `Addr` + `Load` of the cell before its terminator — and
/// φ-merging the two values. The original load is deleted and its uses
/// rewritten to the φ.
///
/// The insertion is speculative when the lacking predecessor has other
/// successors: the compensating load then also executes on paths that
/// never reach the join. That is licensed by the rooted-loads-never-fault
/// rule of [`crate::mem`] — the cell is exactly addressed, so the
/// address stays inside the VM's data image and the extra load can only
/// cost time, never behaviour. Appending to the lacking predecessor keeps
/// its terminator, so the CFG is unchanged.
pub fn load_pre(
    f: &mut MirFunction,
    model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let Some(ctx) = CrossBlockCtx::analyze(f, model, cache) else {
        return Changed::Nothing;
    };
    let mut resolver = ctx.resolver();
    let mut edits = LoadEdits::default();
    for &b in &ctx.order {
        let ps: Vec<BlockId> = ctx.preds[b.0 as usize]
            .iter()
            .copied()
            .filter(|p| ctx.reachable.contains(p))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        // Diamond joins only: exactly two distinct forward predecessors.
        // A join one of whose edges is a back edge is a loop header —
        // compensating in the latch would reload every iteration.
        if ps.len() != 2 || ps.iter().any(|&p| cfg::dominates(&ctx.idom, b, p)) {
            continue;
        }
        let mut st = mem::CellState::new(ctx.avail.universe());
        for i in 0..f.block(b).insts.len() {
            let load = match &f.block(b).insts[i] {
                Inst::Load { dst, addr } => Some((*dst, *addr)),
                _ => None,
            };
            if let Some((dst, addr)) = load {
                if let mem::AddrInfo::Exact { global, offset } = ctx.addrs.info(addr) {
                    let cell = (global, offset);
                    // Only entry-state loads of half-available cells: the
                    // fully available case is cross_block_forward's, a
                    // locally provided value is store_load_forward's, and
                    // a locally clobbered cell cannot be compensated.
                    if st.value(cell) == mem::CellVal::FromEntry
                        && !ctx.avail.on_entry(b).contains(&cell)
                    {
                        let have: Vec<BlockId> = ps
                            .iter()
                            .copied()
                            .filter(|&p| ctx.avail.on_edge(p, cell))
                            .collect();
                        if have.len() == 1 {
                            let miss = ps[usize::from(ps[0] == have[0])];
                            let available = resolver.exit_value(f, have[0], cell);
                            let addr_reg = f.fresh();
                            let load_reg = f.fresh();
                            edits.append.entry(miss).or_default().extend([
                                Inst::Addr {
                                    dst: addr_reg,
                                    global,
                                    offset,
                                },
                                Inst::Load {
                                    dst: load_reg,
                                    addr: addr_reg,
                                },
                            ]);
                            let phi_dst = f.fresh();
                            resolver.phis.push(PendingPhi {
                                block: b,
                                dst: phi_dst,
                                args: vec![(have[0], available), (miss, load_reg)],
                            });
                            edits.delete.insert((b, i));
                            edits.repl.insert(dst, phi_dst);
                            st.set(cell, mem::CellVal::Reg(phi_dst));
                            continue;
                        }
                    }
                }
            }
            st.apply(&f.block(b).insts[i], &ctx.addrs, model);
        }
    }
    if edits.delete.is_empty() {
        return Changed::Nothing;
    }
    Changed::insts_if(edits.apply(f, resolver.phis))
}

// ---------------------------------------------------------------------
// Loop-invariant code motion (on SSA)
// ---------------------------------------------------------------------

/// Loop-invariant code motion on SSA. Natural loops come from
/// [`cfg::natural_loops`] (irreducible cycles are never reported, so they
/// are never touched); each loop with hoistable work gets a preheader —
/// reusing an existing unique outside predecessor that already ends in a
/// `Goto` to the header, otherwise inserting a fresh block and φ-safely
/// collapsing the header φs' outside arguments through it — and every
/// pure instruction whose operands are defined outside the loop (or
/// themselves hoisted) moves there. EM32 arithmetic never traps
/// (division by zero yields zero), so speculatively executing a hoisted
/// instruction once in the preheader is always safe; a `Load` is
/// additionally hoisted only when its address resolves to a rooted cell
/// ([`mem::AddrInfo`], rooted loads never fault) that no store or call
/// in the loop body can clobber ([`mem::LoopClobbers`]) — the
/// memory-aware extension that lifts the state/context reads out of the
/// STT dispatch loops, whose rodata rule tables survive even the guard
/// and effect calls in the body. The state-machine dispatch loops of the
/// STT pattern — invariant table-address arithmetic recomputed every
/// iteration — are the designed beneficiary. Inserting a preheader is a
/// CFG change; hoisting into an existing one is not.
pub fn licm(f: &mut MirFunction, model: &mem::MemoryModel, cache: &mut AnalysisCache) -> Changed {
    let mut changed = Changed::Nothing;
    // One loop is transformed per step and loops are re-discovered, so
    // body sets stay exact after each preheader insertion. Terminates
    // because every step moves ≥1 instruction strictly outward; the
    // bound is defensive.
    for _ in 0..1000 {
        let step = licm_step(f, model, cache);
        if !step.any() {
            break;
        }
        changed = changed.max(step);
    }
    changed
}

/// Hoists out of the first (innermost) loop with invariant work. Each
/// mutation invalidates `cache` as it happens, so the next step
/// re-discovers loops and addresses on the new function state.
fn licm_step(f: &mut MirFunction, model: &mem::MemoryModel, cache: &mut AnalysisCache) -> Changed {
    let loops = cache.loops(f);
    if loops.is_empty() {
        return Changed::Nothing; // loop-free: skip the address analysis entirely
    }
    let addrs = cache.fn_addrs(f);
    for lp in loops.iter() {
        if lp.header == BlockId(0) {
            // A back edge onto the entry block has no spot for a
            // preheader (entry must stay block 0); lowering never emits
            // this shape, random MIR can.
            continue;
        }
        let hoist = invariant_defs(f, lp, model, &addrs);
        if hoist.is_empty() {
            continue;
        }
        let Some((pre, inserted)) = ensure_preheader(f, lp, cache) else {
            continue;
        };
        let class = if inserted {
            Changed::Cfg
        } else {
            Changed::Insts
        };
        cache.invalidate(class);
        hoist_insts(f, lp, pre, &hoist, cache);
        cache.invalidate(Changed::Insts);
        return class;
    }
    Changed::Nothing
}

/// The set of loop-defined registers whose defining instructions should
/// be hoisted: pure, not φs, with every operand defined outside the loop
/// or by another hoistable instruction — *seeded from the instructions
/// worth paying a register for*. Seeds are `Un`/`Bin` computations,
/// `Addr`/`FnAddr` address formation (EM32's 8-byte worst-case
/// instruction, re-formed every iteration in the STT dispatch loops) and
/// clobber-free `Load`s. A `Const` or `Copy` is as cheap to
/// rematerialize as to read back, so hoisting one on its own only
/// stretches a live range across the loop and invites spills (EM32 has
/// seven allocatable registers); those move only as operands of a
/// hoisted seed.
///
/// A `Load` qualifies only if its address resolves to a rooted cell the
/// loop body provably leaves alone: no may-aliasing store, and no
/// `Call`/`CallInd` when the root is mutable (rodata roots survive calls
/// — `tlang` rejects stores to `const` globals, so no callee can write
/// them; externs are memory-transparent). Rooted addresses stay inside
/// the data image, so the speculative preheader execution cannot fault.
fn invariant_defs(
    f: &MirFunction,
    lp: &cfg::NaturalLoop,
    model: &mem::MemoryModel,
    addrs: &mem::FnAddrs,
) -> BTreeSet<VReg> {
    let mut loop_def: BTreeMap<VReg, &Inst> = BTreeMap::new();
    for &b in &lp.body {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.def() {
                loop_def.insert(d, inst);
            }
        }
    }
    let clobbers = mem::LoopClobbers::summarize(f, &lp.body, addrs);
    let load_movable = |inst: &Inst| match inst {
        Inst::Load { addr, .. } => {
            let info = addrs.info(*addr);
            info != mem::AddrInfo::Unknown && !clobbers.clobbers(info, model)
        }
        _ => true,
    };
    // Fixpoint: everything that *could* move.
    let mut hoistable: BTreeSet<VReg> = BTreeSet::new();
    loop {
        let mut grew = false;
        for inst in loop_def.values() {
            if matches!(inst, Inst::Phi { .. }) || !inst.is_pure() || !load_movable(inst) {
                continue;
            }
            let Some(d) = inst.def() else { continue };
            if hoistable.contains(&d) {
                continue;
            }
            if inst
                .uses()
                .iter()
                .all(|u| !loop_def.contains_key(u) || hoistable.contains(u))
            {
                hoistable.insert(d);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    // Keep computations plus the operand chains feeding them.
    let mut wanted: BTreeSet<VReg> = BTreeSet::new();
    let mut stack: Vec<VReg> = hoistable
        .iter()
        .copied()
        .filter(|d| {
            matches!(
                loop_def.get(d),
                Some(
                    Inst::Un { .. }
                        | Inst::Bin { .. }
                        | Inst::Addr { .. }
                        | Inst::FnAddr { .. }
                        | Inst::Load { .. }
                )
            )
        })
        .collect();
    while let Some(v) = stack.pop() {
        if !wanted.insert(v) {
            continue;
        }
        if let Some(inst) = loop_def.get(&v) {
            for u in inst.uses() {
                if hoistable.contains(&u) {
                    stack.push(u);
                }
            }
        }
    }
    wanted
}

/// Returns a block that dominates the loop header and is executed
/// exactly on entry to the loop, and whether it was inserted: the unique
/// outside predecessor if it already forwards straight to the header,
/// otherwise a freshly inserted preheader. Insertion rewires every
/// outside edge and collapses the outside arguments of each header φ
/// into a single argument through the preheader (inserting a merge φ in
/// the preheader when several distinct outside predecessors join) — the
/// φ- and SSA-safety loop-invariant code motion requires.
fn ensure_preheader(
    f: &mut MirFunction,
    lp: &cfg::NaturalLoop,
    cache: &mut AnalysisCache,
) -> Option<(BlockId, bool)> {
    let h = lp.header;
    let preds = cache.preds(f);
    let outside: BTreeSet<BlockId> = preds[h.0 as usize]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    if outside.is_empty() {
        return None; // unreachable loop; nothing sound to do
    }
    if outside.len() == 1 {
        let p = *outside.iter().next().expect("one element");
        if f.block(p).term.succs() == vec![h] {
            return Some((p, false)); // already a dedicated preheader
        }
    }
    let pre = BlockId(f.blocks.len() as u32);
    // Collapse header-φ outside arguments through the new preheader.
    let mut pre_insts: Vec<Inst> = Vec::new();
    for i in 0..f.block(h).insts.len() {
        let Inst::Phi { args, .. } = &f.block(h).insts[i] else {
            continue;
        };
        // One argument per distinct outside predecessor (duplicate edges
        // carry the same renamed value, as in `dedup_phi_args`).
        let mut outside_args: Vec<(BlockId, VReg)> = Vec::new();
        for (p, v) in args {
            if !lp.contains(*p) && !outside_args.iter().any(|(q, _)| q == p) {
                outside_args.push((*p, *v));
            }
        }
        if outside_args.is_empty() {
            continue;
        }
        let via_pre = if outside_args.len() == 1 {
            outside_args[0].1
        } else {
            let merged = f.fresh();
            pre_insts.push(Inst::Phi {
                dst: merged,
                args: outside_args,
            });
            merged
        };
        let Inst::Phi { args, .. } = &mut f.block_mut(h).insts[i] else {
            unreachable!("checked above");
        };
        args.retain(|(p, _)| lp.contains(*p));
        args.push((pre, via_pre));
    }
    f.blocks.push(Block {
        insts: pre_insts,
        term: Term::Goto(h),
    });
    for p in outside {
        f.block_mut(p)
            .term
            .map_succs(&mut |s| if s == h { pre } else { s });
    }
    Some((pre, true))
}

/// Moves the instructions defining `hoist` from the loop body to the end
/// of `pre`, in reverse postorder so definitions keep preceding uses
/// (an operand's definition dominates its use, and dominators precede
/// dominated blocks in reverse postorder).
fn hoist_insts(
    f: &mut MirFunction,
    lp: &cfg::NaturalLoop,
    pre: BlockId,
    hoist: &BTreeSet<VReg>,
    cache: &mut AnalysisCache,
) {
    let order: Vec<BlockId> = cache
        .rpo(f)
        .iter()
        .copied()
        .filter(|b| lp.contains(*b))
        .collect();
    let mut moved: Vec<Inst> = Vec::new();
    for b in order {
        let blk = f.block_mut(b);
        let mut kept = Vec::with_capacity(blk.insts.len());
        for inst in std::mem::take(&mut blk.insts) {
            let hoisted =
                !matches!(inst, Inst::Phi { .. }) && inst.def().is_some_and(|d| hoist.contains(&d));
            if hoisted {
                moved.push(inst);
            } else {
                kept.push(inst);
            }
        }
        blk.insts = kept;
    }
    f.block_mut(pre).insts.extend(moved);
}

// ---------------------------------------------------------------------
// Terminator folding + SSA jump threading
// ---------------------------------------------------------------------

/// Folds redundant terminators and threads jumps, on SSA form:
///
/// * a `Br` whose arms share a target becomes a `Goto`,
/// * `Switch` cases targeting the default block are dropped; a `Switch`
///   whose every arm agrees becomes a `Goto`,
/// * edges through an empty block ending in `Goto` are retargeted to its
///   destination when every φ in the destination agrees on the merged
///   value (SSA-safe jump threading).
///
/// φ-arguments of blocks that lose duplicate incoming edges are
/// deduplicated, and blocks made unreachable are removed. Every rewrite
/// here is a CFG change.
pub fn fold_terminators(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let mut changed = false;

    // 1. Collapse redundant multi-way terminators.
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        let folded = match &mut blk.term {
            Term::Br {
                then_block,
                else_block,
                ..
            } if then_block == else_block => Some(*then_block),
            Term::Switch { cases, default, .. } => {
                let d = *default;
                let before = cases.len();
                cases.retain(|(_, t)| *t != d);
                if cases.len() != before {
                    changed = true;
                }
                if cases.is_empty() {
                    Some(d)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(t) = folded {
            blk.term = Term::Goto(t);
            changed = true;
        }
    }

    // 2. Thread edges through empty forwarding blocks. One retarget per
    // search so predecessor lists stay fresh; chains converge within the
    // loop.
    cache.invalidate(Changed::cfg_if(changed));
    loop {
        let preds = cache.preds(f);
        let mut acted = false;
        'search: for s in f.block_ids().collect::<Vec<_>>() {
            if s == BlockId(0) || !f.block(s).insts.is_empty() {
                continue;
            }
            let Term::Goto(t) = f.block(s).term else {
                continue;
            };
            if t == s {
                continue;
            }
            let sp = preds[s.0 as usize].clone();
            if sp.is_empty() {
                continue; // already unreachable; removed below
            }
            // φ-safety: the value joining `t` via `s` must agree with any
            // existing entry for a predecessor about to be merged in.
            for inst in &f.block(t).insts {
                let Inst::Phi { args, .. } = inst else {
                    continue;
                };
                let Some(via_s) = args.iter().find(|(p, _)| *p == s).map(|(_, v)| *v) else {
                    continue 'search;
                };
                for p in &sp {
                    if args.iter().any(|(q, w)| q == p && *w != via_s) {
                        continue 'search;
                    }
                }
            }
            // Rewrite φs in `t`: the `s` entry becomes one entry per
            // incoming predecessor (skipping those already present).
            for inst in &mut f.block_mut(t).insts {
                let Inst::Phi { args, .. } = inst else {
                    continue;
                };
                let Some(pos) = args.iter().position(|(p, _)| *p == s) else {
                    continue;
                };
                let (_, via_s) = args.remove(pos);
                for p in &sp {
                    if !args.iter().any(|(q, _)| q == p) {
                        args.push((*p, via_s));
                    }
                }
            }
            acted = true;
            changed = true;
            for p in &sp {
                f.block_mut(*p)
                    .term
                    .map_succs(&mut |x| if x == s { t } else { x });
            }
            cache.invalidate(Changed::Cfg);
            break;
        }
        if !acted {
            break;
        }
    }

    if changed {
        dedup_phi_args(f, cache);
        ssa::remove_unreachable_blocks(f, cache);
    }
    Changed::cfg_if(changed)
}

/// Removes duplicate φ-arguments for the same predecessor. Duplicate
/// entries only arise from collapsed duplicate edges (a folded
/// equal-target `Br`, dropped `Switch` arms), where both slots carry the
/// same renamed value, so keeping the first is sound. Also prunes
/// arguments for edges the fold removed outright and folds φs of blocks
/// down to one predecessor, keeping the verifier's φ/predecessor
/// agreement and join discipline intact.
fn dedup_phi_args(f: &mut MirFunction, cache: &mut AnalysisCache) {
    let preds = cache.preds(f);
    for b in f.block_ids().collect::<Vec<_>>() {
        let ps: BTreeSet<BlockId> = preds[b.0 as usize].iter().copied().collect();
        for inst in &mut f.block_mut(b).insts {
            if let Inst::Phi { args, .. } = inst {
                let mut seen: BTreeSet<BlockId> = BTreeSet::new();
                args.retain(|(p, _)| ps.contains(p) && seen.insert(*p));
            }
        }
    }
    ssa::fold_trivial_phis(f, cache);
}

// ---------------------------------------------------------------------
// Dead code elimination (on SSA)
// ---------------------------------------------------------------------

/// Removes pure instructions whose results cannot reach an effect:
/// mark-and-sweep from the roots (registers read by impure instructions
/// and terminators), with liveness propagating through the operands of
/// live pure definitions only. Counting uses *anywhere* — the previous
/// formulation — kept self-sustaining dead φ-cycles alive: a loop-carried
/// φ whose only users feed back into it uses itself, so no round of a
/// use-count sweep could retire it; marking from roots sweeps the whole
/// cycle at once. This is the per-function analogue of the paper's "dead
/// code elimination" dump: it cannot remove state-machine handler bodies
/// because they are reached through stores, calls and address-taken
/// tables.
pub fn dead_code_elim(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    _cache: &mut AnalysisCache,
) -> Changed {
    // Operand lists of pure definitions; everything read by an impure
    // instruction or a terminator is a root.
    let mut pure_uses: BTreeMap<VReg, Vec<VReg>> = BTreeMap::new();
    let mut work: Vec<VReg> = Vec::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            match (inst.is_pure(), inst.def()) {
                (true, Some(d)) => pure_uses.entry(d).or_default().extend(inst.uses()),
                _ => work.extend(inst.uses()),
            }
        }
        work.extend(f.block(b).term.uses());
    }
    let mut live: BTreeSet<VReg> = BTreeSet::new();
    while let Some(v) = work.pop() {
        if live.insert(v) {
            if let Some(us) = pure_uses.get(&v) {
                work.extend(us.iter().copied());
            }
        }
    }
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        let before = blk.insts.len();
        blk.insts
            .retain(|inst| !inst.is_pure() || inst.def().is_none_or(|d| live.contains(&d)));
        changed |= blk.insts.len() != before;
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Copy coalescing (φ-free form)
// ---------------------------------------------------------------------

/// Cheap copy coalescing on φ-free code: the post-destruct cleanup that
/// lets `-O1` run more than one outer round. [`ssa::destruct`] lowers
/// every φ to a staged parallel copy (`tmp = src; dst = tmp`); at `-O2`
/// the next round's [`copy_propagate`] erases them, but `-O1` does not
/// register it, so the round trip used to grow code every round. This
/// pass is deliberately cheap and sound on non-SSA code:
///
/// 1. per block, forward-propagates available copies into uses
///    (invalidating on redefinition of either side) and drops no-op
///    `dst = dst` copies — correctly handling destruct's swap sequences;
/// 2. removes copies whose destination is dead, using [`cfg::liveness`]
///    across blocks.
pub fn coalesce_copies(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    _cache: &mut AnalysisCache,
) -> Changed {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut avail: BTreeMap<VReg, VReg> = BTreeMap::new();
        let resolve = |avail: &BTreeMap<VReg, VReg>, mut v: VReg| {
            let mut hops = 0;
            while let Some(&n) = avail.get(&v) {
                v = n;
                hops += 1;
                if hops > avail.len() {
                    break; // defensive; invalidation prevents cycles
                }
            }
            v
        };
        let blk = f.block_mut(b);
        let mut kept: Vec<Inst> = Vec::with_capacity(blk.insts.len());
        for mut inst in std::mem::take(&mut blk.insts) {
            // φs (not expected in φ-free form, but defensive): their
            // arguments are per-edge values, not block-local uses.
            if !matches!(inst, Inst::Phi { .. }) {
                inst.map_uses(&mut |v| {
                    let r = resolve(&avail, v);
                    if r != v {
                        changed = true;
                    }
                    r
                });
            }
            if let Some(d) = inst.def() {
                avail.retain(|k, v| *k != d && *v != d);
            }
            if let Inst::Copy { dst, src } = inst {
                if dst == src {
                    changed = true;
                    continue; // no-op copy
                }
                avail.insert(dst, src);
            }
            kept.push(inst);
        }
        blk.term.map_uses(&mut |v| {
            let r = resolve(&avail, v);
            if r != v {
                changed = true;
            }
            r
        });
        blk.insts = kept;
    }

    // Dead-copy sweep: a copy whose destination is not live afterwards
    // is gone. Restricted to copies (general dead-code removal is DCE's
    // job); the backward in-block walk keeps the check precise on
    // non-SSA code, where a register is redefined many times.
    let live = cfg::liveness(f);
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut live_now = live.live_out[b.0 as usize].clone();
        live_now.extend(f.block(b).term.uses());
        let blk = f.block_mut(b);
        let mut kept_rev: Vec<Inst> = Vec::with_capacity(blk.insts.len());
        for inst in std::mem::take(&mut blk.insts).into_iter().rev() {
            if let Inst::Copy { dst, .. } = inst {
                if !live_now.contains(&dst) {
                    changed = true;
                    continue;
                }
            }
            if let Some(d) = inst.def() {
                live_now.remove(&d);
            }
            live_now.extend(inst.uses());
            kept_rev.push(inst);
        }
        kept_rev.reverse();
        blk.insts = kept_rev;
    }
    Changed::insts_if(changed)
}

// ---------------------------------------------------------------------
// Return-block tail merging (φ-free form)
// ---------------------------------------------------------------------

/// Cross-jumping for return blocks (φ-free form): structurally identical
/// `Ret`-terminated blocks are merged into one and every edge into a
/// duplicate is redirected to the representative — GCC's `-Os`
/// crossjumping, restricted to the exit blocks where it needs no
/// successor-φ reasoning. Blocks compare equal up to renaming of their
/// *block-local* definitions (a fresh register materialized and returned
/// is the same code whatever its number); registers live into the block
/// must match exactly. Redirecting edges is a CFG change.
///
/// This is what pays for [`licm`]'s register pressure in the size
/// ledger: the STT dispatch functions all carry two `return false`
/// blocks (loop exhausted / no transition fired) that merge here.
pub fn merge_return_blocks(
    f: &mut MirFunction,
    _model: &mem::MemoryModel,
    cache: &mut AnalysisCache,
) -> Changed {
    let mut groups: BTreeMap<String, Vec<BlockId>> = BTreeMap::new();
    for b in f.block_ids() {
        if b == BlockId(0) {
            continue; // the entry block cannot become unreachable
        }
        let blk = f.block(b);
        if !matches!(blk.term, Term::Ret(_))
            || blk.insts.iter().any(|i| matches!(i, Inst::Phi { .. }))
        {
            continue;
        }
        // Canonical key: block-local defs renumbered from the top of the
        // register space; everything else kept verbatim. Every def —
        // including a *re*definition of an already-seen register — takes
        // a fresh id from a monotonic counter (`local.len()` would stall
        // on redefinitions and hand a later register a colliding id).
        let mut local: BTreeMap<VReg, u32> = BTreeMap::new();
        let mut next_id = 0u32;
        let canon = |local: &BTreeMap<VReg, u32>, v: VReg| {
            local.get(&v).map(|i| VReg(u32::MAX - i)).unwrap_or(v)
        };
        let mut parts: Vec<String> = Vec::with_capacity(blk.insts.len() + 1);
        for inst in &blk.insts {
            let mut c = inst.clone();
            c.map_uses(&mut |v| canon(&local, v));
            if let Some(d) = inst.def() {
                let id = next_id;
                next_id += 1;
                local.insert(d, id);
                if let Some(dm) = c.def_mut() {
                    *dm = VReg(u32::MAX - id);
                }
            }
            parts.push(format!("{c:?}"));
        }
        let mut t = blk.term.clone();
        t.map_uses(&mut |v| canon(&local, v));
        parts.push(format!("{t:?}"));
        groups.entry(parts.join(";")).or_default().push(b);
    }
    let mut redirect: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    for blocks in groups.values() {
        for &dup in &blocks[1..] {
            redirect.insert(dup, blocks[0]);
        }
    }
    if redirect.is_empty() {
        return Changed::Nothing;
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        f.block_mut(b)
            .term
            .map_succs(&mut |s| redirect.get(&s).copied().unwrap_or(s));
    }
    cache.invalidate(Changed::Cfg);
    ssa::remove_unreachable_blocks(f, cache);
    Changed::Cfg
}

// ---------------------------------------------------------------------
// CFG simplification (φ-free form only)
// ---------------------------------------------------------------------

/// Removes unreachable blocks, threads empty forwarding blocks and merges
/// every eligible straight-line chain in one sweep. Must run on φ-free
/// functions. Every rewrite here is a CFG change.
pub fn simplify_cfg(f: &mut MirFunction, cache: &mut AnalysisCache) -> Changed {
    let mut any = false;
    loop {
        let mut changed = ssa::remove_unreachable_blocks(f, cache);

        // Thread jumps through empty forwarding blocks.
        let mut forward: BTreeMap<BlockId, BlockId> = BTreeMap::new();
        for b in f.block_ids() {
            if b == BlockId(0) {
                continue;
            }
            let blk = f.block(b);
            if blk.insts.is_empty() {
                if let Term::Goto(t) = blk.term {
                    if t != b {
                        forward.insert(b, t);
                    }
                }
            }
        }
        if !forward.is_empty() {
            let mut threaded = false;
            let resolve = |mut b: BlockId| {
                let mut hops = 0;
                while let Some(&n) = forward.get(&b) {
                    b = n;
                    hops += 1;
                    if hops > forward.len() {
                        break;
                    }
                }
                b
            };
            for b in f.block_ids().collect::<Vec<_>>() {
                let mut term = f.block(b).term.clone();
                term.map_succs(&mut |s| {
                    let r = resolve(s);
                    if r != s {
                        threaded = true;
                    }
                    r
                });
                f.block_mut(b).term = term;
            }
            cache.invalidate(Changed::cfg_if(threaded));
            changed |= threaded;
        }

        // Merge b <- c when c is b's unique successor and b its unique
        // predecessor — following each chain to its end, every chain in
        // one sweep. Consumed blocks become unreachable and are dropped
        // at the top of the next round; predecessor *counts* stay valid
        // throughout the sweep because merging only moves an edge's
        // origin, never adds or removes edges.
        let preds = cache.preds(f);
        let mut consumed: BTreeSet<BlockId> = BTreeSet::new();
        for b in f.block_ids().collect::<Vec<_>>() {
            if consumed.contains(&b) {
                continue;
            }
            while let Term::Goto(c) = f.block(b).term {
                if c == b
                    || c == BlockId(0)
                    || consumed.contains(&c)
                    || preds[c.0 as usize].len() != 1
                {
                    break;
                }
                let mut tail = std::mem::take(&mut f.block_mut(c).insts);
                let tail_term = f.block(c).term.clone();
                let blk = f.block_mut(b);
                blk.insts.append(&mut tail);
                blk.term = tail_term;
                consumed.insert(c);
            }
        }
        cache.invalidate(Changed::cfg_if(!consumed.is_empty()));
        changed |= !consumed.is_empty();

        if !changed {
            ssa::remove_unreachable_blocks(f, cache);
            return Changed::cfg_if(any);
        }
        any = true;
    }
}

// ---------------------------------------------------------------------
// Inlining (pre-SSA, straight-line callees)
// ---------------------------------------------------------------------

/// Inlines calls to single-block functions of at most `max_insts`
/// instructions. Returns the number of call sites inlined.
pub fn inline_small_functions(program: &mut Program, max_insts: usize) -> usize {
    // Snapshot eligible callees.
    let mut eligible: BTreeMap<usize, (usize, Vec<Inst>, Option<VReg>, u32)> = BTreeMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        if f.blocks.len() != 1 || f.blocks[0].insts.len() > max_insts {
            continue;
        }
        let Term::Ret(ret) = f.blocks[0].term.clone() else {
            continue;
        };
        // Self-recursive single-block functions are not eligible.
        let self_call = f.blocks[0]
            .insts
            .iter()
            .any(|inst| matches!(inst, Inst::Call { func, .. } if *func == i));
        if self_call {
            continue;
        }
        eligible.insert(i, (f.params, f.blocks[0].insts.clone(), ret, f.next_vreg));
    }
    if eligible.is_empty() {
        return 0;
    }
    let mut inlined = 0;
    for ci in 0..program.functions.len() {
        for bi in 0..program.functions[ci].blocks.len() {
            let mut new_insts: Vec<Inst> = Vec::new();
            let insts = program.functions[ci].blocks[bi].insts.clone();
            for inst in insts {
                let Inst::Call { dst, func, args } = &inst else {
                    new_insts.push(inst);
                    continue;
                };
                // Do not inline into the callee itself.
                let Some((params, body, ret, callee_vregs)) = eligible.get(func) else {
                    new_insts.push(inst);
                    continue;
                };
                if *func == ci {
                    new_insts.push(inst);
                    continue;
                }
                // Map callee registers into the caller's space: parameters
                // become the argument registers, every other callee
                // register gets a compact fresh slot (`next_vreg` grows by
                // exactly the callee's non-parameter register count).
                let base = program.functions[ci].next_vreg;
                let extra = callee_vregs.saturating_sub(*params as u32);
                program.functions[ci].next_vreg += extra;
                let map = |v: VReg| {
                    if (v.0 as usize) < *params {
                        args[v.0 as usize]
                    } else {
                        VReg(base + (v.0 - *params as u32))
                    }
                };
                for callee_inst in body {
                    let mut copy = callee_inst.clone();
                    copy.map_uses(&mut |v| map(v));
                    if let Some(d) = copy.def_mut() {
                        *d = map(*d);
                    }
                    new_insts.push(copy);
                }
                if let (Some(d), Some(r)) = (dst, ret) {
                    new_insts.push(Inst::Copy {
                        dst: *d,
                        src: map(*r),
                    });
                }
                inlined += 1;
            }
            program.functions[ci].blocks[bi].insts = new_insts;
        }
    }
    inlined
}

// ---------------------------------------------------------------------
// Dead function elimination (call-graph reachability)
// ---------------------------------------------------------------------

/// Removes functions unreachable from the roots: exported functions and
/// every address-taken function (via [`Inst::FnAddr`] or function addresses
/// stored in global data). Returns removed names.
pub fn dead_function_elimination(program: &mut Program) -> Vec<String> {
    let n = program.functions.len();
    let mut live = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    for (i, f) in program.functions.iter().enumerate() {
        if f.exported {
            live[i] = true;
            work.push(i);
        }
    }
    // Address-taken through global data (const dispatch tables!): these are
    // roots because an indirect call may reach them at run time.
    for g in &program.globals {
        for w in &g.words {
            if let Word::FnAddr(i) = w {
                if !live[*i] {
                    live[*i] = true;
                    work.push(*i);
                }
            }
        }
    }
    while let Some(i) = work.pop() {
        for b in &program.functions[i].blocks {
            for inst in &b.insts {
                let callee = match inst {
                    Inst::Call { func, .. } => Some(*func),
                    Inst::FnAddr { func, .. } => Some(*func),
                    _ => None,
                };
                if let Some(c) = callee {
                    if !live[c] {
                        live[c] = true;
                        work.push(c);
                    }
                }
            }
        }
    }
    if live.iter().all(|l| *l) {
        return Vec::new();
    }
    // Remap indices.
    let mut remap = vec![usize::MAX; n];
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for (i, f) in program.functions.drain(..).enumerate() {
        if live[i] {
            remap[i] = kept.len();
            kept.push(f);
        } else {
            removed.push(f.name);
        }
    }
    for f in &mut kept {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                match inst {
                    Inst::Call { func, .. } | Inst::FnAddr { func, .. } => {
                        *func = remap[*func];
                    }
                    _ => {}
                }
            }
        }
    }
    for g in &mut program.globals {
        for w in &mut g.words {
            if let Word::FnAddr(i) = w {
                *i = remap[*i];
            }
        }
    }
    program.functions = kept;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{BinOp, Block, GlobalData};

    /// The conservative memory model unit tests drive bare functions
    /// with: no globals known, everything treated as mutable.
    fn md() -> mem::MemoryModel {
        mem::MemoryModel::default()
    }

    fn const_add_fn() -> MirFunction {
        MirFunction {
            name: "f".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(0),
                        value: 40,
                    },
                    Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(0),
                        rhs: VReg(1),
                    },
                ],
                term: Term::Ret(Some(VReg(2))),
            }],
            next_vreg: 3,
        }
    }

    #[test]
    fn constant_folding_collapses_math() {
        let mut f = const_add_fn();
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(constant_fold(&mut f, &md(), &mut AnalysisCache::new()).any());
        dead_code_elim(&mut f, &md(), &mut AnalysisCache::new());
        ssa::destruct(&mut f);
        simplify_cfg(&mut f, &mut AnalysisCache::new());
        // One Const remains, feeding the return.
        let consts: Vec<i32> = f.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&42), "{f}");
        assert!(f.blocks[0].insts.len() <= 2, "{f}");
    }

    /// Regression keyed to the verifier's `phi-outside-join` and
    /// `phi-pred-mismatch` rules: folding a constant branch removes a
    /// CFG edge, so `constant_fold` must prune the join φ's stale arm
    /// (and fold the now-trivial φ) instead of leaving it dangling for
    /// the next pass to trip over.
    #[test]
    fn constant_fold_prunes_stale_phi_args_after_branch_folding() {
        let mut f = MirFunction {
            name: "g".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(0),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 10,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 20,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Phi {
                        dst: VReg(3),
                        args: vec![(BlockId(1), VReg(1)), (BlockId(2), VReg(2))],
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(constant_fold(&mut f, &md(), &mut AnalysisCache::new()).any());
        let vs = verify::verify_function(&f, verify::Tier::Ssa);
        assert!(vs.is_empty(), "{}{f}", verify::report(&vs));
        // The single-pred join must not keep a φ at all.
        let phis = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Phi { .. }))
            .count();
        assert_eq!(phis, 0, "{f}");
    }

    #[test]
    fn branch_folding_removes_dead_arm() {
        let mut f = MirFunction {
            name: "g".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(0),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 10,
                    }],
                    term: Term::Ret(Some(VReg(1))),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 20,
                    }],
                    term: Term::Ret(Some(VReg(2))),
                },
            ],
            next_vreg: 3,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        constant_fold(&mut f, &md(), &mut AnalysisCache::new());
        ssa::destruct(&mut f);
        simplify_cfg(&mut f, &mut AnalysisCache::new());
        assert!(f.blocks.len() <= 2, "constant branch leaves one path: {f}");
    }

    #[test]
    fn dce_keeps_stores_and_calls() {
        let mut f = MirFunction {
            name: "h".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(0),
                        value: 5,
                    },
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    Inst::Const {
                        dst: VReg(2),
                        value: 99,
                    }, // dead
                ],
                term: Term::Ret(None),
            }],
            next_vreg: 3,
        };
        assert!(dead_code_elim(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Store { .. })));
    }

    fn two_fn_program(exported_second: bool) -> Program {
        Program {
            functions: vec![
                MirFunction {
                    name: "root".into(),
                    params: 0,
                    returns_value: false,
                    exported: true,
                    blocks: vec![Block {
                        insts: vec![],
                        term: Term::Ret(None),
                    }],
                    next_vreg: 0,
                },
                MirFunction {
                    name: "orphan".into(),
                    params: 0,
                    returns_value: false,
                    exported: exported_second,
                    blocks: vec![Block {
                        insts: vec![],
                        term: Term::Ret(None),
                    }],
                    next_vreg: 0,
                },
            ],
            globals: vec![],
            externs: vec![],
        }
    }

    #[test]
    fn dead_function_elimination_drops_orphans() {
        let mut p = two_fn_program(false);
        let removed = dead_function_elimination(&mut p);
        assert_eq!(removed, vec!["orphan".to_string()]);
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn address_taken_functions_survive() {
        // The paper's crucial case: a function only referenced from a const
        // table must be kept.
        let mut p = two_fn_program(false);
        p.globals.push(GlobalData {
            name: "tbl".into(),
            size: 4,
            words: vec![Word::FnAddr(1)],
            mutable: false,
        });
        let removed = dead_function_elimination(&mut p);
        assert!(removed.is_empty());
        assert_eq!(p.functions.len(), 2);
    }

    fn inline_program() -> Program {
        Program {
            functions: vec![
                MirFunction {
                    name: "caller".into(),
                    params: 0,
                    returns_value: true,
                    exported: true,
                    blocks: vec![Block {
                        insts: vec![
                            Inst::Const {
                                dst: VReg(0),
                                value: 20,
                            },
                            Inst::Call {
                                dst: Some(VReg(1)),
                                func: 1,
                                args: vec![VReg(0)],
                            },
                        ],
                        term: Term::Ret(Some(VReg(1))),
                    }],
                    next_vreg: 2,
                },
                MirFunction {
                    name: "double".into(),
                    params: 1,
                    returns_value: true,
                    exported: false,
                    blocks: vec![Block {
                        insts: vec![Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            lhs: VReg(0),
                            rhs: VReg(0),
                        }],
                        term: Term::Ret(Some(VReg(1))),
                    }],
                    next_vreg: 2,
                },
            ],
            globals: vec![],
            externs: vec![],
        }
    }

    #[test]
    fn inline_splices_single_block_callee() {
        let mut p = inline_program();
        assert_eq!(inline_small_functions(&mut p, 8), 1);
        let caller = &p.functions[0];
        assert!(
            !caller.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Call { .. })),
            "{caller}"
        );
        // And the callee is now removable.
        let removed = dead_function_elimination(&mut p);
        assert_eq!(removed, vec!["double".to_string()]);
    }

    #[test]
    fn inline_remaps_vregs_compactly() {
        // Regression: the callee has 1 param and 1 local register, so the
        // caller's register space must grow by exactly 1 per call site —
        // not by the callee's full register count keyed off raw ids.
        let mut p = inline_program();
        let before = p.functions[0].next_vreg;
        assert_eq!(inline_small_functions(&mut p, 8), 1);
        let caller = &p.functions[0];
        assert_eq!(
            caller.next_vreg,
            before + 1,
            "non-param callee registers must be remapped compactly: {caller}"
        );
        // Every register referenced by the caller is inside its space.
        for b in &caller.blocks {
            for inst in &b.insts {
                for u in inst.uses() {
                    assert!(u.0 < caller.next_vreg, "{u} out of range: {caller}");
                }
                if let Some(d) = inst.def() {
                    assert!(d.0 < caller.next_vreg, "{d} out of range: {caller}");
                }
            }
        }
    }

    #[test]
    fn simplify_cfg_threads_and_merges() {
        let mut f = MirFunction {
            name: "s".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 0,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCache::new()).any());
        assert_eq!(f.blocks.len(), 1, "{f}");
    }

    #[test]
    fn simplify_cfg_merges_long_chain_in_one_sweep() {
        // Regression: the merge step used to stop after the first merged
        // pair per round; a long straight-line chain must collapse fully,
        // preserving instruction order.
        let n = 12u32;
        let mut blocks: Vec<Block> = (0..n)
            .map(|i| Block {
                insts: vec![Inst::Const {
                    dst: VReg(i),
                    value: i as i32,
                }],
                term: Term::Goto(BlockId(i + 1)),
            })
            .collect();
        blocks.push(Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let mut f = MirFunction {
            name: "chain".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks,
            next_vreg: n,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCache::new()).any());
        assert_eq!(f.blocks.len(), 1, "{f}");
        let values: Vec<i32> = f.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values, (0..n as i32).collect::<Vec<_>>(), "{f}");
    }

    #[test]
    fn gvn_cse_replaces_redundant_expressions() {
        // v2 = v0 + v1 ; v3 = v1 + v0 (commutative dup) ; v4 = v2 * v3.
        let mut f = MirFunction {
            name: "cse".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(0),
                        rhs: VReg(1),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(3),
                        lhs: VReg(1),
                        rhs: VReg(0),
                    },
                    Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(4),
                        lhs: VReg(2),
                        rhs: VReg(3),
                    },
                ],
                term: Term::Ret(Some(VReg(4))),
            }],
            next_vreg: 5,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(gvn_cse(&mut f, &md(), &mut AnalysisCache::new()).any());
        let adds = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1, "commutative duplicate must become a copy: {f}");
        // After copy propagation + DCE the copy disappears entirely.
        copy_propagate(&mut f, &md(), &mut AnalysisCache::new());
        dead_code_elim(&mut f, &md(), &mut AnalysisCache::new());
        assert_eq!(f.blocks[0].insts.len(), 2, "{f}");
    }

    #[test]
    fn gvn_cse_respects_dominance() {
        // The same expression computed in two sibling branches must NOT be
        // CSE'd (neither def dominates the other).
        let mut f = MirFunction {
            name: "sib".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(2),
                        lhs: VReg(1),
                        rhs: VReg(1),
                    }],
                    term: Term::Ret(Some(VReg(2))),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(3),
                        lhs: VReg(1),
                        rhs: VReg(1),
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(
            !gvn_cse(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "sibling defs must not be merged: {f}"
        );
    }

    #[test]
    fn fold_terminators_collapses_equal_targets() {
        let mut f = MirFunction {
            name: "eq".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(1),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Switch {
                        val: VReg(0),
                        cases: vec![(1, BlockId(2)), (2, BlockId(2))],
                        default: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 1,
        };
        assert!(fold_terminators(&mut f, &md(), &mut AnalysisCache::new()).any());
        for b in f.block_ids() {
            assert!(
                matches!(f.block(b).term, Term::Goto(_) | Term::Ret(_)),
                "all conditional terminators fold away: {f}"
            );
        }
    }

    #[test]
    fn fold_terminators_threads_empty_blocks_through_phis() {
        // bb0 -Br-> bb1 (empty, Goto bb3) / bb2 (v=2, Goto bb3); bb3 has a
        // φ. Threading bb0->bb1->bb3 must keep the φ consistent.
        let mut f = MirFunction {
            name: "thread".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(fold_terminators(&mut f, &md(), &mut AnalysisCache::new()).any());
        // The empty forwarding block is gone; the φ still has one argument
        // per incoming edge.
        let preds = cfg::predecessors(&f);
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Inst::Phi { args, .. } = inst {
                    let mut expect: Vec<BlockId> = preds[b.0 as usize].clone();
                    expect.sort();
                    expect.dedup();
                    let mut got: Vec<BlockId> = args.iter().map(|(p, _)| *p).collect();
                    got.sort();
                    assert_eq!(got, expect, "{f}");
                }
            }
        }
    }

    #[test]
    fn pass_manager_reaches_fixed_point_and_records_stats() {
        let mut pm = PassManager::for_level(OptLevel::O2);
        let mut f = const_add_fn();
        assert!(pm.run_function(&mut f, &md()));
        let stats = pm.stats();
        // SCCP replaces the dense fold at -O2: it reports the
        // constant-folding changes, and const-fold never runs.
        let sc = stats.get(pass::SCCP).expect("sccp ran");
        assert!(sc.runs > 0 && sc.changes > 0, "{stats:?}");
        assert!(stats.get(pass::CONST_FOLD).is_none(), "{stats:?}");
        let dce = stats.get(pass::DCE).expect("dce ran");
        assert!(dce.insts_removed > 0, "{stats:?}");
        // Idempotence: a second run over the optimized function reports no
        // change and keeps the structure (SSA reconstruction renumbers
        // registers, so compare shape, not names).
        let (blocks, insts) = (f.blocks.len(), f.inst_count());
        let mut pm2 = PassManager::for_level(OptLevel::O2);
        assert!(!pm2.run_function(&mut f, &md()));
        assert_eq!(
            (f.blocks.len(), f.inst_count()),
            (blocks, insts),
            "fixed point must be structurally stable: {f}"
        );
    }

    /// Runs `p` as the only SSA pass of a verify-each manager over the
    /// store-free diamond; returns the panic message, if any.
    fn verify_each_panic(p: SsaPass) -> Option<String> {
        std::panic::catch_unwind(|| {
            let mut pm = PassManager::new().with_verify(VerifyMode::Each);
            pm.register("liar", p);
            pm.run_function(&mut diamond_mem_fn(None, None), &md());
        })
        .err()
        .map(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    #[test]
    fn verify_each_catches_a_pass_hiding_its_rewrite() {
        // Adds an instruction, reports nothing: the cache would keep
        // serving the pre-pass address resolution.
        fn liar(f: &mut MirFunction, _: &mem::MemoryModel, _: &mut AnalysisCache) -> Changed {
            let dst = f.fresh();
            f.block_mut(BlockId(3))
                .insts
                .insert(0, Inst::Const { dst, value: 7 });
            Changed::Nothing
        }
        let msg = verify_each_panic(liar);
        if cfg!(debug_assertions) {
            let msg = msg.expect("the lying pass must be caught");
            assert!(
                msg.contains("after liar in round 1.1: reported no change"),
                "{msg}"
            );
        } else {
            assert_eq!(msg, None, "release builds compile the check out");
        }
    }

    #[test]
    fn verify_each_catches_a_cfg_change_reported_as_insts() {
        // Turns the then-arm's edge to the join into a return, reports an
        // instruction-only change: the join keeps one predecessor, and the
        // predecessor and dominator entries `ssa::construct` cached go
        // stale.
        fn liar(f: &mut MirFunction, _: &mem::MemoryModel, _: &mut AnalysisCache) -> Changed {
            let term = &mut f.block_mut(BlockId(1)).term;
            if *term != Term::Goto(BlockId(3)) {
                return Changed::Nothing;
            }
            *term = Term::Ret(Some(VReg(0)));
            Changed::Insts
        }
        let msg = verify_each_panic(liar);
        if cfg!(debug_assertions) {
            let msg = msg.expect("the stale cache must be caught");
            assert!(
                msg.contains("after liar in round 1.1: stale analysis cache (preds,")
                    && msg.contains("dominators")
                    && msg.contains("after a reported Insts change"),
                "{msg}"
            );
        } else {
            assert_eq!(msg, None, "release builds compile the check out");
        }
    }

    #[test]
    fn sccp_folds_through_branches_the_dense_fold_leaves() {
        // x = 1; if x { y = 2 } else { y = 3 }; z = y + 4; return z.
        // The dense fold gets there too (it folds x, then the branch, but
        // only φ-meets over *all* args); SCCP must prove y = 2 because
        // the else edge is not executable, and fold z to 6 in one run.
        let mut f = MirFunction {
            name: "s".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(0),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(2),
                            value: 4,
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(3),
                            lhs: VReg(1),
                            rhs: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(sccp(&mut f, &md(), &mut AnalysisCache::new()).any());
        // The never-executable else block is gone; the φ collapsed.
        assert!(f.blocks.len() <= 3, "{f}");
        let folded: Vec<i32> = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(value),
                _ => None,
            })
            .collect();
        assert!(folded.contains(&6), "z must fold to 6: {f}");
        // No conditional terminator survives.
        for b in f.block_ids() {
            assert!(
                matches!(f.block(b).term, Term::Goto(_) | Term::Ret(_)),
                "{f}"
            );
        }
        // Idempotent: a second run reports no change.
        assert!(!sccp(&mut f, &md(), &mut AnalysisCache::new()).any(), "{f}");
    }

    #[test]
    fn sccp_keeps_values_that_merge_differently() {
        // Both arms reachable from an unknown param: the φ must stay ⊥.
        let mut f = MirFunction {
            name: "m".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(
            !sccp(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "nothing is provably constant: {f}"
        );
        assert_eq!(f.blocks.len(), 4, "no block may be removed: {f}");
    }

    #[test]
    fn sccp_prunes_phi_args_of_folded_edges() {
        // bb0 -Br(c)-> bb1 / bb2, both goto bb3 (φ); bb2 is also reachable
        // from bb4... simplified: constant branch kills one edge; the φ in
        // the join must lose the stale argument.
        let mut f = MirFunction {
            name: "p".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(1),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 10,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(0),
                        rhs: VReg(0),
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(2))),
                },
            ],
            next_vreg: 3,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(sccp(&mut f, &md(), &mut AnalysisCache::new()).any());
        let preds = cfg::predecessors(&f);
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Inst::Phi { args, .. } = inst {
                    for (p, _) in args {
                        assert!(
                            preds[b.0 as usize].contains(p),
                            "stale φ-arg from {p} in {f}"
                        );
                    }
                }
            }
        }
    }

    /// `n = 10; k = 0; while (k < n) { t = n * 4; sink(t); k += 1 }` —
    /// `n * 4` is the invariant computation LICM must hoist. The `sink`
    /// call keeps `t` alive so DCE cannot take the shortcut.
    fn licm_example() -> MirFunction {
        MirFunction {
            name: "loopy".into(),
            params: 1, // v0 = n (unknown, so the loop is not folded away)
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    // header: k < n
                    insts: vec![Inst::Bin {
                        op: BinOp::Lt,
                        dst: VReg(2),
                        lhs: VReg(1),
                        rhs: VReg(0),
                    }],
                    term: Term::Br {
                        cond: VReg(2),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    // body: t = n * 4 (invariant); sink(t); k = k + 1
                    insts: vec![
                        Inst::Const {
                            dst: VReg(3),
                            value: 4,
                        },
                        Inst::Bin {
                            op: BinOp::Mul,
                            dst: VReg(4),
                            lhs: VReg(0),
                            rhs: VReg(3),
                        },
                        Inst::CallExtern {
                            dst: None,
                            ext: 0,
                            args: vec![VReg(4)],
                        },
                        Inst::Const {
                            dst: VReg(5),
                            value: 1,
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            lhs: VReg(1),
                            rhs: VReg(5),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 6,
        }
    }

    #[test]
    fn licm_hoists_invariant_computation_to_preheader() {
        let mut f = licm_example();
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(licm(&mut f, &md(), &mut AnalysisCache::new()).any());
        let loops = cfg::natural_loops(&f);
        assert_eq!(loops.len(), 1, "{f}");
        // The multiplication left the loop body...
        for &b in &loops[0].body {
            for inst in &f.block(b).insts {
                assert!(
                    !matches!(inst, Inst::Bin { op: BinOp::Mul, .. }),
                    "invariant Mul must be hoisted: {f}"
                );
            }
        }
        // ...into a block dominating the header.
        let idom = cfg::dominators(&f);
        let mul_block = f
            .block_ids()
            .find(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
            })
            .expect("Mul survives (its value feeds a call)");
        assert!(
            cfg::dominates(&idom, mul_block, loops[0].header),
            "hoisted code must dominate the loop header: {f}"
        );
        // Idempotent.
        assert!(!licm(&mut f, &md(), &mut AnalysisCache::new()).any(), "{f}");
        // And the loop-varying add stayed put.
        let body_has_add = loops[0].body.iter().any(|b| {
            f.block(*b)
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
        });
        assert!(body_has_add, "k += 1 must stay in the loop: {f}");
    }

    #[test]
    fn licm_leaves_loads_and_calls_alone() {
        // A load from invariant address: a store in the loop could change
        // it, so it must not move (conservative: we never hoist loads).
        let mut f = licm_example();
        // Replace the Mul with a Load from an invariant address.
        f.blocks[2].insts[1] = Inst::Load {
            dst: VReg(4),
            addr: VReg(3),
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        licm(&mut f, &md(), &mut AnalysisCache::new());
        let loops = cfg::natural_loops(&f);
        assert_eq!(loops.len(), 1);
        let body_has_load = loops[0].body.iter().any(|b| {
            f.block(*b)
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Load { .. }))
        });
        assert!(body_has_load, "loads must never be hoisted: {f}");
    }

    #[test]
    fn licm_inserts_phi_safe_preheader_for_multi_entry_headers() {
        // Two outside edges into the loop header with *different* values
        // for the header φ: preheader insertion must merge them with a
        // preheader φ, preserving SSA.
        let mut f = MirFunction {
            name: "multi".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(1),
                            value: 5,
                        },
                        Inst::Const {
                            dst: VReg(2),
                            value: 9,
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Copy {
                        dst: VReg(3),
                        src: VReg(1),
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Copy {
                        dst: VReg(3),
                        src: VReg(2),
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    // loop header: k = φ(entry paths, latch); invariant
                    // work inside the body below.
                    insts: vec![
                        Inst::Const {
                            dst: VReg(4),
                            value: 7,
                        },
                        Inst::Bin {
                            op: BinOp::Mul,
                            dst: VReg(5),
                            lhs: VReg(0),
                            rhs: VReg(4),
                        },
                        Inst::CallExtern {
                            dst: None,
                            ext: 0,
                            args: vec![VReg(5)],
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(3),
                            lhs: VReg(3),
                            rhs: VReg(4),
                        },
                        Inst::Bin {
                            op: BinOp::Lt,
                            dst: VReg(6),
                            lhs: VReg(3),
                            rhs: VReg(0),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(6),
                        then_block: BlockId(3),
                        else_block: BlockId(4),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 7,
        };
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(licm(&mut f, &md(), &mut AnalysisCache::new()).any());
        // SSA still holds: every def unique, every φ-arg pred is a real
        // predecessor.
        let mut defs = BTreeSet::new();
        let preds = cfg::predecessors(&f);
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Some(d) = inst.def() {
                    assert!(defs.insert(d), "double def of {d}: {f}");
                }
                if let Inst::Phi { args, .. } = inst {
                    for (p, _) in args {
                        assert!(preds[b.0 as usize].contains(p), "{f}");
                    }
                }
            }
        }
        // The invariant Mul is out of every loop.
        for lp in cfg::natural_loops(&f) {
            for &b in &lp.body {
                assert!(
                    !f.block(b)
                        .insts
                        .iter()
                        .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })),
                    "{f}"
                );
            }
        }
    }

    #[test]
    fn coalesce_copies_cleans_destruct_residue() {
        // The staged parallel copy destruct emits: t = src; dst = t.
        let mut f = MirFunction {
            name: "c".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    },
                    Inst::Copy {
                        dst: VReg(2),
                        src: VReg(1),
                    },
                    Inst::Copy {
                        dst: VReg(3),
                        src: VReg(2),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(4),
                        lhs: VReg(3),
                        rhs: VReg(0),
                    },
                ],
                term: Term::Ret(Some(VReg(4))),
            }],
            next_vreg: 5,
        };
        assert!(coalesce_copies(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert!(
            !f.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Copy { .. })),
            "both copies disappear: {f}"
        );
        assert_eq!(f.blocks[0].insts.len(), 2, "{f}");
    }

    #[test]
    fn coalesce_copies_preserves_swap_semantics() {
        // t1 = x; t2 = y; x = t2; y = t1 — the parallel-copy swap. The
        // pass must not break it (x gets old y, y gets old x).
        let mut f = MirFunction {
            name: "swap".into(),
            params: 2,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(2),
                        src: VReg(0),
                    },
                    Inst::Copy {
                        dst: VReg(3),
                        src: VReg(1),
                    },
                    Inst::Copy {
                        dst: VReg(0),
                        src: VReg(3),
                    },
                    Inst::Copy {
                        dst: VReg(1),
                        src: VReg(2),
                    },
                    // Observe both.
                    Inst::CallExtern {
                        dst: None,
                        ext: 0,
                        args: vec![VReg(0), VReg(1)],
                    },
                ],
                term: Term::Ret(None),
            }],
            next_vreg: 4,
        };
        assert!(coalesce_copies(&mut f, &md(), &mut AnalysisCache::new()).any());
        // Semantics: find the extern call and check its args trace back
        // to the swapped sources via the remaining copies.
        let insts = &f.blocks[0].insts;
        let call = insts
            .iter()
            .find(|i| matches!(i, Inst::CallExtern { .. }))
            .expect("call kept");
        let Inst::CallExtern { args, .. } = call else {
            unreachable!()
        };
        // Simulate the block to validate the swap survived.
        let mut env: BTreeMap<VReg, i32> = BTreeMap::from([(VReg(0), 100), (VReg(1), 200)]);
        for inst in insts {
            match inst {
                Inst::Copy { dst, src } => {
                    let v = env[src];
                    env.insert(*dst, v);
                }
                Inst::CallExtern { .. } => break,
                _ => {}
            }
        }
        assert_eq!(env[&args[0]], 200, "x must hold old y: {f}");
        assert_eq!(env[&args[1]], 100, "y must hold old x: {f}");
    }

    #[test]
    fn merge_return_blocks_crossjumps_identical_exits() {
        // Two `return 0` blocks differing only in their local register
        // numbering must merge; the distinct `return 1` must not.
        let mut f = MirFunction {
            name: "xj".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Ret(Some(VReg(1))),
                },
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(3),
                        else_block: BlockId(4),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 0,
                    }],
                    term: Term::Ret(Some(VReg(2))),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(3),
                        value: 1,
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(merge_return_blocks(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(f.blocks.len(), 4, "one duplicate exit gone: {f}");
        let ret_zero = f
            .block_ids()
            .filter(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .any(|i| matches!(i, Inst::Const { value: 0, .. }))
                    && matches!(f.block(*b).term, Term::Ret(_))
            })
            .count();
        assert_eq!(ret_zero, 1, "{f}");
        // A block returning a *live-in* register must not merge with one
        // returning a local constant.
        assert!(
            !merge_return_blocks(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "idempotent: {f}"
        );
    }

    #[test]
    fn merge_return_blocks_distinguishes_redefined_registers() {
        // Regression: canonical ids must come from a monotonic counter.
        // With `local.len()` as the id source, a redefinition keeps the
        // map size flat, so the next register collides: these two blocks
        // would canonicalize identically and merge — returning 1 where 5
        // was meant.
        let ret_block = |ret_reg: u32| Block {
            insts: vec![
                Inst::Const {
                    dst: VReg(1),
                    value: 0,
                },
                Inst::Const {
                    dst: VReg(1),
                    value: 1,
                },
                Inst::Const {
                    dst: VReg(2),
                    value: 5,
                },
            ],
            term: Term::Ret(Some(VReg(ret_reg))),
        };
        let mut f = MirFunction {
            name: "redef".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                ret_block(1), // returns 1
                ret_block(2), // returns 5
            ],
            next_vreg: 3,
        };
        assert!(
            !merge_return_blocks(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "blocks returning different values must not merge: {f}"
        );
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn merge_return_blocks_keeps_livein_distinctions() {
        // return v0  vs  return v1 (both live-in): different code, no
        // merge even though the shapes match.
        let mut f = MirFunction {
            name: "li".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(0))),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        assert!(
            !merge_return_blocks(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "{f}"
        );
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn o1_runs_two_outer_rounds_with_coalescing() {
        // The φ example needs the construct/destruct round trip; at -O1
        // the coalescer must clean the copy residue so a second round is
        // net-profitable (this was a single-round level before).
        let mut f = MirFunction {
            name: "o1".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        let mut pm = PassManager::for_level(OptLevel::O1);
        pm.run_function(&mut f, &md());
        let stats = pm.stats();
        let cc = stats.get(pass::COPY_COALESCE).expect("coalesce ran");
        assert!(cc.runs >= 1, "{stats:?}");
        // No copy-of-copy chains survive at -O1 any more.
        for b in f.block_ids() {
            let copies = f
                .block(b)
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Copy { .. }))
                .count();
            assert!(copies <= 1, "destruct residue must be coalesced: {f}");
        }
    }

    #[test]
    fn run_pipeline_records_program_passes() {
        let mut p = inline_program();
        let stats = run_pipeline(&mut p, OptLevel::O2);
        assert_eq!(stats.get(pass::INLINE).map(|s| s.changes), Some(1));
        assert_eq!(stats.get(pass::DEAD_FN_ELIM).map(|s| s.changes), Some(1));
        assert!(stats.get(pass::SIMPLIFY_CFG).is_some());
        assert!(!run_pipeline(&mut p.clone(), OptLevel::O0)
            .passes()
            .iter()
            .any(|s| s.runs > 0));
    }

    #[test]
    fn dce_sweeps_dead_phi_cycle() {
        // Regression: a self-sustaining dead φ-cycle. v8/v9 form a
        // loop-carried accumulator whose only users are each other, so
        // the old use-count sweep ("used anywhere") never retired them.
        // The live countdown v3/v4 drives the loop and must survive.
        let mut f = MirFunction {
            name: "phi_cycle".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(0),
                            value: 1,
                        },
                        Inst::Const {
                            dst: VReg(1),
                            value: 0,
                        },
                        Inst::Const {
                            dst: VReg(2),
                            value: 5,
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Phi {
                            dst: VReg(3),
                            args: vec![(BlockId(0), VReg(2)), (BlockId(2), VReg(4))],
                        },
                        Inst::Phi {
                            dst: VReg(8),
                            args: vec![(BlockId(0), VReg(1)), (BlockId(2), VReg(9))],
                        },
                        Inst::Bin {
                            op: BinOp::Gt,
                            dst: VReg(5),
                            lhs: VReg(3),
                            rhs: VReg(1),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(5),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    insts: vec![
                        Inst::Bin {
                            op: BinOp::Sub,
                            dst: VReg(4),
                            lhs: VReg(3),
                            rhs: VReg(0),
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(9),
                            lhs: VReg(8),
                            rhs: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 10,
        };
        assert!(
            dead_code_elim(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "the cycle must be swept"
        );
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                let d = inst.def();
                assert!(
                    d != Some(VReg(8)) && d != Some(VReg(9)),
                    "dead φ-cycle survived: {f}"
                );
            }
        }
        // The live countdown is untouched and the pass is idempotent.
        assert!(f.blocks[1]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Phi { dst, .. } if *dst == VReg(3))));
        assert!(
            !dead_code_elim(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "{f}"
        );
    }

    /// `store [Addr(0,0)] = v0; loads…` scaffolding for the memory-pass
    /// tests: one block, externs keep results observable.
    fn mem_fn(insts: Vec<Inst>, next_vreg: u32) -> MirFunction {
        MirFunction {
            name: "mem".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts,
                term: Term::Ret(None),
            }],
            next_vreg,
        }
    }

    #[test]
    fn store_load_forward_forwards_and_dedups() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 4,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                // Same cell: forwards the stored value.
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                // Disjoint cell (same global, other offset): first load
                // is the oracle, second is redundant.
                Inst::Load {
                    dst: VReg(4),
                    addr: VReg(2),
                },
                Inst::Load {
                    dst: VReg(5),
                    addr: VReg(2),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3), VReg(4), VReg(5)],
                },
            ],
            6,
        );
        assert!(store_load_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(
            f.blocks[0].insts[3],
            Inst::Copy {
                dst: VReg(3),
                src: VReg(0)
            },
            "{f}"
        );
        assert_eq!(
            f.blocks[0].insts[5],
            Inst::Copy {
                dst: VReg(5),
                src: VReg(4)
            },
            "redundant load must copy the first load: {f}"
        );
    }

    #[test]
    fn store_load_forward_clobbers_on_calls_but_not_externs() {
        let build = |clobber: Inst| {
            mem_fn(
                vec![
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    clobber,
                    Inst::Load {
                        dst: VReg(3),
                        addr: VReg(1),
                    },
                    Inst::CallExtern {
                        dst: None,
                        ext: 0,
                        args: vec![VReg(3)],
                    },
                ],
                4,
            )
        };
        // A direct call may store anywhere mutable: no forwarding.
        let mut with_call = build(Inst::Call {
            dst: None,
            func: 1,
            args: vec![],
        });
        assert!(
            !store_load_forward(&mut with_call, &md(), &mut AnalysisCache::new()).any(),
            "{with_call}"
        );
        // An extern passes registers only: the cell survives.
        let mut with_ext = build(Inst::CallExtern {
            dst: None,
            ext: 0,
            args: vec![],
        });
        assert!(
            store_load_forward(&mut with_ext, &md(), &mut AnalysisCache::new()).any(),
            "{with_ext}"
        );
        assert_eq!(
            with_ext.blocks[0].insts[3],
            Inst::Copy {
                dst: VReg(3),
                src: VReg(0)
            },
            "{with_ext}"
        );
    }

    #[test]
    fn store_load_forward_rodata_survives_calls() {
        let program = Program {
            functions: vec![],
            globals: vec![GlobalData {
                name: "tbl".into(),
                size: 4,
                words: vec![Word::Int(7)],
                mutable: false,
            }],
            externs: vec![],
        };
        let model = mem::MemoryModel::of(&program);
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Load {
                    dst: VReg(2),
                    addr: VReg(1),
                },
                Inst::Call {
                    dst: None,
                    func: 1,
                    args: vec![],
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(2), VReg(3)],
                },
            ],
            4,
        );
        assert!(store_load_forward(&mut f, &model, &mut AnalysisCache::new()).any());
        assert_eq!(
            f.blocks[0].insts[3],
            Inst::Copy {
                dst: VReg(3),
                src: VReg(2)
            },
            "rodata cell must survive the call: {f}"
        );
    }

    #[test]
    fn store_load_forward_base_store_invalidates_its_global_only() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                // &g1 + v0: rooted run-time address into global 1.
                Inst::Addr {
                    dst: VReg(2),
                    global: 1,
                    offset: 0,
                },
                Inst::Bin {
                    op: BinOp::Add,
                    dst: VReg(3),
                    lhs: VReg(2),
                    rhs: VReg(0),
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Store {
                    addr: VReg(3),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(4),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(4)],
                },
            ],
            5,
        );
        // The g1-rooted store cannot touch g0's cell: still forwarded.
        assert!(store_load_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(
            f.blocks[0].insts[5],
            Inst::Copy {
                dst: VReg(4),
                src: VReg(0)
            },
            "{f}"
        );
    }

    #[test]
    fn store_load_forward_respects_sub_word_overlap() {
        // store [g0+0]; store [g0+2] (partially overwrites bytes 2..4);
        // load [g0+0] must NOT be forwarded: the EM32 word access is
        // byte-addressed, so offsets less than a word apart alias.
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 2,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Store {
                    addr: VReg(2),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3)],
                },
            ],
            4,
        );
        assert!(
            !store_load_forward(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "sub-word overlapping store must kill the tracked cell: {f}"
        );
    }

    #[test]
    fn dead_store_elim_respects_sub_word_overlap() {
        // store [g0+0]; load [g0+2] (reads bytes 2..4 of the store);
        // store [g0+0]: the first store is observed, not dead.
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 2,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(2),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3)],
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            4,
        );
        assert!(
            !dead_store_elim(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "a partially-read store must survive: {f}"
        );
    }

    #[test]
    fn dead_store_elim_drops_overwritten_unread_stores() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Const {
                    dst: VReg(2),
                    value: 7,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(2),
                }, // dead: overwritten below, never read
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![],
                }, // externs cannot read memory
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            3,
        );
        assert!(dead_store_elim(&mut f, &md(), &mut AnalysisCache::new()).any());
        let stores = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert_eq!(stores, 1, "{f}");
        assert!(
            !dead_store_elim(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "idempotent: {f}"
        );
    }

    #[test]
    fn dead_store_elim_keeps_stores_that_may_be_read() {
        let reader = |r: Inst| {
            mem_fn(
                vec![
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    r,
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                ],
                8,
            )
        };
        // A call may read the cell; a load of the same cell does read it.
        for r in [
            Inst::Call {
                dst: None,
                func: 1,
                args: vec![],
            },
            Inst::Load {
                dst: VReg(7),
                addr: VReg(1),
            },
        ] {
            let mut f = reader(r);
            assert!(
                !dead_store_elim(&mut f, &md(), &mut AnalysisCache::new()).any(),
                "{f}"
            );
        }
        // The final store of a block is never dead (memory escapes).
        let mut tail = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            2,
        );
        assert!(!dead_store_elim(&mut tail, &md(), &mut AnalysisCache::new()).any());
    }

    /// A countdown loop whose body loads `g0[0]` every iteration; with
    /// `store_in_body`, the body also stores to that global.
    /// bb0: a = &g0; store a, v0; Br v0 → bb1 | bb2; both store (or not)
    /// and join in bb3, which loads the cell.
    fn diamond_mem_fn(store_then: Option<i32>, store_else: Option<i32>) -> MirFunction {
        let store_arm = |value: Option<i32>, base: u32| {
            let mut insts = vec![Inst::Addr {
                dst: VReg(base),
                global: 0,
                offset: 0,
            }];
            if let Some(v) = value {
                insts.push(Inst::Const {
                    dst: VReg(base + 1),
                    value: v,
                });
                insts.push(Inst::Store {
                    addr: VReg(base),
                    src: VReg(base + 1),
                });
            }
            insts
        };
        MirFunction {
            name: "diamond".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: store_arm(store_then, 1),
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: store_arm(store_else, 4),
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(7),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(8),
                            addr: VReg(7),
                        },
                    ],
                    term: Term::Ret(Some(VReg(8))),
                },
            ],
            next_vreg: 9,
        }
    }

    fn count_loads(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count()
    }

    fn count_phis(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Phi { .. }))
            .count()
    }

    #[test]
    fn avail_loads_flows_availability_and_kills_at_joins() {
        let f = diamond_mem_fn(Some(1), None);
        let avail = avail_loads(&f, &md(), &mut AnalysisCache::new());
        let cell = (0usize, 0i32);
        assert!(avail.universe().contains(&cell));
        // Stored on the then-arm only: available at its exit, not at the
        // else-arm's, so the join entry set is empty.
        assert!(avail.on_edge(BlockId(1), cell));
        assert!(!avail.on_edge(BlockId(2), cell));
        assert!(!avail.on_entry(BlockId(3)).contains(&cell));
        // Stored on both arms: available on join entry.
        let f2 = diamond_mem_fn(Some(1), Some(2));
        let avail2 = avail_loads(&f2, &md(), &mut AnalysisCache::new());
        assert!(avail2.on_entry(BlockId(3)).contains(&cell));
    }

    #[test]
    fn cross_block_forward_deletes_load_on_straight_line() {
        // store in bb0, load in bb1 (straight line): the load is deleted
        // and the return uses the stored value directly.
        let mut f = MirFunction {
            name: "line".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(cross_block_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 0, "straight line needs no phi: {f}");
        assert_eq!(f.blocks[1].term, Term::Ret(Some(VReg(0))), "{f}");
    }

    #[test]
    fn cross_block_forward_merges_diamond_values_with_phi() {
        let mut f = diamond_mem_fn(Some(1), Some(2));
        assert!(cross_block_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 1, "differing arm values need a phi: {f}");
        let Some(Inst::Phi { dst, args }) = f.blocks[3].insts.first() else {
            panic!("phi must sit at the join head: {f}");
        };
        assert_eq!(args.len(), 2, "{f}");
        assert_eq!(f.blocks[3].term, Term::Ret(Some(*dst)), "{f}");
    }

    #[test]
    fn cross_block_forward_collapses_loop_transparent_value_without_phi() {
        // store in bb0, load in the loop header bb1 whose body never
        // writes the cell: the back-edge value is the entry value, so the
        // loop phi is trivial and the load forwards straight to v0.
        let mut f = MirFunction {
            name: "looped".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(3),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(cross_block_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 0, "trivial loop phi must collapse: {f}");
        assert_eq!(f.blocks[2].term, Term::Ret(Some(VReg(0))), "{f}");
    }

    #[test]
    fn cross_block_forward_respects_call_clobbers() {
        // store in bb0, call in bb0, load in bb1: the call may overwrite
        // the (mutable-by-default) cell, so the load must stay.
        let mut f = MirFunction {
            name: "clob".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                        Inst::Call {
                            dst: None,
                            func: 0,
                            args: vec![],
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(!cross_block_forward(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(count_loads(&f), 1, "{f}");
    }

    #[test]
    fn load_pre_compensates_the_lacking_diamond_arm() {
        // Stored on the then-arm only: PRE inserts the compensating load
        // in the else-arm and phi-merges, deleting the join's load.
        let mut f = diamond_mem_fn(Some(7), None);
        assert!(load_pre(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(count_phis(&f), 1, "{f}");
        assert_eq!(
            f.blocks[2]
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Load { .. }))
                .count(),
            1,
            "compensating load lands in the lacking arm: {f}"
        );
        assert!(
            !f.blocks[3]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Load { .. })),
            "the join's load is gone: {f}"
        );
        // Fully redundant now: a second run has nothing left to do.
        assert!(
            !load_pre(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "{f}"
        );
    }

    #[test]
    fn load_pre_leaves_fully_unavailable_joins_alone() {
        let mut f = diamond_mem_fn(None, None);
        assert!(
            !load_pre(&mut f, &md(), &mut AnalysisCache::new()).any(),
            "{f}"
        );
        assert_eq!(count_loads(&f), 1, "{f}");
    }

    fn load_loop(store_in_body: bool) -> MirFunction {
        let mut body = vec![
            Inst::Addr {
                dst: VReg(4),
                global: 0,
                offset: 0,
            },
            Inst::Load {
                dst: VReg(5),
                addr: VReg(4),
            },
            Inst::CallExtern {
                dst: None,
                ext: 0,
                args: vec![VReg(5)],
            },
            Inst::Bin {
                op: BinOp::Sub,
                dst: VReg(0),
                lhs: VReg(0),
                rhs: VReg(1),
            },
        ];
        if store_in_body {
            body.insert(
                2,
                Inst::Store {
                    addr: VReg(4),
                    src: VReg(0),
                },
            );
        }
        MirFunction {
            name: "ll".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(0),
                            value: 3,
                        },
                        Inst::Const {
                            dst: VReg(1),
                            value: 1,
                        },
                        Inst::Const {
                            dst: VReg(2),
                            value: 0,
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Gt,
                        dst: VReg(3),
                        lhs: VReg(0),
                        rhs: VReg(2),
                    }],
                    term: Term::Br {
                        cond: VReg(3),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    insts: body,
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 6,
        }
    }

    fn loads_in_loop_bodies(f: &MirFunction) -> usize {
        let mut in_loops: BTreeSet<BlockId> = BTreeSet::new();
        for lp in cfg::natural_loops(f) {
            in_loops.extend(lp.body.iter().copied());
        }
        in_loops
            .iter()
            .map(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i, Inst::Load { .. }))
                    .count()
            })
            .sum()
    }

    #[test]
    fn licm_hoists_clobber_free_loads() {
        let mut f = load_loop(false);
        ssa::construct(&mut f, &mut AnalysisCache::new());
        assert!(licm(&mut f, &md(), &mut AnalysisCache::new()).any());
        assert_eq!(
            loads_in_loop_bodies(&f),
            0,
            "the invariant, unclobbered load must leave the loop: {f}"
        );
    }

    #[test]
    fn licm_keeps_loads_the_loop_clobbers() {
        let mut f = load_loop(true);
        ssa::construct(&mut f, &mut AnalysisCache::new());
        licm(&mut f, &md(), &mut AnalysisCache::new());
        assert_eq!(
            loads_in_loop_bodies(&f),
            1,
            "a store to the cell pins the load in the body: {f}"
        );
    }
}
