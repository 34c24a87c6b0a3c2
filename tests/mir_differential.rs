//! Differential tests of the mid-end at the MIR level: randomly built MIR
//! programs — duplicated pure expressions (GVN/CSE fodder), branches and
//! switches with shared or all-equal targets (terminator-folding fodder),
//! latch-guarded back edges (loop fodder for SCCP's executable-edge
//! analysis and LICM's preheader insertion), and `Load`/`Store`/`Addr`
//! mixes over overlapping and disjoint cells of mutable and rodata
//! globals (memory-pass fodder: stores landing in loop bodies, and
//! store/load mixes *across* block boundaries — cross-block forwarding
//! and load-PRE fodder) — must produce the same EM32 extern-call trace
//! at `-O1`/`-O2`/`-Os` as at `-O0`, and under each new pass applied in
//! isolation.
//!
//! Every load's value is emitted through the `emit` extern, so a memory
//! pass that forwards, removes or hoists the wrong thing changes the
//! observable trace. Addresses respect the alias model's in-object
//! contract (offsets stay inside their global; the one run-time index is
//! masked in-bounds), exactly as front-end-lowered code does.
//!
//! The same corpus also holds the two EM32 execution engines to the
//! [`occ::vm`] contract: fast engine and reference oracle must agree on
//! result, extern trace and executed-instruction count at every level,
//! including runs truncated by the fuel budget (identical `OutOfFuel`
//! faults and trace prefixes).
//!
//! The property depth is CI-tunable: `MIR_DIFF_CASES=<n>` overrides the
//! per-property case count (default 96), so the full `ci.sh` gate runs
//! the net deeper than a local `--fast` iteration.
//!
//! In debug builds every property additionally runs the [`occ::verify`]
//! static checker in verify-each mode (forced via
//! [`opt::run_pipeline_with_verify`], independent of the `OCC_VERIFY`
//! knob): a broken invariant panics with the offending pass and round,
//! and proptest then prints the generated program that provoked it — a
//! violation is attributed to a pass *and* to a reproducer case.

use proptest::prelude::*;

use occ::analysis::AnalysisCache;
use occ::mem::MemoryModel;
use occ::mir::{BinOp, Block, GlobalData, Inst, MirFunction, Program, Term, VReg, Word};
use occ::vm::{DecodedProgram, FastVm, Vm};
use occ::{opt, ssa, verify, OptLevel};
use tlang::RecordingEnv;

/// Per-property case count: `MIR_DIFF_CASES` when set (CI's full gate
/// raises it), 96 otherwise.
fn cases() -> u32 {
    std::env::var("MIR_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96)
}

const BIN_OPS: [BinOp; 14] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// Builds a terminating single-function program.
///
/// * Block 0 defines constants, then every op of `ops` **twice** — the
///   duplicates are exactly what GVN/CSE must collapse without changing
///   the trace — and an address pool over three globals (two mutable,
///   one rodata): exact cells that overlap through distinct expressions
///   (`&m0+4` vs `Addr(m0,4)`), disjoint cells, an unaligned cell whose
///   word straddles two aligned ones (sub-word overlap), and one masked
///   run-time index (`&m0 + (v & 12)`), so every [`occ::mem::AddrInfo`]
///   shape is live.
/// * Every block emits its id and a computed value through the `emit`
///   extern, so both the path taken and the values computed are
///   observable. A block's fourth tuple byte may add memory traffic —
///   stores, loads (always emitted), store-then-reload (forwarding
///   fodder), double stores (dead-store fodder), double loads
///   (redundant-load fodder) — which lands inside loop bodies whenever
///   the block is on a cycle.
/// * `pressure > 0` appends a register-pressure cluster to block 0:
///   `pressure` distinct values derived from a load of mutable data (so
///   no level can constant-fold them away), then an extern call, then an
///   emit of every value — all `pressure + 1` values are simultaneously
///   live across the call, driving the allocator's callee-saved
///   save/restore and spill/reload paths.
/// * Non-final terminators cycle through `Goto`, an ordinary `Br`, a
///   `Br` with equal arms, a `Switch` (sometimes with all-equal
///   targets) — the terminator-folding pass must collapse the redundant
///   ones without changing the trace — and a **latch**: a back edge
///   guarded by a shared countdown register, so loops (headers with φs,
///   back edges into the GVN scope, threadable latches) are exercised
///   too. Every cycle passes through a latch and every latch decrements
///   the countdown, so all programs terminate.
fn build_program(
    consts: &[i32],
    ops: &[(u8, u8, u8)],
    blocks: &[(u8, u8, u8, u8)],
    pressure: u8,
) -> Program {
    let nb = blocks.len().max(1);
    let mut defined: Vec<VReg> = Vec::new();
    let mut next = 0u32;
    let mut fresh = || {
        let v = VReg(next);
        next += 1;
        v
    };

    // Block 0: loop budget + constants + duplicated expression chain.
    let mut entry = Vec::new();
    let counter = fresh();
    let zero = fresh();
    let one = fresh();
    entry.push(Inst::Const {
        dst: counter,
        value: 1 + (consts.len() as i32 % 5),
    });
    entry.push(Inst::Const {
        dst: zero,
        value: 0,
    });
    entry.push(Inst::Const { dst: one, value: 1 });
    for &c in consts {
        let dst = fresh();
        entry.push(Inst::Const { dst, value: c });
        defined.push(dst);
    }
    for &(op, a, b) in ops {
        let op = BIN_OPS[op as usize % BIN_OPS.len()];
        let lhs = defined[a as usize % defined.len()];
        let rhs = defined[b as usize % defined.len()];
        for _ in 0..2 {
            let dst = fresh();
            entry.push(Inst::Bin { op, dst, lhs, rhs });
            defined.push(dst);
        }
    }

    // Address pool. Stores go to mutable roots only (the type system
    // would reject a store to `const` data); loads read everything.
    let mut addr = |entry: &mut Vec<Inst>, global: usize, offset: i32| {
        let dst = fresh();
        entry.push(Inst::Addr {
            dst,
            global,
            offset,
        });
        dst
    };
    let m0_0 = addr(&mut entry, 0, 0);
    let m0_4 = addr(&mut entry, 0, 4);
    let m0_8 = addr(&mut entry, 0, 8);
    // Unaligned: the word at bytes [2, 6) straddles the two cells above,
    // exercising the sub-word overlap rule of the alias model.
    let m0_2 = addr(&mut entry, 0, 2);
    let m1_0 = addr(&mut entry, 1, 0);
    let m1_4 = addr(&mut entry, 1, 4);
    let ro_0 = addr(&mut entry, 2, 0);
    let ro_4 = addr(&mut entry, 2, 4);
    // &m0 + 4: the same cell as `m0_4` through a different expression.
    let m0_4b = {
        let four = fresh();
        entry.push(Inst::Const {
            dst: four,
            value: 4,
        });
        let dst = fresh();
        entry.push(Inst::Bin {
            op: BinOp::Add,
            dst,
            lhs: m0_0,
            rhs: four,
        });
        dst
    };
    // &m0 + (v & 12): a rooted run-time index, masked in-bounds.
    let m0_dyn = {
        let mask = fresh();
        entry.push(Inst::Const {
            dst: mask,
            value: 12,
        });
        let masked = fresh();
        entry.push(Inst::Bin {
            op: BinOp::And,
            dst: masked,
            lhs: defined[0],
            rhs: mask,
        });
        let dst = fresh();
        entry.push(Inst::Bin {
            op: BinOp::Add,
            dst,
            lhs: m0_0,
            rhs: masked,
        });
        dst
    };
    let store_pool = [m0_0, m0_4, m0_8, m0_2, m0_4b, m1_0, m1_4, m0_dyn];
    let load_pool = [
        m0_0, m0_4, m0_8, m0_2, m0_4b, m1_0, m1_4, m0_dyn, ro_0, ro_4,
    ];

    // Register-pressure cluster: `pressure` distinct values, all derived
    // from a load of a *mutable* global (so no optimization level can
    // fold them to constants), then an extern call, then an emit of every
    // value. Everything in the cluster is live across the call, so the
    // allocator must combine callee-saved registers and spill slots —
    // and every reload is observable in the trace.
    if pressure > 0 {
        let base = fresh();
        entry.push(Inst::Load {
            dst: base,
            addr: m0_0,
        });
        let mut cluster = Vec::new();
        for k in 0..pressure as i32 {
            let c = fresh();
            entry.push(Inst::Const {
                dst: c,
                value: k + 1,
            });
            let v = fresh();
            entry.push(Inst::Bin {
                op: BinOp::Add,
                dst: v,
                lhs: base,
                rhs: c,
            });
            cluster.push(v);
        }
        let barrier_tag = fresh();
        entry.push(Inst::Const {
            dst: barrier_tag,
            value: 990,
        });
        entry.push(Inst::CallExtern {
            dst: None,
            ext: 0,
            args: vec![barrier_tag, base],
        });
        for (k, &v) in cluster.iter().enumerate() {
            let tag = fresh();
            entry.push(Inst::Const {
                dst: tag,
                value: 900 + k as i32,
            });
            entry.push(Inst::CallExtern {
                dst: None,
                ext: 0,
                args: vec![tag, v],
            });
        }
    }

    let mut mir_blocks: Vec<Block> = Vec::new();
    for (i, &(kind, x, y, m)) in blocks.iter().enumerate() {
        let mut insts = if i == 0 {
            std::mem::take(&mut entry)
        } else {
            Vec::new()
        };
        // Observable: emit(block id, some computed value).
        let marker = fresh();
        insts.push(Inst::Const {
            dst: marker,
            value: i as i32,
        });
        let value = defined[x as usize % defined.len()];
        insts.push(Inst::CallExtern {
            dst: None,
            ext: 0,
            args: vec![marker, value],
        });
        // Memory traffic: every loaded value is emitted, so forwarding,
        // dead-store and hoisting mistakes surface in the trace.
        let sel = (m / 8) as usize;
        let store_at = store_pool[sel % store_pool.len()];
        let load_at = load_pool[sel % load_pool.len()];
        let mut emit_load = |insts: &mut Vec<Inst>, tag: i32, at: VReg| {
            let dst = fresh();
            insts.push(Inst::Load { dst, addr: at });
            let mk = fresh();
            insts.push(Inst::Const {
                dst: mk,
                value: tag,
            });
            insts.push(Inst::CallExtern {
                dst: None,
                ext: 0,
                args: vec![mk, dst],
            });
            dst
        };
        match m % 8 {
            3 => {
                insts.push(Inst::Store {
                    addr: store_at,
                    src: defined[y as usize % defined.len()],
                });
            }
            4 => {
                emit_load(&mut insts, 100 + i as i32, load_at);
            }
            5 => {
                // Store then reload the same cell: forwarding fodder.
                insts.push(Inst::Store {
                    addr: store_at,
                    src: defined[y as usize % defined.len()],
                });
                emit_load(&mut insts, 100 + i as i32, store_at);
            }
            6 => {
                // Overwrite before any read: dead-store fodder.
                insts.push(Inst::Store {
                    addr: store_at,
                    src: defined[x as usize % defined.len()],
                });
                insts.push(Inst::Store {
                    addr: store_at,
                    src: defined[y as usize % defined.len()],
                });
                emit_load(&mut insts, 100 + i as i32, store_at);
            }
            7 => {
                // Load the same cell twice: redundant-load fodder.
                emit_load(&mut insts, 100 + i as i32, load_at);
                emit_load(&mut insts, 200 + i as i32, load_at);
            }
            _ => {}
        }
        let term = if i + 1 >= nb {
            Term::Ret(None)
        } else {
            let pick = |sel: u8| occ::mir::BlockId((i + 1 + (sel as usize) % (nb - 1 - i)) as u32);
            match kind % 5 {
                0 => Term::Goto(pick(x)),
                1 => Term::Br {
                    cond: defined[y as usize % defined.len()],
                    then_block: pick(x),
                    else_block: pick(y),
                },
                2 => Term::Br {
                    cond: defined[y as usize % defined.len()],
                    then_block: pick(x),
                    else_block: pick(x),
                },
                3 => {
                    let d = pick(y);
                    let all_equal = x % 2 == 0;
                    let case_target = |sel: u8| if all_equal { d } else { pick(sel) };
                    Term::Switch {
                        val: defined[x as usize % defined.len()],
                        cases: vec![
                            (0, case_target(x)),
                            (1, case_target(y)),
                            (2, case_target(x.wrapping_add(y))),
                        ],
                        default: d,
                    }
                }
                _ if i == 0 => Term::Goto(pick(x)),
                _ => {
                    // Latch: counter -= 1; if counter > 0 jump back. Back
                    // targets start at block 1 — jumping back into the
                    // entry would re-initialize the countdown and loop
                    // forever.
                    insts.push(Inst::Bin {
                        op: BinOp::Sub,
                        dst: counter,
                        lhs: counter,
                        rhs: one,
                    });
                    let again = fresh();
                    insts.push(Inst::Bin {
                        op: BinOp::Gt,
                        dst: again,
                        lhs: counter,
                        rhs: zero,
                    });
                    Term::Br {
                        cond: again,
                        then_block: occ::mir::BlockId((1 + x as usize % i) as u32),
                        else_block: pick(y),
                    }
                }
            }
        };
        mir_blocks.push(Block { insts, term });
    }

    Program {
        functions: vec![MirFunction {
            name: "main".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: mir_blocks,
            next_vreg: next,
        }],
        globals: vec![
            GlobalData {
                name: "m0".into(),
                size: 16,
                words: vec![Word::Int(1), Word::Int(2), Word::Int(3), Word::Int(4)],
                mutable: true,
            },
            GlobalData {
                name: "m1".into(),
                size: 8,
                words: vec![Word::Int(5), Word::Int(6)],
                mutable: true,
            },
            GlobalData {
                name: "ro".into(),
                size: 8,
                words: vec![Word::Int(7), Word::Int(11)],
                mutable: false,
            },
        ],
        externs: vec!["emit".into()],
    }
}

/// Runs `program` through the mid-end at `level`, compiles it, executes it
/// on the EM32 VM and returns the extern-call trace.
fn trace_at(program: &Program, level: OptLevel) -> Vec<(String, Vec<i32>)> {
    let mut p = program.clone();
    opt::run_pipeline_with_verify(&mut p, level, opt::VerifyMode::Each);
    let asm = occ::backend::compile_program(&p, level).expect("compiles");
    let mut vm = Vm::new(&asm, RecordingEnv::new());
    vm.run("main", &[]).expect("runs");
    vm.into_env().calls
}

/// Applies exactly the given SSA passes (plus the SSA round trip) and
/// returns the resulting trace at `-O0` code generation. Every step
/// shares one [`AnalysisCache`] per function, invalidated by the class
/// each step reports — as the pass manager does — and after every pass
/// each cached analysis must equal a fresh computation (in release
/// builds too).
fn trace_with_passes(program: &Program, passes: &[opt::SsaPass]) -> Vec<(String, Vec<i32>)> {
    let mut p = program.clone();
    let model = MemoryModel::of(&p);
    for f in &mut p.functions {
        let mut cache = AnalysisCache::new();
        let changed = opt::simplify_cfg(f, &mut cache);
        cache.invalidate(changed);
        let changed = ssa::construct(f, &mut cache);
        cache.invalidate(changed);
        for (i, pass) in passes.iter().enumerate() {
            let changed = pass(f, &model, &mut cache);
            cache.invalidate(changed);
            let stale = cache.stale(f, &model);
            assert!(
                stale.is_empty(),
                "pass #{i} left stale analyses {stale:?} after reporting {changed:?} in `{}`",
                f.name
            );
            if cfg!(debug_assertions) {
                let mut vs = verify::verify_function(f, verify::Tier::Ssa);
                vs.extend(verify::verify_memory(f, &model));
                assert!(
                    vs.is_empty(),
                    "pass #{i} broke an invariant in `{}`:{}",
                    f.name,
                    verify::report(&vs)
                );
            }
        }
        ssa::destruct(f);
        opt::simplify_cfg(f, &mut AnalysisCache::new());
    }
    let asm = occ::backend::compile_program(&p, OptLevel::O0).expect("compiles");
    let mut vm = Vm::new(&asm, RecordingEnv::new());
    vm.run("main", &[]).expect("runs");
    vm.into_env().calls
}

/// Every SSA pass under its reporting name, for randomly composed
/// rosters.
const SSA_PASSES: [(&str, opt::SsaPass); 11] = [
    (opt::pass::SCCP, opt::sccp),
    (opt::pass::CONST_FOLD, opt::constant_fold),
    (opt::pass::COPY_PROP, opt::copy_propagate),
    (opt::pass::GVN_CSE, opt::gvn_cse),
    (opt::pass::STORE_LOAD_FWD, opt::store_load_forward),
    (opt::pass::CROSS_LOAD_FWD, opt::cross_block_forward),
    (opt::pass::LOAD_PRE, opt::load_pre),
    (opt::pass::DSE, opt::dead_store_elim),
    (opt::pass::LICM, opt::licm),
    (opt::pass::TERM_FOLD, opt::fold_terminators),
    (opt::pass::DCE, opt::dead_code_elim),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random rosters through the pass manager: any sequence of SSA
    /// passes (repeats allowed), any outer-round count, with or without
    /// the φ-free post passes, preserves the trace. Verify-each is forced,
    /// so in debug builds the manager checks after every step that each
    /// cached analysis equals a fresh computation and that a step
    /// reporting no change left the function untouched. The same sequence
    /// driven by hand through `trace_with_passes` checks cache freshness
    /// after every pass in every build profile.
    #[test]
    fn cached_analyses_stay_fresh_under_random_rosters(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
        roster in prop::collection::vec(0usize..SSA_PASSES.len(), 1..10),
        rounds in 1usize..4,
        post in any::<bool>(),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let mut pm = opt::PassManager::new()
            .with_outer_rounds(rounds)
            .with_verify(opt::VerifyMode::Each);
        for &i in &roster {
            let (name, pass) = SSA_PASSES[i];
            pm.register(name, pass);
        }
        if post {
            pm.register_post(opt::pass::COPY_COALESCE, opt::coalesce_copies)
                .register_post(opt::pass::TAIL_MERGE, opt::merge_return_blocks);
        }
        let mut p = program.clone();
        pm.run_program(&mut p);
        let asm = occ::backend::compile_program(&p, OptLevel::O0).expect("compiles");
        let mut vm = Vm::new(&asm, RecordingEnv::new());
        vm.run("main", &[]).expect("runs");
        let names: Vec<&str> = roster.iter().map(|&i| SSA_PASSES[i].0).collect();
        prop_assert_eq!(&vm.into_env().calls, &oracle, "roster {:?} diverges", names);
        let passes: Vec<opt::SsaPass> = roster.iter().map(|&i| SSA_PASSES[i].1).collect();
        let got = trace_with_passes(&program, &passes);
        prop_assert_eq!(&got, &oracle, "hand-driven roster {:?} diverges", names);
    }

    /// The whole pipeline preserves the trace at every level.
    #[test]
    fn pipeline_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..6),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        prop_assert!(!oracle.is_empty(), "every program emits at least once");
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::Os] {
            let got = trace_at(&program, level);
            prop_assert_eq!(&got, &oracle, "{} diverges from -O0", level);
        }
    }

    /// High register pressure across a call preserves the trace at every
    /// level: the pressure cluster keeps ≥ 10 unfoldable values
    /// simultaneously live across a `CallExtern`, so the allocator's
    /// callee-saved selection, spill-slot assignment and reload insertion
    /// all land on the execution path — any misplaced spill or clobbered
    /// register changes the emitted values.
    #[test]
    fn register_pressure_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        pressure in 10u8..16,
    ) {
        let program = build_program(&consts, &ops, &blocks, pressure);
        let oracle = trace_at(&program, OptLevel::O0);
        prop_assert!(!oracle.is_empty(), "every program emits at least once");
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::Os] {
            let got = trace_at(&program, level);
            prop_assert_eq!(&got, &oracle, "{} diverges from -O0 under pressure", level);
        }
    }

    /// GVN/CSE alone preserves the trace.
    #[test]
    fn gvn_cse_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..6),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::gvn_cse]);
        prop_assert_eq!(&got, &oracle, "gvn_cse diverges");
        // With cleanup passes stacked on top it still agrees.
        let cleaned = trace_with_passes(
            &program,
            &[opt::gvn_cse, opt::copy_propagate, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "gvn_cse + cleanup diverges");
    }

    /// Terminator folding / jump threading alone preserves the trace.
    #[test]
    fn fold_terminators_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::fold_terminators]);
        prop_assert_eq!(&got, &oracle, "fold_terminators diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::fold_terminators, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "fold_terminators + dce diverges");
    }

    /// SCCP alone preserves the trace — the generated programs fold
    /// entirely to constants (all leaves are `Const`s), so this drives
    /// the executable-edge analysis through every terminator shape,
    /// including back edges.
    #[test]
    fn sccp_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..6),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::sccp]);
        prop_assert_eq!(&got, &oracle, "sccp diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::sccp, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "sccp + dce diverges");
    }

    /// LICM alone preserves the trace — the latch-guarded back edges of
    /// `build_program` give it headers with φs, multi-entry headers after
    /// branchy prefixes, and loop bodies full of movable pure ops.
    #[test]
    fn licm_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..6),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::licm]);
        prop_assert_eq!(&got, &oracle, "licm diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::licm, opt::gvn_cse, opt::copy_propagate, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "licm + cleanup diverges");
    }

    /// The φ-free copy coalescer and return-block merger preserve the
    /// trace when stacked on the SSA round trip (they run post-destruct
    /// in the real pipeline; `trace_with_passes` destructs afterwards,
    /// which also proves they tolerate SSA form).
    #[test]
    fn phi_free_cleanups_preserve_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::coalesce_copies]);
        prop_assert_eq!(&got, &oracle, "coalesce_copies diverges");
        let merged = trace_with_passes(&program, &[opt::merge_return_blocks]);
        prop_assert_eq!(&merged, &oracle, "merge_return_blocks diverges");
    }

    /// Store-to-load forwarding / redundant-load elimination alone
    /// preserves the trace — the memory blocks store and reload
    /// overlapping cells through distinct address expressions, so the
    /// alias resolution (exact cells, rooted run-time indices, rodata)
    /// is what is on trial here.
    #[test]
    fn store_load_forward_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::store_load_forward]);
        prop_assert_eq!(&got, &oracle, "store_load_forward diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::store_load_forward, opt::copy_propagate, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "store_load_forward + cleanup diverges");
    }

    /// Dead-store elimination alone preserves the trace — the
    /// double-store blocks are its fodder; every cell's final content is
    /// observed through emitted loads.
    #[test]
    fn dead_store_elim_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::dead_store_elim]);
        prop_assert_eq!(&got, &oracle, "dead_store_elim diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::dead_store_elim, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "dead_store_elim + dce diverges");
    }

    /// Cross-block store-to-load forwarding alone preserves the trace —
    /// the generated blocks store and reload overlapping cells across
    /// branch, switch and latch edges, so the availability dataflow
    /// (loop-transparent cells included) and the φ threading at joins
    /// are what is on trial here.
    #[test]
    fn cross_block_forward_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::cross_block_forward]);
        prop_assert_eq!(&got, &oracle, "cross_block_forward diverges");
        let cleaned = trace_with_passes(
            &program,
            &[opt::cross_block_forward, opt::copy_propagate, opt::dead_code_elim],
        );
        prop_assert_eq!(&cleaned, &oracle, "cross_block_forward + cleanup diverges");
    }

    /// Load partial-redundancy elimination alone preserves the trace —
    /// its speculative compensating loads must read the same cell the
    /// deleted join load would have, on every path.
    #[test]
    fn load_pre_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(&program, &[opt::load_pre]);
        prop_assert_eq!(&got, &oracle, "load_pre diverges");
        // PRE makes the join load fully redundant; cross-block forwarding
        // stacked on top must agree too.
        let stacked = trace_with_passes(
            &program,
            &[opt::load_pre, opt::cross_block_forward, opt::dead_code_elim],
        );
        prop_assert_eq!(&stacked, &oracle, "load_pre + cross_block_forward diverges");
    }

    /// The whole memory family stacked — load-hoisting LICM over blocks
    /// whose loops store to the very globals being read, then block-local
    /// and cross-block forwarding, PRE and dead-store elimination, then
    /// cleanup — preserves the trace.
    #[test]
    fn memory_pass_family_preserves_em32_trace(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        let oracle = trace_at(&program, OptLevel::O0);
        let got = trace_with_passes(
            &program,
            &[
                opt::licm,
                opt::store_load_forward,
                opt::cross_block_forward,
                opt::load_pre,
                opt::dead_store_elim,
                opt::gvn_cse,
                opt::copy_propagate,
                opt::dead_code_elim,
            ],
        );
        prop_assert_eq!(&got, &oracle, "memory pass family diverges");
    }

    /// The two EM32 execution engines agree on every generated program at
    /// every level — the [`occ::vm`] two-engine contract under the same
    /// corpus that exercises the mid-end. The fast engine's pre-decode
    /// (branch pre-resolution, superinstruction fusion, `r0`-write
    /// erasure) must be invisible: same return value, same extern-call
    /// trace, same executed-instruction count. And it must stay invisible
    /// when the fuel budget truncates the run mid-way: both engines fault
    /// with `OutOfFuel` at the same instruction boundary — probe points
    /// land inside fused pairs, where the fast engine re-checks fuel
    /// between the two halves — with identical trace prefixes.
    #[test]
    fn engines_agree_on_generated_mir(
        consts in prop::collection::vec(-8i32..8, 2..5),
        ops in prop::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..4),
        blocks in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let program = build_program(&consts, &ops, &blocks, 0);
        for level in OptLevel::all() {
            let mut p = program.clone();
            opt::run_pipeline_with_verify(&mut p, level, opt::VerifyMode::Each);
            let asm = occ::backend::compile_program(&p, level).expect("compiles");
            let decoded = DecodedProgram::decode(&asm).expect("decodes");

            let mut oracle = Vm::new(&asm, RecordingEnv::new());
            let want = oracle.run("main", &[]);
            prop_assert!(want.is_ok(), "{} oracle faults: {:?}", level, want);
            let total = oracle.executed();
            let mut fast = FastVm::new(&decoded, RecordingEnv::new());
            let got = fast.run("main", &[]);
            prop_assert_eq!(&got, &want, "{} engines disagree on result", level);
            prop_assert_eq!(
                fast.executed(),
                total,
                "{} executed-instruction counts diverge",
                level
            );
            prop_assert_eq!(
                fast.into_env().calls,
                oracle.into_env().calls,
                "{} extern traces diverge",
                level
            );

            // Truncated budgets: both engines must exhaust the budget at
            // the same instruction, with identical trace prefixes.
            for budget in [0, 1, total / 3, total / 2, total - 1] {
                let mut oracle = Vm::new(&asm, RecordingEnv::new()).with_fuel(budget);
                let want = oracle.run("main", &[]);
                prop_assert_eq!(
                    &want,
                    &Err(occ::vm::VmError::OutOfFuel),
                    "{} oracle should run out at budget {}",
                    level,
                    budget
                );
                let mut fast = FastVm::new(&decoded, RecordingEnv::new()).with_fuel(budget);
                let got = fast.run("main", &[]);
                prop_assert_eq!(&got, &want, "{} fault kinds diverge at budget {}", level, budget);
                prop_assert_eq!(
                    fast.executed(),
                    oracle.executed(),
                    "{} truncated counts diverge at budget {}",
                    level,
                    budget
                );
                prop_assert_eq!(
                    fast.into_env().calls,
                    oracle.into_env().calls,
                    "{} truncated traces diverge at budget {}",
                    level,
                    budget
                );
            }
        }
    }
}

/// The env knob parses and has the documented default.
#[test]
fn mir_diff_cases_env_default() {
    if std::env::var("MIR_DIFF_CASES").is_err() {
        assert_eq!(cases(), 96);
    } else {
        assert!(cases() > 0, "MIR_DIFF_CASES must parse to a positive count");
    }
}
