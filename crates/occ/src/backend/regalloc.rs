//! Stage 2: liveness-range register allocation over virtual registers.
//!
//! Replaces the old spill-the-latest scan with a linear scan over
//! **live ranges** built from block-level liveness
//! ([`cfg::solve_liveness`]) refined to instruction positions. Every
//! instruction occupies two positions — uses (and early-defs) read at
//! `2i`, defs write at `2i+1` — so a value dying at an instruction's use
//! can share a register with that instruction's result, while an
//! early-def cannot.
//!
//! Key properties over the old allocator:
//!
//! - **Caller-saved `r1..r4` are allocatable.** A range is only barred
//!   from a register that some call *inside* the range clobbers, so
//!   call-free ranges (and ranges crossing only `Ecall`s that leave the
//!   register alone) use the four caller-saved registers before touching
//!   callee-saved ones.
//! - **Cost-driven spilling.** When no register is free the allocator
//!   evicts the cheapest active range — cost is use/def count weighted by
//!   `1 + 3·loop_depth` (from [`cfg::natural_loops`] captured at
//!   lowering) divided by range length — instead of whatever was
//!   touched least recently.
//! - **Spill code per use/def.** A spilled range reloads into a scratch
//!   register at each use and stores after each def; nothing routes every
//!   access through globally reserved scratches.
//! - **Calling convention by rewriting.** Fixed-register operands
//!   (call arguments/results, returned values) are satisfied here with
//!   parallel-move resolution (cycle-breaking through `r13`), then the
//!   call pseudo-ops collapse to their physical form.

use std::collections::{BTreeMap, BTreeSet};

use super::vcode::{Constraint, EmInst, OpKind, Reg, VCode, VTerm};
use super::{
    is_callee_saved, RegAllocStats, ALLOC_REGS, ARG_REGS, RET_REG, SCRATCH0, SCRATCH1, SP,
};
use crate::cfg;
use crate::dense::DenseSet;
use crate::mir::{BinOp, VReg};

/// Caller-saved probe order: keep `r1` last so it stays free for result
/// forwarding unless a hint asks for it.
const CALLER_ORDER: [u8; 4] = [2, 3, 4, 1];

/// Where a virtual register lives for its whole range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// A physical register.
    Reg(u8),
    /// A stack slot (word index within the spill area).
    Slot(usize),
}

/// The allocator's summary, consumed by the verifier and the emitter.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Callee-saved registers in use, in prologue save order.
    pub saved: Vec<u8>,
    /// Allocation-quality counters for the size ledger.
    pub stats: RegAllocStats,
}

/// One contiguous live range (conservative over the linear block order).
#[derive(Debug, Clone)]
struct Range {
    vreg: VReg,
    start: u32,
    end: u32,
    /// Loop-depth-weighted use/def occurrence count.
    weight_sum: f64,
}

impl Range {
    fn weight(&self) -> f64 {
        self.weight_sum / f64::from(self.end - self.start + 1)
    }
}

/// Allocates `vc` in place: after this call every operand is physical,
/// spill and calling-convention code is explicit, and each block with a
/// `Ret` terminator carries its epilogue.
pub fn allocate(vc: &mut VCode) -> Allocation {
    let intervals = build_ranges(vc);
    let (loc, saved, slots) = scan(&intervals);
    let spill_bytes = rewrite(vc, &loc, &saved, slots);
    Allocation {
        stats: RegAllocStats {
            spill_slots: slots,
            saved_regs: saved.len(),
            spill_bytes,
        },
        saved,
    }
}

struct Intervals {
    ranges: Vec<Range>,
    /// `(use-position, clobber mask)` per call instruction.
    calls: Vec<(u32, u16)>,
    /// Strong register preferences (fixed-def constraints, parameters).
    hint_def: BTreeMap<VReg, u8>,
    /// Weak preferences (fixed-use constraints).
    hint_use: BTreeMap<VReg, u8>,
}

fn build_ranges(vc: &VCode) -> Intervals {
    let n = vc.blocks.len();
    // Block-level liveness over virtual registers.
    let mut use_set = vec![DenseSet::with_capacity(vc.next_vreg as usize); n];
    let mut def_set = vec![DenseSet::with_capacity(vc.next_vreg as usize); n];
    let mut succs = Vec::with_capacity(n);
    for (bi, block) in vc.blocks.iter().enumerate() {
        for ops in block
            .insts
            .iter()
            .map(EmInst::operands)
            .chain(std::iter::once(block.term.operands()))
        {
            for op in ops {
                let Reg::Virt(v) = op.reg else { continue };
                match op.kind {
                    OpKind::Use => {
                        if !def_set[bi].contains(v) {
                            use_set[bi].insert(v);
                        }
                    }
                    OpKind::Def | OpKind::EarlyDef => {
                        def_set[bi].insert(v);
                    }
                }
            }
        }
        succs.push(block.term.succs());
    }
    let live = cfg::solve_liveness(&succs, &use_set, &def_set);

    // Instruction numbering: position 0 belongs to the parameters, each
    // instruction i reads at 2i and writes at 2i+1.
    let mut ranges: BTreeMap<VReg, Range> = BTreeMap::new();
    let touch = |map: &mut BTreeMap<VReg, Range>, v: VReg, pos: u32| {
        let r = map.entry(v).or_insert(Range {
            vreg: v,
            start: pos,
            end: pos,
            weight_sum: 0.0,
        });
        r.start = r.start.min(pos);
        r.end = r.end.max(pos);
    };
    let mut calls = Vec::new();
    let mut hint_def = BTreeMap::new();
    let mut hint_use = BTreeMap::new();
    let mut idx = 1u32;
    for (bi, block) in vc.blocks.iter().enumerate() {
        let depth_weight = 1.0 + 3.0 * f64::from(block.loop_depth);
        let first_pos = 2 * idx;
        for v in live.live_in[bi].iter() {
            touch(&mut ranges, v, first_pos);
        }
        let inst_ops = block
            .insts
            .iter()
            .map(|i| (i.operands(), i.clobbers()))
            .chain(std::iter::once((block.term.operands(), Vec::new())));
        for (ops, clobbers) in inst_ops {
            let use_pos = 2 * idx;
            let def_pos = 2 * idx + 1;
            for op in ops {
                if let Constraint::Fixed(p) = op.constraint {
                    if let Reg::Virt(v) = op.reg {
                        match op.kind {
                            OpKind::Use => {
                                hint_use.entry(v).or_insert(p);
                            }
                            OpKind::Def | OpKind::EarlyDef => {
                                hint_def.entry(v).or_insert(p);
                            }
                        }
                    }
                }
                let Reg::Virt(v) = op.reg else { continue };
                let pos = match op.kind {
                    OpKind::Use | OpKind::EarlyDef => use_pos,
                    OpKind::Def => def_pos,
                };
                touch(&mut ranges, v, pos);
                ranges.get_mut(&v).expect("just touched").weight_sum += depth_weight;
            }
            if !clobbers.is_empty() {
                let mut mask = 0u16;
                for c in clobbers {
                    mask |= 1 << c;
                }
                calls.push((use_pos, mask));
            }
            idx += 1;
        }
        let block_end = 2 * (idx - 1) + 1;
        for v in live.live_out[bi].iter() {
            touch(&mut ranges, v, block_end);
        }
    }
    // Parameters are defined at position 0 in ARG_REGS order; dead
    // parameters (no occurrences at all) get no range and no move.
    for (i, p) in vc.params.iter().enumerate() {
        if ranges.contains_key(p) {
            touch(&mut ranges, *p, 0);
            hint_def.entry(*p).or_insert(ARG_REGS[i]);
        }
    }
    Intervals {
        ranges: ranges.into_values().collect(),
        calls,
        hint_def,
        hint_use,
    }
}

fn scan(iv: &Intervals) -> (BTreeMap<VReg, Loc>, Vec<u8>, usize) {
    let mut order: Vec<&Range> = iv.ranges.iter().collect();
    order.sort_by_key(|r| (r.start, r.vreg));
    let mut active: Vec<(u32, u8, VReg, f64)> = Vec::new(); // (end, phys, vreg, weight)
    let mut loc: BTreeMap<VReg, Loc> = BTreeMap::new();
    let mut saved: Vec<u8> = Vec::new();
    let mut slots = 0usize;
    for r in order {
        active.retain(|(end, ..)| *end >= r.start);
        let mut forbidden = 0u16;
        for (cp, mask) in &iv.calls {
            if r.start < *cp && r.end > *cp {
                forbidden |= mask;
            }
        }
        let mut in_use = 0u16;
        for (_, p, ..) in &active {
            in_use |= 1 << p;
        }
        let ok = |p: u8| forbidden & (1 << p) == 0;
        let free = |p: u8| in_use & (1 << p) == 0;

        let mut candidates: Vec<u8> = Vec::new();
        candidates.extend(iv.hint_def.get(&r.vreg));
        candidates.extend(iv.hint_use.get(&r.vreg));
        candidates.extend(CALLER_ORDER);
        let mut used_callee: Vec<u8> = saved.clone();
        used_callee.sort_unstable();
        candidates.extend(used_callee);
        candidates.extend(ALLOC_REGS.iter().filter(|p| !saved.contains(p)));

        if let Some(p) = candidates.into_iter().find(|p| ok(*p) && free(*p)) {
            if is_callee_saved(p) && !saved.contains(&p) {
                saved.push(p);
            }
            loc.insert(r.vreg, Loc::Reg(p));
            active.push((r.end, p, r.vreg, r.weight()));
            continue;
        }
        // Nothing free: evict the cheapest active range holding an
        // acceptable register, unless this range is cheaper itself.
        let victim = active
            .iter()
            .enumerate()
            .filter(|(_, (_, p, ..))| ok(*p))
            .min_by(|(_, a), (_, b)| a.3.total_cmp(&b.3))
            .map(|(i, _)| i);
        match victim {
            Some(i) if active[i].3 < r.weight() => {
                let (_, p, evicted, _) = active.swap_remove(i);
                loc.insert(evicted, Loc::Slot(slots));
                slots += 1;
                loc.insert(r.vreg, Loc::Reg(p));
                active.push((r.end, p, r.vreg, r.weight()));
            }
            _ => {
                loc.insert(r.vreg, Loc::Slot(slots));
                slots += 1;
            }
        }
    }
    (loc, saved, slots)
}

/// A pending parallel-move source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Reg(u8),
    Slot(i32),
}

struct Rewriter<'a> {
    loc: &'a BTreeMap<VReg, Loc>,
    saved: &'a [u8],
    frame: i32,
    spill_bytes: usize,
}

impl Rewriter<'_> {
    fn slot_off(&self, slot: usize) -> i32 {
        ((self.saved.len() + slot) * 4) as i32
    }

    fn loc_of(&self, r: Reg) -> Loc {
        match r {
            Reg::Phys(p) => Loc::Reg(p),
            Reg::Virt(v) => *self.loc.get(&v).expect("every occurring vreg has a range"),
        }
    }

    fn load_slot(&mut self, rd: u8, slot: usize, out: &mut Vec<EmInst>) {
        out.push(EmInst::Lw {
            rd: Reg::Phys(rd),
            base: Reg::Phys(SP),
            off: self.slot_off(slot),
        });
        self.spill_bytes += 4;
    }

    fn store_slot(&mut self, src: u8, slot: usize, out: &mut Vec<EmInst>) {
        out.push(EmInst::Sw {
            src: Reg::Phys(src),
            base: Reg::Phys(SP),
            off: self.slot_off(slot),
        });
        self.spill_bytes += 4;
    }

    /// Rewrites one straight-line (non-call) instruction: reloads spilled
    /// uses into scratches, routes a spilled def through `r12`.
    fn rewrite_simple(&mut self, inst: &EmInst, out: &mut Vec<EmInst>) {
        let mut scratch_iter = [SCRATCH0, SCRATCH1].into_iter();
        let mut reloaded: BTreeMap<Reg, u8> = BTreeMap::new();
        let mut uses = Vec::new();
        let mut def_store = None;
        // Resolve operands first (emitting reloads), then map fields.
        for op in inst.operands() {
            match op.kind {
                OpKind::Use => match self.loc_of(op.reg) {
                    Loc::Reg(p) => {
                        uses.push((op.reg, p));
                    }
                    Loc::Slot(_) => {
                        let p = *reloaded.entry(op.reg).or_insert_with(|| {
                            scratch_iter.next().expect("at most two spilled uses")
                        });
                        uses.push((op.reg, p));
                    }
                },
                OpKind::Def | OpKind::EarlyDef => match self.loc_of(op.reg) {
                    Loc::Reg(p) => def_store = Some((p, None)),
                    Loc::Slot(s) => def_store = Some((SCRATCH0, Some(s))),
                },
            }
        }
        // Emit the reloads (deduplicated by operand register).
        let mut done: BTreeSet<Reg> = BTreeSet::new();
        for op in inst.operands() {
            if op.kind != OpKind::Use {
                continue;
            }
            if let Loc::Slot(s) = self.loc_of(op.reg) {
                if done.insert(op.reg) {
                    let p = reloaded[&op.reg];
                    self.load_slot(p, s, out);
                }
            }
        }
        let map_use = |r: Reg, uses: &[(Reg, u8)]| -> Reg {
            let p = uses
                .iter()
                .find(|(orig, _)| *orig == r)
                .expect("use operand was resolved")
                .1;
            Reg::Phys(p)
        };
        let map_def =
            |_r: Reg| -> Reg { Reg::Phys(def_store.expect("def operand was resolved").0) };
        let rewritten = match inst.clone() {
            EmInst::Li { rd, imm } => EmInst::Li {
                rd: map_def(rd),
                imm,
            },
            EmInst::Mv { rd, rs } => EmInst::Mv {
                rd: map_def(rd),
                rs: map_use(rs, &uses),
            },
            EmInst::Alu { op, rd, rs1, rs2 } => EmInst::Alu {
                op,
                rd: map_def(rd),
                rs1: map_use(rs1, &uses),
                rs2: map_use(rs2, &uses),
            },
            EmInst::Lw { rd, base, off } => EmInst::Lw {
                rd: map_def(rd),
                base: map_use(base, &uses),
                off,
            },
            EmInst::Sw { src, base, off } => EmInst::Sw {
                src: map_use(src, &uses),
                base: map_use(base, &uses),
                off,
            },
            EmInst::La { rd, global, off } => EmInst::La {
                rd: map_def(rd),
                global,
                off,
            },
            EmInst::LaFn { rd, func } => EmInst::LaFn {
                rd: map_def(rd),
                func,
            },
            call @ (EmInst::Jal { .. } | EmInst::Jalr { .. } | EmInst::Ecall { .. }) => {
                unreachable!("calls are rewritten by rewrite_call: {call:?}")
            }
        };
        out.push(rewritten);
        if let Some((p, Some(slot))) = def_store {
            self.store_slot(p, slot, out);
        }
    }

    /// Emits a parallel move set: register-to-register moves plus slot
    /// reloads, in an order that never overwrites a still-needed source;
    /// cycles break through `r13`.
    fn resolve_moves(&mut self, mut pending: Vec<(u8, Src)>, out: &mut Vec<EmInst>) {
        pending.retain(|(d, s)| *s != Src::Reg(*d));
        while !pending.is_empty() {
            let ready = pending
                .iter()
                .position(|(d, _)| !pending.iter().any(|(_, s)| *s == Src::Reg(*d)));
            match ready {
                Some(i) => {
                    let (d, s) = pending.remove(i);
                    match s {
                        Src::Reg(p) => out.push(EmInst::Mv {
                            rd: Reg::Phys(d),
                            rs: Reg::Phys(p),
                        }),
                        Src::Slot(off) => {
                            out.push(EmInst::Lw {
                                rd: Reg::Phys(d),
                                base: Reg::Phys(SP),
                                off,
                            });
                            self.spill_bytes += 4;
                        }
                    }
                }
                None => {
                    // Every pending destination is also a pending source:
                    // a register cycle. Park one source in the scratch.
                    let Src::Reg(r) = pending[0].1 else {
                        unreachable!("slot sources never block a move")
                    };
                    out.push(EmInst::Mv {
                        rd: Reg::Phys(SCRATCH1),
                        rs: Reg::Phys(r),
                    });
                    for (_, s) in &mut pending {
                        if *s == Src::Reg(r) {
                            *s = Src::Reg(SCRATCH1);
                        }
                    }
                }
            }
        }
    }

    fn arg_moves(&mut self, args: &[Reg]) -> Vec<(u8, Src)> {
        args.iter()
            .enumerate()
            .map(|(i, a)| {
                let src = match self.loc_of(*a) {
                    Loc::Reg(p) => Src::Reg(p),
                    Loc::Slot(s) => Src::Slot(self.slot_off(s)),
                };
                (ARG_REGS[i], src)
            })
            .collect()
    }

    fn store_ret(&mut self, ret: Option<Reg>, out: &mut Vec<EmInst>) {
        let Some(r) = ret else { return };
        match self.loc_of(r) {
            Loc::Reg(p) => {
                if p != RET_REG {
                    out.push(EmInst::Mv {
                        rd: Reg::Phys(p),
                        rs: Reg::Phys(RET_REG),
                    });
                }
            }
            Loc::Slot(s) => self.store_slot(RET_REG, s, out),
        }
    }

    fn rewrite_call(&mut self, inst: &EmInst, out: &mut Vec<EmInst>) {
        match inst.clone() {
            EmInst::Jal { func, args, ret } => {
                let moves = self.arg_moves(&args);
                self.resolve_moves(moves, out);
                out.push(EmInst::Jal {
                    func,
                    args: (0..args.len()).map(|i| Reg::Phys(ARG_REGS[i])).collect(),
                    ret: ret.map(|_| Reg::Phys(RET_REG)),
                });
                self.store_ret(ret, out);
            }
            EmInst::Ecall { ext, args, ret } => {
                let moves = self.arg_moves(&args);
                self.resolve_moves(moves, out);
                out.push(EmInst::Ecall {
                    ext,
                    args: (0..args.len()).map(|i| Reg::Phys(ARG_REGS[i])).collect(),
                    ret: ret.map(|_| Reg::Phys(RET_REG)),
                });
                self.store_ret(ret, out);
            }
            EmInst::Jalr { ptr, args, ret } => {
                let mut moves = self.arg_moves(&args);
                // The target address must survive the argument moves: any
                // register outside the written ARG_REGS prefix does, a
                // spilled or argument-register pointer routes through r12
                // as one more parallel move.
                let ptr_phys = match self.loc_of(ptr) {
                    Loc::Reg(p) if !ARG_REGS[..args.len()].contains(&p) => p,
                    Loc::Reg(p) => {
                        moves.push((SCRATCH0, Src::Reg(p)));
                        SCRATCH0
                    }
                    Loc::Slot(s) => {
                        moves.push((SCRATCH0, Src::Slot(self.slot_off(s))));
                        SCRATCH0
                    }
                };
                self.resolve_moves(moves, out);
                out.push(EmInst::Jalr {
                    ptr: Reg::Phys(ptr_phys),
                    args: (0..args.len()).map(|i| Reg::Phys(ARG_REGS[i])).collect(),
                    ret: ret.map(|_| Reg::Phys(RET_REG)),
                });
                self.store_ret(ret, out);
            }
            other => unreachable!("not a call: {other:?}"),
        }
    }

    fn prologue(&mut self, params: &[VReg], out: &mut Vec<EmInst>) {
        if self.frame != 0 {
            out.push(EmInst::Li {
                rd: Reg::Phys(SCRATCH1),
                imm: self.frame,
            });
            out.push(EmInst::Alu {
                op: BinOp::Sub,
                rd: Reg::Phys(SP),
                rs1: Reg::Phys(SP),
                rs2: Reg::Phys(SCRATCH1),
            });
            for (i, r) in self.saved.iter().enumerate() {
                out.push(EmInst::Sw {
                    src: Reg::Phys(*r),
                    base: Reg::Phys(SP),
                    off: (i as i32) * 4,
                });
            }
        }
        // Incoming arguments: slot stores first (they clobber nothing),
        // then the register shuffle as one parallel move.
        let mut moves = Vec::new();
        for (i, p) in params.iter().enumerate() {
            match self.loc.get(p) {
                Some(Loc::Reg(r)) => moves.push((*r, Src::Reg(ARG_REGS[i]))),
                Some(Loc::Slot(s)) => self.store_slot(ARG_REGS[i], *s, out),
                None => {} // dead parameter
            }
        }
        self.resolve_moves(moves, out);
    }

    fn epilogue(&mut self, value: Option<Reg>, out: &mut Vec<EmInst>) {
        if let Some(r) = value {
            match self.loc_of(r) {
                Loc::Reg(p) => {
                    if p != RET_REG {
                        out.push(EmInst::Mv {
                            rd: Reg::Phys(RET_REG),
                            rs: Reg::Phys(p),
                        });
                    }
                }
                Loc::Slot(s) => self.load_slot(RET_REG, s, out),
            }
        }
        if self.frame != 0 {
            out.push(EmInst::Li {
                rd: Reg::Phys(SCRATCH1),
                imm: self.frame,
            });
            for (i, r) in self.saved.iter().enumerate() {
                out.push(EmInst::Lw {
                    rd: Reg::Phys(*r),
                    base: Reg::Phys(SP),
                    off: (i as i32) * 4,
                });
            }
            out.push(EmInst::Alu {
                op: BinOp::Add,
                rd: Reg::Phys(SP),
                rs1: Reg::Phys(SP),
                rs2: Reg::Phys(SCRATCH1),
            });
        }
    }
}

fn rewrite(vc: &mut VCode, loc: &BTreeMap<VReg, Loc>, saved: &[u8], slots: usize) -> usize {
    let mut rw = Rewriter {
        loc,
        saved,
        frame: ((saved.len() + slots) * 4) as i32,
        spill_bytes: 0,
    };
    let params = vc.params.clone();
    for (bi, block) in vc.blocks.iter_mut().enumerate() {
        let mut out = Vec::with_capacity(block.insts.len() + 4);
        if bi == 0 {
            rw.prologue(&params, &mut out);
        }
        for inst in &block.insts {
            match inst {
                EmInst::Jal { .. } | EmInst::Jalr { .. } | EmInst::Ecall { .. } => {
                    rw.rewrite_call(inst, &mut out);
                }
                _ => rw.rewrite_simple(inst, &mut out),
            }
        }
        block.term = match block.term.clone() {
            VTerm::Goto { target } => VTerm::Goto { target },
            VTerm::Br {
                cond,
                then_target,
                else_target,
            } => {
                let c = match rw.loc_of(cond) {
                    Loc::Reg(p) => p,
                    Loc::Slot(s) => {
                        rw.load_slot(SCRATCH0, s, &mut out);
                        SCRATCH0
                    }
                };
                VTerm::Br {
                    cond: Reg::Phys(c),
                    then_target,
                    else_target,
                }
            }
            VTerm::Switch {
                val,
                tmp,
                cases,
                default,
            } => {
                let v = match rw.loc_of(val) {
                    Loc::Reg(p) => p,
                    Loc::Slot(s) => {
                        rw.load_slot(SCRATCH0, s, &mut out);
                        SCRATCH0
                    }
                };
                // The chain temp needs no slot traffic: it is dead after
                // the terminator, so a spilled temp just runs in r13.
                let tmp = tmp.map(|t| match rw.loc_of(t) {
                    Loc::Reg(p) => Reg::Phys(p),
                    Loc::Slot(_) => Reg::Phys(SCRATCH1),
                });
                VTerm::Switch {
                    val: Reg::Phys(v),
                    tmp,
                    cases,
                    default,
                }
            }
            VTerm::Ret { value } => {
                rw.epilogue(value, &mut out);
                VTerm::Ret {
                    value: value.map(|_| Reg::Phys(RET_REG)),
                }
            }
        };
        block.insts = out;
    }
    rw.spill_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::VReg;

    fn vreg(n: u32) -> Reg {
        Reg::Virt(VReg(n))
    }

    fn single_block(insts: Vec<EmInst>, term: VTerm, params: usize, next_vreg: u32) -> VCode {
        VCode {
            name: "t".into(),
            exported: true,
            params: (0..params as u32).map(VReg).collect(),
            blocks: vec![super::super::vcode::VBlock {
                insts,
                term,
                loop_depth: 0,
            }],
            next_vreg,
        }
    }

    #[test]
    fn fixed_constraints_are_satisfied_by_moves() {
        // v2 = v0 + v1; call f(v1, v0); return the call's result.
        let mut vc = single_block(
            vec![
                EmInst::Alu {
                    op: BinOp::Add,
                    rd: vreg(2),
                    rs1: vreg(0),
                    rs2: vreg(1),
                },
                EmInst::Jal {
                    func: 0,
                    args: vec![vreg(1), vreg(0)],
                    ret: Some(vreg(3)),
                },
            ],
            VTerm::Ret {
                value: Some(vreg(3)),
            },
            2,
            4,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        let EmInst::Jal { args, ret, .. } = vc.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, EmInst::Jal { .. }))
            .expect("call survives")
        else {
            unreachable!()
        };
        assert_eq!(args, &[Reg::Phys(1), Reg::Phys(2)]);
        assert_eq!(*ret, Some(Reg::Phys(RET_REG)));
    }

    #[test]
    fn swapped_call_arguments_resolve_without_losing_a_value() {
        // f(v1, v0) with v0, v1 hinted into each other's slots forces the
        // parallel-move resolver to sequence or break a cycle.
        let mut vc = single_block(
            vec![EmInst::Jal {
                func: 0,
                args: vec![vreg(1), vreg(0)],
                ret: None,
            }],
            VTerm::Ret { value: None },
            2,
            2,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
    }

    #[test]
    fn early_clobber_switch_temp_never_shares_the_scrutinee_register() {
        let mut vc = single_block(
            vec![EmInst::Li {
                rd: vreg(0),
                imm: 3,
            }],
            VTerm::Switch {
                val: vreg(0),
                tmp: Some(vreg(1)),
                cases: vec![(1, 0)],
                default: 0,
            },
            0,
            2,
        );
        // Make the terminator well-formed: a self-loop plus a return path
        // is overkill; point cases at block 0 and add no other blocks.
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        let VTerm::Switch { val, tmp, .. } = &vc.blocks[0].term else {
            unreachable!()
        };
        assert_ne!(val.phys(), tmp.expect("temp kept").phys());
    }

    #[test]
    fn leaf_functions_use_caller_saved_registers_only() {
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 1,
                },
                EmInst::Li {
                    rd: vreg(1),
                    imm: 2,
                },
                EmInst::Alu {
                    op: BinOp::Add,
                    rd: vreg(2),
                    rs1: vreg(0),
                    rs2: vreg(1),
                },
            ],
            VTerm::Ret {
                value: Some(vreg(2)),
            },
            0,
            3,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 0, "no callee-saved in a leaf");
        assert_eq!(alloc.stats.spill_slots, 0);
    }

    #[test]
    fn values_crossing_calls_avoid_clobbered_registers() {
        // v0 = 7; call f(); return v0 — v0 must not sit in r1..r4.
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 7,
                },
                EmInst::Jal {
                    func: 0,
                    args: vec![],
                    ret: None,
                },
            ],
            VTerm::Ret {
                value: Some(vreg(0)),
            },
            0,
            1,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 1);
    }

    #[test]
    fn values_crossing_a_gentle_ecall_stay_caller_saved() {
        // Ecall with one argument clobbers only r1: a value live across
        // it can keep r2..r4 and the function stays frameless.
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 7,
                },
                EmInst::Li {
                    rd: vreg(1),
                    imm: 9,
                },
                EmInst::Ecall {
                    ext: 0,
                    args: vec![vreg(1)],
                    ret: None,
                },
            ],
            VTerm::Ret {
                value: Some(vreg(0)),
            },
            0,
            2,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 0, "r2..r4 survive a 1-arg ecall");
    }

    #[test]
    fn high_pressure_spills_and_still_verifies() {
        // 14 simultaneously live values exceed the 11 allocatable
        // registers; the allocator must spill and the result must verify.
        let n = 14u32;
        let mut insts: Vec<EmInst> = (0..n)
            .map(|i| EmInst::Li {
                rd: vreg(i),
                imm: i as i32,
            })
            .collect();
        let mut acc = n;
        insts.push(EmInst::Alu {
            op: BinOp::Add,
            rd: vreg(acc),
            rs1: vreg(0),
            rs2: vreg(1),
        });
        for i in 2..n {
            insts.push(EmInst::Alu {
                op: BinOp::Add,
                rd: vreg(acc + 1),
                rs1: vreg(acc),
                rs2: vreg(i),
            });
            acc += 1;
        }
        let mut vc = single_block(
            insts,
            VTerm::Ret {
                value: Some(vreg(acc)),
            },
            0,
            acc + 1,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert!(alloc.stats.spill_slots > 0, "pressure forces spills");
        assert!(alloc.stats.spill_bytes > 0);
    }
}
