//! SSA construction and destruction.
//!
//! Construction follows Cytron et al. (the algorithm behind GCC's Tree SSA,
//! which the paper credits for enabling its higher-level optimizations):
//! φ-nodes are placed at iterated dominance frontiers of multi-definition
//! registers, then a dominator-tree walk renames versions. Destruction
//! splits critical edges and lowers φs to staged parallel copies.

use crate::analysis::{AnalysisCache, Changed};
use crate::cfg;
use crate::dense::{DenseSet, UseLists};
use crate::mir::{Block, BlockId, Inst, MirFunction, Term, VReg};

/// Converts a function into SSA form (φ-nodes appear in block headers),
/// reading predecessors, dominators and dominance frontiers from `cache`.
/// Returns [`Changed::Cfg`] if unreachable blocks were dropped, else
/// [`Changed::Insts`] (φ insertion and renaming keep every successor
/// list).
pub fn construct(f: &mut MirFunction, cache: &mut AnalysisCache) -> Changed {
    // Work on reachable code only; unreachable blocks would confuse
    // renaming (they have no dominator-tree position).
    let removed = remove_unreachable_blocks(f, cache);

    let preds = cache.preds(f);
    let df = cache.frontiers(f);
    let idom = cache.dominators(f);
    let regs = f.next_vreg as usize;

    // Definition sites per register, one entry per definition (so a
    // list's length is the definition count), in ascending block order;
    // parameters are defined at entry.
    let defsites: UseLists<VReg, BlockId> = UseLists::build(regs, |emit| {
        for p in 0..f.params {
            emit(VReg(p as u32), BlockId(0));
        }
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Some(d) = inst.def() {
                    emit(d, b);
                }
            }
        }
    });

    // φ placement at iterated dominance frontiers for registers with more
    // than one definition site or several definitions. Registers are
    // visited in ascending order, so each block's φ list is ascending.
    let mut phis: Vec<Vec<VReg>> = vec![Vec::new(); f.blocks.len()];
    let mut placed: DenseSet<BlockId> = DenseSet::with_capacity(f.blocks.len());
    let mut work: Vec<BlockId> = Vec::new();
    for v in (0..defsites.len()).map(|i| VReg(i as u32)) {
        let sites = defsites.get(v);
        if sites.len() <= 1 {
            continue; // one definition, hence one site
        }
        work.clear();
        work.extend(sites);
        work.dedup();
        placed.clear();
        while let Some(b) = work.pop() {
            for &y in &df[b.0 as usize] {
                if placed.insert(y) {
                    phis[y.0 as usize].push(v);
                    work.push(y);
                }
            }
        }
    }
    for (b, vars) in phis.iter().enumerate() {
        if vars.is_empty() {
            continue;
        }
        let block_preds = &preds[b];
        let blk = &mut f.blocks[b];
        let mut insts: Vec<Inst> = Vec::with_capacity(vars.len() + blk.insts.len());
        insts.extend(vars.iter().map(|&v| Inst::Phi {
            dst: v,
            args: block_preds.iter().map(|p| (*p, v)).collect(),
        }));
        insts.append(&mut blk.insts);
        blk.insts = insts;
    }

    // Renaming: dominator-tree walk with version stacks.
    let children = cfg::dominator_tree_children(&idom);
    let mut stacks = VersionStacks::new(regs);
    for p in 0..f.params {
        stacks.push(VReg(p as u32), VReg(p as u32));
    }

    rename(f, BlockId(0), &children, &mut stacks, &preds);

    // Strictness repair. A variable first assigned inside a conditional
    // or loop body has no definition on the path that skips the
    // assignment; renaming then leaves the pre-rename register dangling
    // in that path's φ-argument (the `top` fallback). Give every such
    // register one synthetic zero definition at entry, making the SSA
    // strict (every use dominated by a def, the `crate::verify`
    // contract): the zero is only observable on paths where the source
    // program never reads the variable anyway.
    let regs = f.next_vreg as usize;
    let mut defined: DenseSet<VReg> = DenseSet::with_capacity(regs);
    for p in 0..f.params {
        defined.insert(VReg(p as u32));
    }
    for blk in &f.blocks {
        for inst in &blk.insts {
            if let Some(d) = inst.def() {
                defined.insert(d);
            }
        }
    }
    let mut dangling: DenseSet<VReg> = DenseSet::with_capacity(regs);
    let mut note = |u: VReg| {
        if !defined.contains(u) {
            dangling.insert(u);
        }
    };
    for blk in &f.blocks {
        for inst in &blk.insts {
            inst.for_each_use(&mut note);
        }
        blk.term.used().into_iter().for_each(&mut note);
    }
    if !dangling.is_empty() {
        let entry = f.block_mut(BlockId(0));
        let mut prefix: Vec<Inst> = dangling
            .iter()
            .map(|dst| Inst::Const { dst, value: 0 })
            .collect();
        prefix.append(&mut entry.insts);
        entry.insts = prefix;
    }

    // Post-construct boundary of the pipeline verifier: the output must
    // satisfy the full SSA tier (debug builds only; see `crate::verify`).
    if cfg!(debug_assertions) {
        let vs = crate::verify::verify_function(f, crate::verify::Tier::Ssa);
        assert!(
            vs.is_empty(),
            "ssa::construct produced invalid SSA for `{}`:{}",
            f.name,
            crate::verify::report(&vs)
        );
    }
    if removed {
        Changed::Cfg
    } else {
        Changed::Insts
    }
}

/// Folds φs of single-predecessor (and predecessor-less) blocks into
/// plain copies, preserving the verifier's φ-join discipline
/// ([`crate::verify::Rule::PhiOutsideJoin`]): edge pruning — a folded
/// branch, a dropped `Switch` arm, an unreachable predecessor — can
/// leave a join block with one surviving predecessor, whose φs are just
/// copies of their single remaining argument. Returns `true` if any φ
/// was folded (an instruction-only change, already applied to `cache`).
pub fn fold_trivial_phis(f: &mut MirFunction, cache: &mut AnalysisCache) -> bool {
    let preds = cache.preds(f);
    let mut changed = false;
    for (blk, ps) in f.blocks.iter_mut().zip(preds.iter()) {
        if ps.iter().any(|p| *p != ps[0]) {
            continue; // two or more distinct predecessors: a real join
        }
        for inst in &mut blk.insts {
            if let Inst::Phi { dst, args } = inst {
                if let [(_, src)] = args[..] {
                    *inst = Inst::Copy { dst: *dst, src };
                    changed = true;
                }
            }
        }
    }
    cache.invalidate(Changed::insts_if(changed));
    changed
}

/// The renaming walk's version stacks, one per pre-SSA register, kept as
/// a current-version table plus an undo log: a definition records the
/// version it shadows, and leaving a block restores the log to its depth
/// on entry.
struct VersionStacks {
    top: Vec<Option<VReg>>,
    undo: Vec<(VReg, Option<VReg>)>,
}

impl VersionStacks {
    fn new(regs: usize) -> VersionStacks {
        VersionStacks {
            top: vec![None; regs],
            undo: Vec::new(),
        }
    }

    /// The current version of `v` (`v` itself when none is live).
    fn top(&self, v: VReg) -> VReg {
        self.top.get(v.0 as usize).copied().flatten().unwrap_or(v)
    }

    fn push(&mut self, v: VReg, version: VReg) {
        let i = v.0 as usize;
        if i >= self.top.len() {
            self.top.resize(i + 1, None);
        }
        self.undo.push((v, self.top[i].replace(version)));
    }

    fn pop_to(&mut self, depth: usize) {
        while self.undo.len() > depth {
            let (v, prev) = self.undo.pop().expect("above depth");
            self.top[v.0 as usize] = prev;
        }
    }
}

fn rename(
    f: &mut MirFunction,
    b: BlockId,
    children: &[Vec<BlockId>],
    stacks: &mut VersionStacks,
    preds: &[Vec<BlockId>],
) {
    let depth = stacks.undo.len();

    // Rewrite instructions in place.
    let MirFunction {
        blocks, next_vreg, ..
    } = f;
    let blk = &mut blocks[b.0 as usize];
    for inst in &mut blk.insts {
        if !matches!(inst, Inst::Phi { .. }) {
            inst.map_uses(&mut |v| stacks.top(v));
        }
        // Redefine the destination with a fresh version.
        if let Some(dst) = inst.def_mut() {
            let fresh = VReg(*next_vreg);
            *next_vreg += 1;
            stacks.push(*dst, fresh);
            *dst = fresh;
        }
    }
    blk.term.map_uses(&mut |v| stacks.top(v));

    // Fill φ arguments of successors. A block can appear several times in
    // a successor's predecessor list (e.g. a `Br` whose arms share a
    // target), so every matching slot must be filled — filling only the
    // first would leave stale pre-SSA registers in the later slots.
    for k in 0.. {
        let next = blocks[b.0 as usize].term.successors().nth(k);
        let Some(s) = next else { break };
        let slots = &preds[s.0 as usize];
        assert!(slots.contains(&b), "b is a predecessor of its successor");
        for inst in &mut blocks[s.0 as usize].insts {
            let Inst::Phi { args, .. } = inst else {
                continue;
            };
            for (slot, p) in slots.iter().enumerate() {
                if *p == b {
                    let renamed = stacks.top(args[slot].1);
                    args[slot] = (b, renamed);
                }
            }
        }
    }

    // Recurse into dominator-tree children.
    for &k in &children[b.0 as usize] {
        rename(f, k, children, stacks, preds);
    }

    stacks.pop_to(depth);
}

/// Removes blocks unreachable from the entry, remapping ids. Returns
/// `true` if any block was removed — a CFG change, already applied to
/// `cache`. Callers that rewrote a terminator must have invalidated the
/// cache first: reachability is read from it.
pub fn remove_unreachable_blocks(f: &mut MirFunction, cache: &mut AnalysisCache) -> bool {
    let reach = cache.reachable(f);
    if reach.len() == f.blocks.len() {
        return false;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut new_blocks = Vec::with_capacity(reach.len());
    for (i, blk) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if reach.contains(BlockId(i as u32)) {
            remap[i] = Some(BlockId(new_blocks.len() as u32));
            new_blocks.push(blk);
        }
    }
    let to = |b: BlockId| remap[b.0 as usize];
    for blk in &mut new_blocks {
        blk.term
            .map_succs(&mut |s| to(s).expect("reachable blocks jump to reachable blocks"));
        for inst in &mut blk.insts {
            if let Inst::Phi { args, .. } = inst {
                args.retain(|(p, _)| to(*p).is_some());
                for (p, _) in args {
                    *p = to(*p).expect("retained");
                }
            }
        }
    }
    f.blocks = new_blocks;
    cache.invalidate(Changed::Cfg);
    true
}

/// Lowers φ-nodes back to copies (splitting critical edges), leaving a
/// φ-free function ready for the backend. Returns [`Changed::Cfg`] if a
/// critical edge was split, [`Changed::Insts`] if φs were lowered onto
/// existing edges only, [`Changed::Nothing`] for a φ-free input.
pub fn destruct(f: &mut MirFunction) -> Changed {
    // Post-destruct boundary of the pipeline verifier: the output must
    // be φ-free and structurally sound (debug builds only).
    fn debug_verify_phi_free(f: &MirFunction) {
        if cfg!(debug_assertions) {
            let vs = crate::verify::verify_function(f, crate::verify::Tier::PhiFree);
            assert!(
                vs.is_empty(),
                "ssa::destruct produced invalid MIR for `{}`:{}",
                f.name,
                crate::verify::report(&vs)
            );
        }
    }

    // Copies to insert per edge `(pred, block)`, as `(edge, dst, src)` in
    // φ order; a stable sort by edge then groups them per edge in
    // ascending edge order.
    let mut edge_copies: Vec<((BlockId, BlockId), VReg, VReg)> = Vec::new();
    let mut had_phi = false;
    for (i, blk) in f.blocks.iter_mut().enumerate() {
        if !blk
            .insts
            .iter()
            .any(|inst| matches!(inst, Inst::Phi { .. }))
        {
            continue;
        }
        had_phi = true;
        let b = BlockId(i as u32);
        blk.insts.retain(|inst| {
            let Inst::Phi { dst, args } = inst else {
                return true;
            };
            edge_copies.extend(args.iter().map(|&(p, v)| ((p, b), *dst, v)));
            false
        });
    }
    if edge_copies.is_empty() {
        debug_verify_phi_free(f);
        return Changed::insts_if(had_phi);
    }
    edge_copies.sort_by_key(|(edge, _, _)| *edge);
    let mut changed = Changed::Insts;
    for group in edge_copies.chunk_by(|a, b| a.0 == b.0) {
        let (p, b) = group[0].0;
        // Staged parallel copy: tmp_i = src_i ; dst_i = tmp_i. This is
        // immune to the swap/lost-copy problems.
        let mut seq = Vec::with_capacity(2 * group.len());
        let mut temps = Vec::with_capacity(group.len());
        for &(_, _, src) in group {
            let t = f.fresh();
            temps.push(t);
            seq.push(Inst::Copy { dst: t, src });
        }
        for (&(_, dst, _), t) in group.iter().zip(&temps) {
            seq.push(Inst::Copy { dst, src: *t });
        }
        if f.block(p).term.successors().count() == 1 {
            // Insert at the end of the predecessor.
            f.block_mut(p).insts.extend(seq);
        } else {
            // Critical edge: split with a fresh forwarding block.
            let e = BlockId(f.blocks.len() as u32);
            f.blocks.push(Block {
                insts: seq,
                term: Term::Goto(b),
            });
            f.block_mut(p)
                .term
                .map_succs(&mut |s| if s == b { e } else { s });
            changed = Changed::Cfg;
        }
    }
    debug_verify_phi_free(f);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::BinOp;
    use std::collections::BTreeSet;

    /// let x = 0; if c { x = 1 } else { x = 2 }; return x  — the classic
    /// φ example.
    fn phi_example() -> MirFunction {
        MirFunction {
            name: "t".into(),
            params: 1, // v0 = c
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
        }
    }

    #[test]
    fn construct_places_phi_at_join() {
        let mut f = phi_example();
        construct(&mut f, &mut AnalysisCache::new());
        let join = &f.blocks[3];
        assert!(matches!(join.insts.first(), Some(Inst::Phi { .. })), "{f}");
        // Single static assignment: every def is unique.
        let mut defs = BTreeSet::new();
        for b in &f.blocks {
            for i in &b.insts {
                if let Some(d) = i.def() {
                    assert!(defs.insert(d), "double definition of {d} in\n{f}");
                }
            }
        }
    }

    /// Regression keyed to the verifier's `undefined-use` rule: a local
    /// first assigned inside a conditional reaches the join with no
    /// definition at all along the fall-through path, and Cytron
    /// renaming's stack fallback would leave the pre-rename register
    /// dangling in the φ. `construct` must repair this to *strict* SSA
    /// (a zero definition at entry) so every register has a def.
    #[test]
    fn construct_repairs_conditionally_assigned_locals_to_strict_ssa() {
        // if c { x = 5 } ; return x — x has no def on the else path.
        let mut f = MirFunction {
            name: "t".into(),
            params: 1, // v0 = c
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
                        value: 5,
                    }],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        construct(&mut f, &mut AnalysisCache::new());
        let vs = crate::verify::verify_function(&f, crate::verify::Tier::Ssa);
        assert!(vs.is_empty(), "{}{f}", crate::verify::report(&vs));
    }

    #[test]
    fn destruct_removes_phis_and_stays_executable() {
        let mut f = phi_example();
        construct(&mut f, &mut AnalysisCache::new());
        destruct(&mut f);
        for b in &f.blocks {
            for i in &b.insts {
                assert!(!matches!(i, Inst::Phi { .. }));
            }
        }
    }

    #[test]
    fn unreachable_block_removal_remaps_ids() {
        let mut f = phi_example();
        // Add a dangling block.
        f.blocks.push(Block {
            insts: vec![Inst::Bin {
                op: BinOp::Add,
                dst: VReg(9),
                lhs: VReg(0),
                rhs: VReg(0),
            }],
            term: Term::Ret(None),
        });
        remove_unreachable_blocks(&mut f, &mut AnalysisCache::new());
        assert_eq!(f.blocks.len(), 4);
        // Terminators still point at valid blocks.
        for b in f.block_ids() {
            for s in f.block(b).term.succs() {
                assert!((s.0 as usize) < f.blocks.len());
            }
        }
    }

    #[test]
    fn loop_variable_gets_phi_in_header() {
        // i = 0; while (i < n) { i = i + 1 } return i
        let mut f = MirFunction {
            name: "loop".into(),
            params: 1, // v0 = n
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
                    insts: vec![
                        Inst::Const {
                            dst: VReg(3),
                            value: 1,
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            lhs: VReg(1),
                            rhs: VReg(3),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 4,
        };
        construct(&mut f, &mut AnalysisCache::new());
        let header = &f.blocks[1];
        assert!(
            matches!(header.insts.first(), Some(Inst::Phi { .. })),
            "{f}"
        );
        destruct(&mut f);
        for b in &f.blocks {
            for i in &b.insts {
                assert!(!matches!(i, Inst::Phi { .. }));
            }
        }
    }
}
