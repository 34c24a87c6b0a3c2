//! SSA construction and destruction.
//!
//! Construction follows Cytron et al. (the algorithm behind GCC's Tree SSA,
//! which the paper credits for enabling its higher-level optimizations):
//! φ-nodes are placed at iterated dominance frontiers of multi-definition
//! registers, then a dominator-tree walk renames versions. Destruction
//! splits critical edges and lowers φs to staged parallel copies.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::analysis::{AnalysisCache, Changed};
use crate::cfg;
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

    // Definition sites per register.
    let mut defsites: BTreeMap<VReg, BTreeSet<BlockId>> = BTreeMap::new();
    let mut def_count: BTreeMap<VReg, usize> = BTreeMap::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.def() {
                defsites.entry(d).or_default().insert(b);
                *def_count.entry(d).or_default() += 1;
            }
        }
    }
    // Parameters are defined at entry.
    for p in 0..f.params {
        defsites
            .entry(VReg(p as u32))
            .or_default()
            .insert(BlockId(0));
        *def_count.entry(VReg(p as u32)).or_default() += 1;
    }

    // φ placement at iterated dominance frontiers for registers with more
    // than one definition site or several definitions.
    let mut phis: BTreeMap<BlockId, BTreeMap<VReg, usize>> = BTreeMap::new();
    for (v, sites) in &defsites {
        if def_count[v] <= 1 && sites.len() <= 1 {
            continue;
        }
        let mut work: Vec<BlockId> = sites.iter().copied().collect();
        let mut placed: BTreeSet<BlockId> = BTreeSet::new();
        while let Some(b) = work.pop() {
            let Some(frontier) = df.get(&b) else { continue };
            for &y in frontier {
                if placed.insert(y) {
                    let idx = f.block(y).insts.len();
                    let _ = idx;
                    let entry = phis.entry(y).or_default();
                    entry.insert(*v, preds[y.0 as usize].len());
                    work.push(y);
                }
            }
        }
    }
    for (b, vars) in &phis {
        let block_preds = &preds[b.0 as usize];
        let mut new_insts: Vec<Inst> = Vec::new();
        for v in vars.keys() {
            new_insts.push(Inst::Phi {
                dst: *v,
                args: block_preds.iter().map(|p| (*p, *v)).collect(),
            });
        }
        let blk = f.block_mut(*b);
        new_insts.append(&mut blk.insts);
        blk.insts = new_insts;
    }

    // Renaming: dominator-tree walk with version stacks.
    let children = cfg::dominator_tree_children(&idom);
    let mut stacks: BTreeMap<VReg, Vec<VReg>> = BTreeMap::new();
    for p in 0..f.params {
        stacks.insert(VReg(p as u32), vec![VReg(p as u32)]);
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
    let mut defined: BTreeSet<VReg> = (0..f.params as u32).map(VReg).collect();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.def() {
                defined.insert(d);
            }
        }
    }
    let mut dangling: BTreeSet<VReg> = BTreeSet::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            dangling.extend(inst.uses().into_iter().filter(|u| !defined.contains(u)));
        }
        dangling.extend(
            f.block(b)
                .term
                .uses()
                .into_iter()
                .filter(|u| !defined.contains(u)),
        );
    }
    if !dangling.is_empty() {
        let entry = f.block_mut(BlockId(0));
        let mut prefix: Vec<Inst> = dangling
            .into_iter()
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
    for b in f.block_ids().collect::<Vec<_>>() {
        let distinct: BTreeSet<BlockId> = preds[b.0 as usize].iter().copied().collect();
        if distinct.len() >= 2 {
            continue;
        }
        for inst in &mut f.block_mut(b).insts {
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

fn top(stacks: &BTreeMap<VReg, Vec<VReg>>, v: VReg) -> VReg {
    stacks.get(&v).and_then(|s| s.last()).copied().unwrap_or(v)
}

fn rename(
    f: &mut MirFunction,
    b: BlockId,
    children: &BTreeMap<BlockId, Vec<BlockId>>,
    stacks: &mut BTreeMap<VReg, Vec<VReg>>,
    preds: &[Vec<BlockId>],
) {
    let mut pushed: Vec<VReg> = Vec::new();

    // Rewrite instructions.
    let insts_len = f.block(b).insts.len();
    for i in 0..insts_len {
        let is_phi = matches!(f.block(b).insts[i], Inst::Phi { .. });
        if !is_phi {
            let mut inst = f.block(b).insts[i].clone();
            inst.map_uses(&mut |v| top(stacks, v));
            f.block_mut(b).insts[i] = inst;
        }
        // Redefine the destination with a fresh version.
        if let Some(d) = f.block(b).insts[i].def() {
            let fresh = f.fresh();
            if let Some(dst) = f.block_mut(b).insts[i].def_mut() {
                *dst = fresh;
            }
            stacks.entry(d).or_default().push(fresh);
            pushed.push(d);
        }
    }
    {
        let mut term = f.block(b).term.clone();
        term.map_uses(&mut |v| top(stacks, v));
        f.block_mut(b).term = term;
    }

    // Fill φ arguments of successors. A block can appear several times in
    // a successor's predecessor list (e.g. a `Br` whose arms share a
    // target), so every matching slot must be filled — filling only the
    // first would leave stale pre-SSA registers in the later slots.
    for s in f.block(b).term.succs() {
        let pred_indices: Vec<usize> = preds[s.0 as usize]
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == b)
            .map(|(i, _)| i)
            .collect();
        assert!(
            !pred_indices.is_empty(),
            "b is a predecessor of its successor"
        );
        let insts_len = f.block(s).insts.len();
        for i in 0..insts_len {
            for &pred_index in &pred_indices {
                let Inst::Phi { args, .. } = &f.block(s).insts[i] else {
                    continue;
                };
                let original = args[pred_index].1;
                let renamed = top(stacks, original);
                if let Inst::Phi { args, .. } = &mut f.block_mut(s).insts[i] {
                    args[pred_index] = (b, renamed);
                }
            }
        }
    }

    // Recurse into dominator-tree children.
    if let Some(kids) = children.get(&b) {
        for &k in kids {
            rename(f, k, children, stacks, preds);
        }
    }

    for v in pushed {
        stacks.get_mut(&v).expect("pushed").pop();
    }
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
    let mut remap: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    let mut new_blocks = Vec::new();
    for b in f.block_ids() {
        if reach.contains(&b) {
            remap.insert(b, BlockId(new_blocks.len() as u32));
            new_blocks.push(f.block(b).clone());
        }
    }
    for blk in &mut new_blocks {
        blk.term.map_succs(&mut |s| remap[&s]);
        for inst in &mut blk.insts {
            if let Inst::Phi { args, .. } = inst {
                args.retain(|(p, _)| remap.contains_key(p));
                for (p, _) in args {
                    *p = remap[p];
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
    // Collect copies to insert per edge (pred -> block).
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

    let mut edge_copies: BTreeMap<(BlockId, BlockId), Vec<(VReg, VReg)>> = BTreeMap::new();
    let mut had_phi = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut kept = Vec::new();
        for inst in f.block(b).insts.clone() {
            if let Inst::Phi { dst, args } = inst {
                had_phi = true;
                for (p, v) in args {
                    edge_copies.entry((p, b)).or_default().push((dst, v));
                }
            } else {
                kept.push(inst);
            }
        }
        f.block_mut(b).insts = kept;
    }
    if edge_copies.is_empty() {
        debug_verify_phi_free(f);
        return Changed::insts_if(had_phi);
    }
    let mut changed = Changed::Insts;
    for ((p, b), copies) in edge_copies {
        // Staged parallel copy: tmp_i = src_i ; dst_i = tmp_i. This is
        // immune to the swap/lost-copy problems.
        let mut seq = Vec::new();
        let mut temps = Vec::new();
        for (_, src) in &copies {
            let t = f.fresh();
            temps.push(t);
            seq.push(Inst::Copy { dst: t, src: *src });
        }
        for ((dst, _), t) in copies.iter().zip(&temps) {
            seq.push(Inst::Copy { dst: *dst, src: *t });
        }
        let p_succs = f.block(p).term.succs();
        if p_succs.len() == 1 {
            // Insert at the end of the predecessor.
            let blk = f.block_mut(p);
            blk.insts.extend(seq);
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
