//! Control-flow-graph analyses: predecessors, reverse postorder,
//! dominators, dominance frontiers, natural loops, liveness.
//!
//! Dominators use the iterative algorithm of Cooper, Harvey & Kennedy;
//! frontiers follow Cytron et al., feeding φ-placement in [`crate::ssa`].
//! Natural loops are discovered from back edges (an edge `n → h` where
//! `h` dominates `n`), feeding loop-invariant code motion in
//! [`crate::opt`].

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::mir::{BlockId, MirFunction, VReg};

/// Predecessor lists for every block.
pub fn predecessors(f: &MirFunction) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in f.block(b).term.succs() {
            preds[s.0 as usize].push(b);
        }
    }
    preds
}

/// Reverse postorder over reachable blocks (entry first).
pub fn reverse_postorder(f: &MirFunction) -> Vec<BlockId> {
    let mut visited = BTreeSet::new();
    let mut post = Vec::new();
    // Iterative DFS with an explicit stack of (block, next-successor).
    let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
    visited.insert(BlockId(0));
    while let Some((b, i)) = stack.pop() {
        let succs = f.block(b).term.succs();
        if i < succs.len() {
            stack.push((b, i + 1));
            let s = succs[i];
            if visited.insert(s) {
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Immediate dominators (entry maps to itself).
pub fn dominators(f: &MirFunction) -> BTreeMap<BlockId, BlockId> {
    dominators_with(&reverse_postorder(f), &predecessors(f))
}

/// [`dominators`] from an already computed [`reverse_postorder`] and
/// [`predecessors`] of the function (the analysis cache's entry point).
pub fn dominators_with(rpo: &[BlockId], preds: &[Vec<BlockId>]) -> BTreeMap<BlockId, BlockId> {
    let order: BTreeMap<BlockId, usize> = rpo.iter().enumerate().map(|(i, b)| (*b, i)).collect();
    let mut idom: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    idom.insert(BlockId(0), BlockId(0));
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.0 as usize] {
                if !order.contains_key(&p) || !idom.contains_key(&p) {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(p, cur, &idom, &order),
                });
            }
            if let Some(ni) = new_idom {
                if idom.get(&b) != Some(&ni) {
                    idom.insert(b, ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

/// Children lists of the dominator tree described by `idom` (the entry's
/// self-edge is not a child). Shared by SSA renaming and dominator-scoped
/// value numbering.
pub fn dominator_tree_children(
    idom: &BTreeMap<BlockId, BlockId>,
) -> BTreeMap<BlockId, Vec<BlockId>> {
    let mut children: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
    for (b, d) in idom {
        if *b != BlockId(0) {
            children.entry(*d).or_default().push(*b);
        }
    }
    children
}

/// Blocks in dominator-tree preorder (entry first): every block appears
/// after everything that dominates it, which is the iteration order
/// dominator-scoped rewrites want — when a block is visited, facts
/// established in its dominators are already in place. Unreachable
/// blocks (absent from `idom`) are not visited.
pub fn dominator_preorder(idom: &BTreeMap<BlockId, BlockId>) -> Vec<BlockId> {
    let children = dominator_tree_children(idom);
    let mut order = Vec::with_capacity(idom.len());
    let mut stack = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        order.push(b);
        if let Some(kids) = children.get(&b) {
            // Reversed push so children are visited in ascending order.
            for &k in kids.iter().rev() {
                stack.push(k);
            }
        }
    }
    order
}

/// `true` if `a` dominates `b` under the `idom` map of [`dominators`]
/// (every block dominates itself; unreachable blocks dominate nothing
/// and are dominated by nothing).
pub fn dominates(idom: &BTreeMap<BlockId, BlockId>, a: BlockId, b: BlockId) -> bool {
    if !idom.contains_key(&a) {
        return false;
    }
    let mut x = b;
    loop {
        if x == a {
            return true;
        }
        match idom.get(&x) {
            Some(&d) if d != x => x = d,
            _ => return false, // reached the entry (self-idom) or unreachable
        }
    }
}

/// A queryable dominator tree: the [`dominators`] map bundled with the
/// reachability and dominance queries clients keep re-deriving from it.
/// This is the query surface the [`crate::verify`] SSA tier is built on.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: BTreeMap<BlockId, BlockId>,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn of(f: &MirFunction) -> DomTree {
        DomTree {
            idom: dominators(f),
        }
    }

    /// The underlying immediate-dominator map (entry maps to itself;
    /// unreachable blocks are absent).
    pub fn idoms(&self) -> &BTreeMap<BlockId, BlockId> {
        &self.idom
    }

    /// `true` if `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom.contains_key(&b)
    }

    /// `true` if `a` dominates `b` (reflexive; `false` whenever either
    /// block is unreachable).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        dominates(&self.idom, a, b)
    }

    /// `true` if `a` strictly dominates `b` (dominates it and differs).
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }
}

/// One natural loop: the set of blocks that can reach a back edge's
/// source without passing through the loop header. Loops sharing a
/// header are merged into a single [`NaturalLoop`] with several latches
/// (the classic treatment of `continue`-style multi-latch loops).
///
/// Irreducible ("multi-entry") cycles have no back edge by dominance —
/// neither entry dominates the other — so they are *not* reported;
/// [`natural_loops`] rejecting them is exactly the safety condition
/// loop-invariant code motion needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header: dominates every block of the loop.
    pub header: BlockId,
    /// Sources of the back edges into the header, in discovery order.
    pub latches: Vec<BlockId>,
    /// All loop blocks, header and latches included.
    pub body: BTreeSet<BlockId>,
}

impl NaturalLoop {
    /// `true` if `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// Finds every natural loop of `f` from the back edges of its dominator
/// tree, merging loops that share a header. Returned innermost-first
/// (ascending body size), which is the order loop transforms want.
pub fn natural_loops(f: &MirFunction) -> Vec<NaturalLoop> {
    natural_loops_with(f, &dominators(f), &predecessors(f))
}

/// [`natural_loops`] from an already computed [`dominators`] map and
/// [`predecessors`] of `f`.
pub fn natural_loops_with(
    f: &MirFunction,
    idom: &BTreeMap<BlockId, BlockId>,
    preds: &[Vec<BlockId>],
) -> Vec<NaturalLoop> {
    let mut by_header: BTreeMap<BlockId, NaturalLoop> = BTreeMap::new();
    for n in f.block_ids() {
        if !idom.contains_key(&n) {
            continue; // unreachable
        }
        for h in f.block(n).term.succs() {
            if !dominates(idom, h, n) {
                continue; // not a back edge
            }
            let lp = by_header.entry(h).or_insert_with(|| NaturalLoop {
                header: h,
                latches: Vec::new(),
                body: BTreeSet::from([h]),
            });
            if !lp.latches.contains(&n) {
                lp.latches.push(n);
            }
            // Body: everything reaching the latch backwards without
            // passing the header.
            let mut stack = vec![n];
            while let Some(x) = stack.pop() {
                if !lp.body.insert(x) {
                    continue;
                }
                for &p in &preds[x.0 as usize] {
                    if idom.contains_key(&p) {
                        stack.push(p);
                    }
                }
            }
        }
    }
    let mut loops: Vec<NaturalLoop> = by_header.into_values().collect();
    loops.sort_by_key(|l| (l.body.len(), l.header));
    loops
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &BTreeMap<BlockId, BlockId>,
    order: &BTreeMap<BlockId, usize>,
) -> BlockId {
    while a != b {
        while order[&a] > order[&b] {
            a = idom[&a];
        }
        while order[&b] > order[&a] {
            b = idom[&b];
        }
    }
    a
}

/// Dominance frontiers (Cytron et al.).
pub fn dominance_frontiers(f: &MirFunction) -> BTreeMap<BlockId, BTreeSet<BlockId>> {
    dominance_frontiers_with(f, &dominators(f), &predecessors(f))
}

/// [`dominance_frontiers`] from an already computed [`dominators`] map
/// and [`predecessors`] of `f`.
pub fn dominance_frontiers_with(
    f: &MirFunction,
    idom: &BTreeMap<BlockId, BlockId>,
    preds: &[Vec<BlockId>],
) -> BTreeMap<BlockId, BTreeSet<BlockId>> {
    let mut df: BTreeMap<BlockId, BTreeSet<BlockId>> = BTreeMap::new();
    for b in f.block_ids() {
        if !idom.contains_key(&b) {
            continue; // unreachable
        }
        let bp: Vec<BlockId> = preds[b.0 as usize]
            .iter()
            .copied()
            .filter(|p| idom.contains_key(p))
            .collect();
        if bp.len() < 2 {
            continue;
        }
        for p in bp {
            let mut runner = p;
            while runner != idom[&b] {
                df.entry(runner).or_default().insert(b);
                runner = idom[&runner];
            }
        }
    }
    df
}

/// Per-block live-in/live-out sets of virtual registers.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Registers live on entry of each block.
    pub live_in: Vec<BTreeSet<VReg>>,
    /// Registers live on exit of each block.
    pub live_out: Vec<BTreeSet<VReg>>,
}

/// Classic backward dataflow liveness over the MIR CFG.
pub fn liveness(f: &MirFunction) -> Liveness {
    let n = f.blocks.len();
    let mut use_set = vec![BTreeSet::new(); n];
    let mut def_set = vec![BTreeSet::new(); n];
    for b in f.block_ids() {
        let i = b.0 as usize;
        for inst in &f.block(b).insts {
            for u in inst.uses() {
                if !def_set[i].contains(&u) {
                    use_set[i].insert(u);
                }
            }
            if let Some(d) = inst.def() {
                def_set[i].insert(d);
            }
        }
        for u in f.block(b).term.uses() {
            if !def_set[i].contains(&u) {
                use_set[i].insert(u);
            }
        }
    }
    let succs: Vec<Vec<usize>> = f
        .block_ids()
        .map(|b| {
            f.block(b)
                .term
                .succs()
                .into_iter()
                .map(|s| s.0 as usize)
                .collect()
        })
        .collect();
    solve_liveness(&succs, &use_set, &def_set)
}

/// Backward dataflow liveness over an arbitrary graph of indexed blocks.
///
/// `use_set[b]` must hold the registers read in `b` before any write to
/// them (upward-exposed uses), `def_set[b]` every register written in
/// `b`. The MIR-level [`liveness`] and the backend's virtual-register
/// allocator both solve their fixpoints through this: the allocator
/// needs liveness at `VCode` granularity — where call pseudo-ops carry
/// operand lists and blocks are in lowering order — which has no
/// `MirFunction` to hand.
pub fn solve_liveness(
    succs: &[Vec<usize>],
    use_set: &[BTreeSet<VReg>],
    def_set: &[BTreeSet<VReg>],
) -> Liveness {
    let n = succs.len();
    assert_eq!(use_set.len(), n);
    assert_eq!(def_set.len(), n);
    let mut live_in = vec![BTreeSet::new(); n];
    let mut live_out = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = BTreeSet::new();
            for s in &succs[i] {
                out.extend(live_in[*s].iter().copied());
            }
            let mut inn: BTreeSet<VReg> = use_set[i].clone();
            for v in &out {
                if !def_set[i].contains(v) {
                    inn.insert(*v);
                }
            }
            if inn != live_in[i] || out != live_out[i] {
                live_in[i] = inn;
                live_out[i] = out;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{BinOp, Block, Inst, MirFunction, Term};

    /// Diamond: bb0 -> bb1 | bb2 -> bb3.
    fn diamond() -> MirFunction {
        MirFunction {
            name: "d".into(),
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
                        value: 1,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(3),
                        lhs: VReg(0),
                        rhs: VReg(0),
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        }
    }

    #[test]
    fn preds_and_rpo() {
        let f = diamond();
        let preds = predecessors(&f);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().expect("nonempty"), BlockId(3));
    }

    #[test]
    fn dominator_tree_of_diamond() {
        let f = diamond();
        let idom = dominators(&f);
        assert_eq!(idom[&BlockId(1)], BlockId(0));
        assert_eq!(idom[&BlockId(2)], BlockId(0));
        assert_eq!(idom[&BlockId(3)], BlockId(0));
    }

    #[test]
    fn frontier_of_diamond_is_join() {
        let f = diamond();
        let df = dominance_frontiers(&f);
        assert!(df[&BlockId(1)].contains(&BlockId(3)));
        assert!(df[&BlockId(2)].contains(&BlockId(3)));
    }

    #[test]
    fn liveness_flows_backwards() {
        let f = diamond();
        let lv = liveness(&f);
        // v0 is used in bb3 and bb0, so live-in everywhere on the path.
        assert!(lv.live_in[0].contains(&VReg(0)));
        assert!(lv.live_in[1].contains(&VReg(0)));
        assert!(lv.live_out[0].contains(&VReg(0)));
    }

    fn block(term: Term) -> Block {
        Block {
            insts: vec![],
            term,
        }
    }

    fn func(blocks: Vec<Block>) -> MirFunction {
        MirFunction {
            name: "l".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks,
            next_vreg: 1,
        }
    }

    #[test]
    fn self_loop_is_its_own_header_and_latch() {
        // bb0 -> bb1; bb1 -> bb1 | bb2.
        let f = func(vec![
            block(Term::Goto(BlockId(1))),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1),
                else_block: BlockId(2),
            }),
            block(Term::Ret(None)),
        ]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, BlockId(1));
        assert_eq!(loops[0].latches, vec![BlockId(1)]);
        assert_eq!(loops[0].body, BTreeSet::from([BlockId(1)]));
    }

    #[test]
    fn nested_loops_report_inner_first_with_nested_bodies() {
        // bb0 -> bb1 (outer header) -> bb2 (inner header) -> bb3
        // bb3 -> bb2 (inner latch) | bb4; bb4 -> bb1 (outer latch) | bb5.
        let f = func(vec![
            block(Term::Goto(BlockId(1))),
            block(Term::Goto(BlockId(2))),
            block(Term::Goto(BlockId(3))),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(2),
                else_block: BlockId(4),
            }),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1),
                else_block: BlockId(5),
            }),
            block(Term::Ret(None)),
        ]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 2, "{loops:?}");
        let inner = &loops[0];
        let outer = &loops[1];
        assert_eq!(inner.header, BlockId(2));
        assert_eq!(inner.body, BTreeSet::from([BlockId(2), BlockId(3)]));
        assert_eq!(outer.header, BlockId(1));
        assert_eq!(
            outer.body,
            BTreeSet::from([BlockId(1), BlockId(2), BlockId(3), BlockId(4)])
        );
        assert!(
            inner.body.is_subset(&outer.body),
            "inner loop nests inside outer"
        );
    }

    #[test]
    fn switch_back_edge_forms_a_loop() {
        // bb1 dispatches through a Switch; one case is the back edge.
        let f = func(vec![
            block(Term::Goto(BlockId(1))),
            block(Term::Goto(BlockId(2))),
            block(Term::Switch {
                val: VReg(0),
                cases: vec![(0, BlockId(1)), (1, BlockId(3))],
                default: BlockId(3),
            }),
            block(Term::Ret(None)),
        ]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, BlockId(1));
        assert_eq!(loops[0].latches, vec![BlockId(2)]);
        assert_eq!(loops[0].body, BTreeSet::from([BlockId(1), BlockId(2)]));
    }

    #[test]
    fn multi_latch_loops_merge_by_header() {
        // Two back edges into bb1 (a `continue`): one NaturalLoop, two
        // latches.
        let f = func(vec![
            block(Term::Goto(BlockId(1))),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(2),
                else_block: BlockId(3),
            }),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1), // continue
                else_block: BlockId(3),
            }),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1), // latch
                else_block: BlockId(4),
            }),
            block(Term::Ret(None)),
        ]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1, "{loops:?}");
        assert_eq!(loops[0].latches, vec![BlockId(2), BlockId(3)]);
        assert_eq!(
            loops[0].body,
            BTreeSet::from([BlockId(1), BlockId(2), BlockId(3)])
        );
    }

    #[test]
    fn irreducible_multi_entry_cycle_is_rejected() {
        // bb0 branches into *both* bb1 and bb2, which form a cycle:
        // neither dominates the other, so there is no back edge and no
        // natural loop — exactly the shape LICM must refuse to touch.
        let f = func(vec![
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1),
                else_block: BlockId(2),
            }),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(2),
                else_block: BlockId(3),
            }),
            block(Term::Br {
                cond: VReg(0),
                then_block: BlockId(1),
                else_block: BlockId(3),
            }),
            block(Term::Ret(None)),
        ]);
        assert!(
            natural_loops(&f).is_empty(),
            "irreducible cycles have no natural loop"
        );
    }

    #[test]
    fn dominator_preorder_visits_dominators_first() {
        let f = diamond();
        let idom = dominators(&f);
        let order = dominator_preorder(&idom);
        assert_eq!(order.len(), 4, "all reachable blocks visited once");
        assert_eq!(order[0], BlockId(0), "entry first");
        let pos: BTreeMap<BlockId, usize> =
            order.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        for (&b, &d) in &idom {
            assert!(pos[&d] <= pos[&b], "{d} must precede {b} in {order:?}");
        }
    }

    #[test]
    fn dominates_is_reflexive_and_respects_tree() {
        let f = diamond();
        let idom = dominators(&f);
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(dominates(&idom, BlockId(1), BlockId(1)));
        assert!(!dominates(&idom, BlockId(1), BlockId(3)));
        assert!(!dominates(&idom, BlockId(3), BlockId(0)));
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = diamond();
        f.blocks.push(Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4, "dangling block not visited");
    }
}
