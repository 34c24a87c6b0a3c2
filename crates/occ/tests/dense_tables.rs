//! The mid-end's register-indexed tables on sparsely numbered functions.
//!
//! `FnAddrs::analyze`, `sccp`, `ssa::construct` and `dead_code_elim` size
//! their tables from `next_vreg`. These tests run them on functions whose
//! `next_vreg` sits far above the registers actually used — the shape a
//! function has after inlining remaps callee registers — and on a
//! params-only function, and check each result equals the result on a
//! compactly numbered copy, up to register numbering.

use std::collections::BTreeMap;

use occ::analysis::{AnalysisCache, Changed};
use occ::mem::{AddrInfo, FnAddrs, MemoryModel};
use occ::mir::{BinOp, Block, BlockId, Inst, MirFunction, Term, VReg};
use occ::{opt, ssa};

/// A pre-SSA function with a diamond (a register assigned on both arms),
/// a self-loop carrying a counter, an `Addr + Const` address chain, a
/// dead computation and an unused load. Parameters: `v0` (branch
/// condition) and `v1` (loop bound, stored value).
fn compact() -> MirFunction {
    let r = VReg;
    MirFunction {
        name: "sparse".into(),
        params: 2,
        returns_value: true,
        exported: true,
        blocks: vec![
            Block {
                insts: vec![
                    Inst::Addr {
                        dst: r(2),
                        global: 0,
                        offset: 4,
                    },
                    Inst::Const {
                        dst: r(3),
                        value: 8,
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: r(4),
                        lhs: r(2),
                        rhs: r(3),
                    },
                    Inst::Const {
                        dst: r(5),
                        value: 0,
                    },
                    Inst::Const {
                        dst: r(10),
                        value: 0,
                    },
                ],
                term: Term::Br {
                    cond: r(0),
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
            },
            Block {
                insts: vec![
                    Inst::Const {
                        dst: r(5),
                        value: 1,
                    },
                    Inst::Load {
                        dst: r(6),
                        addr: r(4),
                    },
                ],
                term: Term::Goto(BlockId(3)),
            },
            Block {
                insts: vec![
                    Inst::Const {
                        dst: r(5),
                        value: 2,
                    },
                    Inst::Store {
                        addr: r(4),
                        src: r(1),
                    },
                ],
                term: Term::Goto(BlockId(3)),
            },
            Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: r(7),
                        lhs: r(5),
                        rhs: r(5),
                    },
                    Inst::Const {
                        dst: r(11),
                        value: 1,
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: r(10),
                        lhs: r(10),
                        rhs: r(11),
                    },
                    Inst::Bin {
                        op: BinOp::Lt,
                        dst: r(12),
                        lhs: r(10),
                        rhs: r(1),
                    },
                ],
                term: Term::Br {
                    cond: r(12),
                    then_block: BlockId(3),
                    else_block: BlockId(4),
                },
            },
            Block {
                insts: vec![
                    Inst::Const {
                        dst: r(8),
                        value: 3,
                    },
                    Inst::Bin {
                        op: BinOp::Mul,
                        dst: r(9),
                        lhs: r(8),
                        rhs: r(8),
                    },
                    Inst::Store {
                        addr: r(2),
                        src: r(7),
                    },
                ],
                term: Term::Ret(Some(r(7))),
            },
        ],
        next_vreg: 13,
    }
}

/// A function that reads only its parameters.
fn params_only() -> MirFunction {
    MirFunction {
        name: "params_only".into(),
        params: 3,
        returns_value: true,
        exported: true,
        blocks: vec![
            Block {
                insts: vec![Inst::Store {
                    addr: VReg(2),
                    src: VReg(1),
                }],
                term: Term::Br {
                    cond: VReg(0),
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Term::Ret(Some(VReg(1))),
            },
            Block {
                insts: vec![],
                term: Term::Ret(Some(VReg(2))),
            },
        ],
        next_vreg: 3,
    }
}

/// Renumbers every register through `map` (parameters must map to
/// themselves) and sets `next_vreg`.
fn renumber(f: &MirFunction, map: impl Fn(VReg) -> VReg, next_vreg: u32) -> MirFunction {
    let mut g = f.clone();
    for blk in &mut g.blocks {
        for inst in &mut blk.insts {
            inst.map_uses(&mut |v| map(v));
            if let Some(d) = inst.def_mut() {
                *d = map(*d);
            }
        }
        blk.term.map_uses(&mut |v| map(v));
    }
    g.next_vreg = next_vreg;
    g
}

/// The post-inline shape: parameters keep their numbers, every other
/// register is spread out far above them, and `next_vreg` sits far above
/// the highest register used.
fn spread(f: &MirFunction) -> (MirFunction, impl Fn(VReg) -> VReg) {
    let params = f.params as u32;
    let map = move |v: VReg| {
        if v.0 < params {
            v
        } else {
            VReg(1000 + 37 * v.0)
        }
    };
    let next = 1000 + 37 * f.next_vreg + 4096;
    (renumber(f, map, next), map)
}

/// Renames registers in order of first appearance (parameters first), so
/// functions equal up to register numbering compare equal.
fn canonical(f: &MirFunction) -> MirFunction {
    let mut order: BTreeMap<VReg, VReg> =
        (0..f.params as u32).map(|p| (VReg(p), VReg(p))).collect();
    let mut note = |v: VReg| {
        let n = VReg(order.len() as u32);
        order.entry(v).or_insert(n);
    };
    for blk in &f.blocks {
        for inst in &blk.insts {
            inst.uses().into_iter().for_each(&mut note);
            inst.def().into_iter().for_each(&mut note);
        }
        blk.term.uses().into_iter().for_each(&mut note);
    }
    let count = order.len() as u32;
    renumber(f, |v| order[&v], count)
}

fn construct(f: &mut MirFunction) -> Changed {
    ssa::construct(f, &mut AnalysisCache::new())
}

fn sccp(f: &mut MirFunction) -> Changed {
    opt::sccp(f, &MemoryModel::default(), &mut AnalysisCache::new())
}

fn dce(f: &mut MirFunction) -> Changed {
    opt::dead_code_elim(f, &MemoryModel::default(), &mut AnalysisCache::new())
}

/// Runs construct → sccp → dce on `compact` and on its spread copy,
/// comparing every step's report and result up to numbering.
fn passes_agree(compact: MirFunction) {
    let (mut sparse, _) = spread(&compact);
    let mut dense = compact;
    for (name, pass) in [
        (
            "ssa::construct",
            construct as fn(&mut MirFunction) -> Changed,
        ),
        ("sccp", sccp),
        ("dce", dce),
    ] {
        let (a, b) = (pass(&mut dense), pass(&mut sparse));
        assert_eq!(a, b, "{name} reports differ");
        assert_eq!(
            canonical(&dense),
            canonical(&sparse),
            "{name} results differ:\n{dense}\n{sparse}"
        );
    }
}

#[test]
fn passes_agree_on_a_sparsely_numbered_function() {
    let f = compact();
    let (sparse, _) = spread(&f);
    assert!(sparse.next_vreg > 100 * f.next_vreg, "really sparse");
    passes_agree(f);
}

#[test]
fn passes_agree_on_a_params_only_function() {
    passes_agree(params_only());
}

#[test]
fn fn_addrs_agree_on_sparse_numbering() {
    for f in [compact(), params_only()] {
        let (sparse, map) = spread(&f);
        let (a, b) = (FnAddrs::analyze(&f), FnAddrs::analyze(&sparse));
        for v in (0..f.next_vreg).map(VReg) {
            assert_eq!(a.info(v), b.info(map(v)), "{v} in `{}`", f.name);
        }
        // Registers no instruction defines — parameters, numbers past
        // `next_vreg` — are untraceable.
        assert_eq!(b.info(VReg(0)), AddrInfo::Unknown);
        assert_eq!(b.info(VReg(sparse.next_vreg + 7)), AddrInfo::Unknown);
    }
    let f = compact();
    let (sparse, map) = spread(&f);
    let addrs = FnAddrs::analyze(&sparse);
    assert_eq!(
        addrs.info(map(VReg(4))),
        AddrInfo::Exact {
            global: 0,
            offset: 12
        }
    );
}
