//! The memory-dependence layer: symbolic addresses over the flat EM32
//! global image, the alias queries the memory passes of [`crate::opt`]
//! build on, per-block cell transfer summaries for the cross-block
//! availability dataflow, and loop clobber summaries for load-hoisting
//! LICM. This module doc is the canonical description of the alias
//! model and its effect assumptions; ROADMAP.md's Building section only
//! points here. The in-object contract the model assumes (resolved
//! offsets in bounds, no stores into rodata) is *checked*, not merely
//! assumed, by the memory tier of the [`crate::verify`] static verifier,
//! which runs between passes in debug builds.
//!
//! # The alias model
//!
//! EM32 global data is a flat image of byte-addressed words; every
//! address a program can form is rooted at an [`Inst::Addr`] (a global's
//! base plus a constant byte offset) and extended by address arithmetic.
//! [`FnAddrs`] resolves each virtual register to one of three shapes:
//!
//! * [`AddrInfo::Exact`] — global root plus a compile-time-constant
//!   offset: one known cell,
//! * [`AddrInfo::Base`] — a known global root with a run-time offset
//!   (array indexing),
//! * [`AddrInfo::Unknown`] — no traceable root.
//!
//! Two addresses alias iff their roots and constant offsets can
//! coincide ([`alias`]). Every access moves a whole
//! [`ACCESS_BYTES`]-byte word but addresses have *byte* granularity, so
//! nearby offsets partially overlap:
//!
//! * same root, equal offsets — the same cell ([`Alias::Must`]);
//! * same root, offsets less than a word apart — partially overlapping
//!   accesses ([`Alias::May`]);
//! * same root, offsets at least [`ACCESS_BYTES`] apart — disjoint
//!   byte ranges ([`Alias::No`]): base + o₁ and base + o₂ stay a fixed
//!   distance apart even under wrapping arithmetic;
//! * different roots — disjoint objects ([`Alias::No`]). This is the C
//!   object model: address arithmetic rooted at one global is assumed to
//!   stay inside that global, which the front end guarantees (field
//!   offsets are in-bounds by construction and `tlang` array indexing is
//!   in-bounds by contract, exactly as in the paper's generated C++);
//! * anything involving an untraceable address — [`Alias::May`].
//!
//! The whole relation in five assertions:
//!
//! ```
//! use occ::mem::{alias, AddrInfo, Alias};
//!
//! let cell = |offset| AddrInfo::Exact { global: 0, offset };
//! assert_eq!(alias(cell(4), cell(4)), Alias::Must); // same cell
//! assert_eq!(alias(cell(0), cell(4)), Alias::No);   // a word apart
//! assert_eq!(alias(cell(0), cell(2)), Alias::May);  // sub-word overlap
//! assert_eq!(
//!     alias(cell(0), AddrInfo::Exact { global: 1, offset: 0 }),
//!     Alias::No, // distinct roots are disjoint objects
//! );
//! assert_eq!(
//!     alias(cell(0), AddrInfo::Base { global: 0 }),
//!     Alias::May, // run-time index into the same root
//! );
//! ```
//!
//! [`FnAddrs`] is how registers acquire those shapes: it folds
//! `Addr`-rooted `+`/`-` chains, copies and φs to a root plus constant
//! offset where it can, and degrades to [`AddrInfo::Base`] (root kept,
//! offset unknown) or [`AddrInfo::Unknown`] where it cannot:
//!
//! ```
//! use occ::mem::{AddrInfo, FnAddrs};
//! use occ::mir::{BinOp, Block, Inst, MirFunction, Term, VReg};
//!
//! // v1 = &g0 + 4; v2 = 8; v3 = v1 + v2; v4 = v1 + v0 (run-time term)
//! let f = MirFunction {
//!     name: "demo".into(),
//!     params: 1,
//!     returns_value: false,
//!     exported: true,
//!     blocks: vec![Block {
//!         insts: vec![
//!             Inst::Addr { dst: VReg(1), global: 0, offset: 4 },
//!             Inst::Const { dst: VReg(2), value: 8 },
//!             Inst::Bin { op: BinOp::Add, dst: VReg(3), lhs: VReg(1), rhs: VReg(2) },
//!             Inst::Bin { op: BinOp::Add, dst: VReg(4), lhs: VReg(1), rhs: VReg(0) },
//!         ],
//!         term: Term::Ret(None),
//!     }],
//!     next_vreg: 5,
//! };
//! let addrs = FnAddrs::analyze(&f);
//! assert_eq!(addrs.info(VReg(3)), AddrInfo::Exact { global: 0, offset: 12 });
//! assert_eq!(addrs.info(VReg(4)), AddrInfo::Base { global: 0 });
//! assert_eq!(addrs.info(VReg(0)), AddrInfo::Unknown); // parameter
//! ```
//!
//! # Effect assumptions
//!
//! * **Externs are memory-transparent.** The EM32 `Ecall` passes
//!   arguments and results in registers only; a host extern can neither
//!   read nor write the data image (see [`crate::vm`]), so
//!   [`Inst::CallExtern`] never clobbers a tracked cell.
//! * **Calls clobber mutable globals only.** `tlang` rejects assignments
//!   to `const` globals at type-check time, so no callee can store into
//!   rodata: a cell in a non-`mutable` global survives [`Inst::Call`]
//!   and [`Inst::CallInd`] ([`MemoryModel::is_rodata`]). A function-local
//!   store whose address *may* alias a rodata cell still clobbers it —
//!   only the indirect (callee) channel is excluded.
//! * **Rooted loads never fault.** In-object addresses always fall
//!   inside the VM's data image, so a load from an [`AddrInfo::Exact`]
//!   or [`AddrInfo::Base`] address can be executed speculatively (the
//!   license load-hoisting LICM relies on).
//!
//! [`Inst::Addr`]: crate::mir::Inst::Addr
//! [`Inst::CallExtern`]: crate::mir::Inst::CallExtern
//! [`Inst::Call`]: crate::mir::Inst::Call
//! [`Inst::CallInd`]: crate::mir::Inst::CallInd

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::mir::{BinOp, BlockId, Inst, MirFunction, Program, VReg};

/// Program-wide memory facts the function-local passes consult: which
/// globals are immutable (rodata), how large each global is, and how many
/// functions/externs exist. The size and symbol-count facts back the
/// memory tier of the [`crate::verify`] static checker (resolved offsets
/// in bounds, no stores into rodata, call targets in range).
///
/// The [`Default`] model knows no globals and treats every index as
/// mutable — the conservative choice for unit tests driving a pass on a
/// bare [`MirFunction`]. A default model reports
/// [`MemoryModel::is_complete`]` == false`, which tells the verifier to
/// skip the program-dependent memory checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryModel {
    mutability: Vec<bool>,
    sizes: Vec<usize>,
    fn_count: usize,
    extern_count: usize,
    complete: bool,
}

impl MemoryModel {
    /// Extracts the model from a program's global/function/extern tables.
    pub fn of(program: &Program) -> MemoryModel {
        MemoryModel {
            mutability: program.globals.iter().map(|g| g.mutable).collect(),
            sizes: program.globals.iter().map(|g| g.size).collect(),
            fn_count: program.functions.len(),
            extern_count: program.externs.len(),
            complete: true,
        }
    }

    /// `true` if `global` is known to be immutable. No callee can store
    /// into a rodata global (the type checker rejects assignments to
    /// `const`), so rodata cells survive calls. Unknown indices report
    /// `false` (treated as mutable).
    pub fn is_rodata(&self, global: usize) -> bool {
        self.mutability.get(global).is_some_and(|m| !*m)
    }

    /// `true` if this model was built from a whole [`Program`] (via
    /// [`MemoryModel::of`]); the [`Default`] model is incomplete and the
    /// verifier's memory tier is a no-op under it.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Number of globals in the program the model was built from.
    pub fn global_count(&self) -> usize {
        self.mutability.len()
    }

    /// Byte size of `global`, or `None` for an out-of-range index.
    pub fn global_size(&self, global: usize) -> Option<usize> {
        self.sizes.get(global).copied()
    }

    /// Number of functions in the program (the valid `Call`/`FnAddr`
    /// index range).
    pub fn fn_count(&self) -> usize {
        self.fn_count
    }

    /// Number of externs in the program (the valid `CallExtern` index
    /// range).
    pub fn extern_count(&self) -> usize {
        self.extern_count
    }
}

/// What is known about the address held in a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AddrInfo {
    /// Global root plus a compile-time-constant byte offset: one cell.
    Exact {
        /// Global index (the `Addr` root).
        global: usize,
        /// Constant byte offset from the global's base.
        offset: i32,
    },
    /// A known global root with a run-time offset (array indexing).
    Base {
        /// Global index (the `Addr` root).
        global: usize,
    },
    /// No traceable root; may point anywhere.
    Unknown,
}

/// An alias verdict between two addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alias {
    /// Provably the same cell.
    Must,
    /// Provably distinct cells.
    No,
    /// Cannot tell; assume overlap.
    May,
}

/// Every EM32 memory access moves this many bytes (one word).
pub const ACCESS_BYTES: i32 = 4;

/// `true` if word accesses at constant offsets `o1` and `o2` from the
/// same root touch at least one common byte: each access covers
/// `[o, o + ACCESS_BYTES)`, and addresses have byte granularity, so
/// offsets less than a word apart partially overlap. Wrapping-safe: the
/// byte distance is a fixed `o1 - o2` modulo 2³², checked in both
/// directions.
pub fn overlaps(o1: i32, o2: i32) -> bool {
    // `unsigned_abs` of the wrapped i32 difference is exactly the
    // circular byte distance min(d, 2³² − d).
    o1.wrapping_sub(o2).unsigned_abs() < ACCESS_BYTES as u32
}

/// The alias relation of the flat-image model (see the module docs for
/// the underlying assumptions).
pub fn alias(a: AddrInfo, b: AddrInfo) -> Alias {
    match (a, b) {
        (
            AddrInfo::Exact {
                global: g1,
                offset: o1,
            },
            AddrInfo::Exact {
                global: g2,
                offset: o2,
            },
        ) => {
            if g1 != g2 {
                Alias::No
            } else if o1 == o2 {
                Alias::Must
            } else if overlaps(o1, o2) {
                Alias::May
            } else {
                Alias::No
            }
        }
        (AddrInfo::Exact { global: g1, .. }, AddrInfo::Base { global: g2 })
        | (AddrInfo::Base { global: g1 }, AddrInfo::Exact { global: g2, .. })
        | (AddrInfo::Base { global: g1 }, AddrInfo::Base { global: g2 }) => {
            if g1 == g2 {
                Alias::May
            } else {
                Alias::No
            }
        }
        (AddrInfo::Unknown, _) | (_, AddrInfo::Unknown) => Alias::May,
    }
}

/// Internal resolution value: richer than [`AddrInfo`] because constant
/// operands must be tracked to fold `Addr + Const` chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Const(i32),
    Exact(usize, i32),
    Base(usize),
    Other,
}

impl Sym {
    fn info(self) -> AddrInfo {
        match self {
            Sym::Exact(global, offset) => AddrInfo::Exact { global, offset },
            Sym::Base(global) => AddrInfo::Base { global },
            // A bare constant used as an address is an absolute pointer
            // into who-knows-what: untraceable.
            Sym::Const(_) | Sym::Other => AddrInfo::Unknown,
        }
    }
}

/// Per-function address resolution: maps every virtual register to the
/// [`AddrInfo`] describing the address it may hold.
///
/// Registers with several definitions (non-SSA form) resolve to
/// [`AddrInfo::Unknown`], so the result is conservative — and therefore
/// sound — on any input, SSA or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnAddrs {
    sym: BTreeMap<VReg, Sym>,
}

impl FnAddrs {
    /// Resolves every register of `f`.
    pub fn analyze(f: &MirFunction) -> FnAddrs {
        let mut defs: BTreeMap<VReg, &Inst> = BTreeMap::new();
        let mut multi: BTreeSet<VReg> = BTreeSet::new();
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Some(d) = inst.def() {
                    if defs.insert(d, inst).is_some() {
                        multi.insert(d);
                    }
                }
            }
        }
        let mut out = FnAddrs {
            sym: BTreeMap::new(),
        };
        let mut visiting: BTreeSet<VReg> = BTreeSet::new();
        for &v in defs.keys() {
            resolve(v, &defs, &multi, &mut visiting, &mut out.sym);
        }
        out
    }

    /// What the register is known to address.
    pub fn info(&self, v: VReg) -> AddrInfo {
        self.sym.get(&v).copied().unwrap_or(Sym::Other).info()
    }
}

fn resolve(
    v: VReg,
    defs: &BTreeMap<VReg, &Inst>,
    multi: &BTreeSet<VReg>,
    visiting: &mut BTreeSet<VReg>,
    memo: &mut BTreeMap<VReg, Sym>,
) -> Sym {
    if let Some(&s) = memo.get(&v) {
        return s;
    }
    // Parameters and undefined registers have no traceable definition;
    // multiply-defined registers (non-SSA form) and cyclic chains are
    // given up on rather than reasoned about.
    let Some(inst) = defs.get(&v) else {
        memo.insert(v, Sym::Other);
        return Sym::Other;
    };
    if multi.contains(&v) || !visiting.insert(v) {
        memo.insert(v, Sym::Other);
        return Sym::Other;
    }
    let s = match inst {
        Inst::Const { value, .. } => Sym::Const(*value),
        Inst::Addr { global, offset, .. } => Sym::Exact(*global, *offset),
        Inst::Copy { src, .. } => resolve(*src, defs, multi, visiting, memo),
        Inst::Bin { op, lhs, rhs, .. } if matches!(op, BinOp::Add | BinOp::Sub) => {
            let l = resolve(*lhs, defs, multi, visiting, memo);
            let r = resolve(*rhs, defs, multi, visiting, memo);
            combine(*op, l, r)
        }
        Inst::Phi { args, .. } => {
            let mut acc: Option<Sym> = None;
            for (_, a) in args {
                let s = resolve(*a, defs, multi, visiting, memo);
                acc = Some(match acc {
                    None => s,
                    Some(prev) => meet(prev, s),
                });
                if acc == Some(Sym::Other) {
                    break;
                }
            }
            acc.unwrap_or(Sym::Other)
        }
        _ => Sym::Other,
    };
    visiting.remove(&v);
    memo.insert(v, s);
    s
}

/// Folds `Add`/`Sub` over resolution values. Anything that leaves the
/// "one root plus an offset" shape — summing two addresses, negating one
/// — degrades to [`Sym::Other`].
fn combine(op: BinOp, l: Sym, r: Sym) -> Sym {
    let sub = op == BinOp::Sub;
    match (l, r) {
        (Sym::Const(a), Sym::Const(b)) => Sym::Const(if sub {
            a.wrapping_sub(b)
        } else {
            a.wrapping_add(b)
        }),
        (Sym::Exact(g, o), Sym::Const(c)) => Sym::Exact(
            g,
            if sub {
                o.wrapping_sub(c)
            } else {
                o.wrapping_add(c)
            },
        ),
        // `Const + Addr` commutes; `Const - Addr` is a negated address.
        (Sym::Const(c), Sym::Exact(g, o)) if !sub => Sym::Exact(g, o.wrapping_add(c)),
        // A run-time term added to (or subtracted from) a rooted address
        // keeps the root; two roots, or a root on the right of a `Sub`,
        // do not.
        (Sym::Exact(g, _) | Sym::Base(g), Sym::Const(_) | Sym::Other) => Sym::Base(g),
        (Sym::Const(_) | Sym::Other, Sym::Exact(g, _) | Sym::Base(g)) if !sub => Sym::Base(g),
        _ => Sym::Other,
    }
}

/// The φ-meet of two resolution values: equal values survive, same-root
/// addresses degrade to the root, everything else to [`Sym::Other`].
fn meet(a: Sym, b: Sym) -> Sym {
    if a == b {
        return a;
    }
    match (a, b) {
        (Sym::Exact(g1, _) | Sym::Base(g1), Sym::Exact(g2, _) | Sym::Base(g2)) if g1 == g2 => {
            Sym::Base(g1)
        }
        _ => Sym::Other,
    }
}

/// One exactly addressed word cell of the flat image: `(global index,
/// byte offset)` — the granule the available-load analysis of
/// [`crate::opt`] tracks. Equivalent to [`AddrInfo::Exact`], flattened
/// for use as a set/map key.
pub type Cell = (usize, i32);

/// The [`AddrInfo`] a [`Cell`] denotes.
pub fn cell_info(cell: Cell) -> AddrInfo {
    AddrInfo::Exact {
        global: cell.0,
        offset: cell.1,
    }
}

/// Every exactly addressed cell `f` loads or stores — the finite universe
/// the cross-block availability dataflow ranges over. Accesses through
/// rooted run-time or untraceable addresses contribute no cell (they can
/// only *kill* availability, never carry it).
pub fn cell_universe(f: &MirFunction, addrs: &FnAddrs) -> BTreeSet<Cell> {
    let mut cells = BTreeSet::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(addr) = inst.mem_addr() {
                if let AddrInfo::Exact { global, offset } = addrs.info(addr) {
                    cells.insert((global, offset));
                }
            }
        }
    }
    cells
}

/// What an in-block forward walk knows about one tracked cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVal {
    /// Untouched so far: the cell still holds whatever it held on block
    /// entry (whether that value is *known* is the dataflow's question,
    /// not this walk's).
    FromEntry,
    /// The register holding the cell's current content (from a store's
    /// source or a load's destination).
    Reg(VReg),
    /// A may-aliasing store or a call intervened and nothing re-provided
    /// the cell: its content is unknown here.
    Clobbered,
}

/// The forward in-block transfer function over a cell universe: the one
/// aliasing discipline shared by the block-local forwarding pass, the
/// per-block summaries ([`BlockCells`]) and the cross-block rewrite walk,
/// so analysis and transformation can never disagree.
///
/// The discipline is [`alias`]'s: an exact store provides its own cell
/// and clobbers every tracked cell within a word of it (word accesses at
/// byte granularity), a rooted run-time store clobbers its whole global,
/// an untraceable store clobbers everything; `Call`/`CallInd` clobber
/// every mutable global's cells (rodata survives — no callee can store
/// to a `const` global) while `CallExtern` clobbers nothing (the EM32
/// `Ecall` passes registers only). A load revives its cell. Sound off
/// SSA form too: a redefinition of a register holding a tracked value
/// clobbers that cell.
#[derive(Debug, Clone)]
pub struct CellState<'a> {
    universe: &'a BTreeSet<Cell>,
    state: BTreeMap<Cell, CellVal>,
}

impl<'a> CellState<'a> {
    /// A fresh walk state: every universe cell is [`CellVal::FromEntry`].
    pub fn new(universe: &'a BTreeSet<Cell>) -> CellState<'a> {
        CellState {
            universe,
            state: BTreeMap::new(),
        }
    }

    /// The current knowledge about `cell`.
    pub fn value(&self, cell: Cell) -> CellVal {
        self.state.get(&cell).copied().unwrap_or(CellVal::FromEntry)
    }

    /// Overrides the knowledge about `cell` (the cross-block rewriter
    /// records a forwarded load's replacement register this way).
    pub fn set(&mut self, cell: Cell, val: CellVal) {
        self.state.insert(cell, val);
    }

    /// Advances the state over one instruction.
    pub fn apply(&mut self, inst: &Inst, addrs: &FnAddrs, model: &MemoryModel) {
        // A redefinition of a register holding a tracked value makes the
        // remembered content stale (only possible off SSA form).
        if let Some(d) = inst.def() {
            for cell in self.universe {
                if self.value(*cell) == CellVal::Reg(d) {
                    self.state.insert(*cell, CellVal::Clobbered);
                }
            }
        }
        match inst {
            Inst::Load { dst, addr } => {
                if let AddrInfo::Exact { global, offset } = addrs.info(*addr) {
                    let cell = (global, offset);
                    if self.universe.contains(&cell) && !matches!(self.value(cell), CellVal::Reg(_))
                    {
                        self.state.insert(cell, CellVal::Reg(*dst));
                    }
                }
            }
            Inst::Store { addr, src } => match addrs.info(*addr) {
                AddrInfo::Exact { global, offset } => {
                    for cell in self.universe {
                        if cell.0 == global && overlaps(cell.1, offset) {
                            self.state.insert(*cell, CellVal::Clobbered);
                        }
                    }
                    let cell = (global, offset);
                    if self.universe.contains(&cell) {
                        self.state.insert(cell, CellVal::Reg(*src));
                    }
                }
                AddrInfo::Base { global } => {
                    for cell in self.universe {
                        if cell.0 == global {
                            self.state.insert(*cell, CellVal::Clobbered);
                        }
                    }
                }
                AddrInfo::Unknown => {
                    for cell in self.universe {
                        self.state.insert(*cell, CellVal::Clobbered);
                    }
                }
            },
            i if i.may_write_mem() => {
                for cell in self.universe {
                    if !model.is_rodata(cell.0) {
                        self.state.insert(*cell, CellVal::Clobbered);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One block's summarized effect on tracked memory cells — the transfer
/// function of the cross-block availability dataflow, precomputed by
/// running [`CellState`] over the block once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockCells {
    /// Cells whose content is in a register at block exit, whatever the
    /// entry state was (a store's source or a load's destination with no
    /// later clobber).
    pub provides: BTreeMap<Cell, VReg>,
    /// Cells clobbered (and not re-provided) by the block: entry
    /// availability dies here.
    pub killed: BTreeSet<Cell>,
}

impl BlockCells {
    /// Summarizes block `b` of `f` over `universe`.
    pub fn summarize(
        f: &MirFunction,
        b: BlockId,
        universe: &BTreeSet<Cell>,
        addrs: &FnAddrs,
        model: &MemoryModel,
    ) -> BlockCells {
        let mut st = CellState::new(universe);
        for inst in &f.block(b).insts {
            st.apply(inst, addrs, model);
        }
        let mut out = BlockCells::default();
        for (&cell, &val) in &st.state {
            match val {
                CellVal::Reg(v) => {
                    out.provides.insert(cell, v);
                }
                CellVal::Clobbered => {
                    out.killed.insert(cell);
                }
                CellVal::FromEntry => {}
            }
        }
        out
    }

    /// `true` if the block neither provides nor kills `cell`: entry
    /// availability (and the entry value) survives to the exit.
    pub fn transparent(&self, cell: Cell) -> bool {
        !self.provides.contains_key(&cell) && !self.killed.contains(&cell)
    }

    /// The block-exit availability set for the given entry set: provided
    /// cells plus surviving entry cells.
    pub fn flow(&self, entry: &BTreeSet<Cell>) -> BTreeSet<Cell> {
        let mut out: BTreeSet<Cell> = self.provides.keys().copied().collect();
        out.extend(entry.iter().copied().filter(|c| self.transparent(*c)));
        out
    }
}

/// What a loop body can do to memory: the clobber summary load-hoisting
/// LICM checks a candidate load against.
#[derive(Debug, Clone, Default)]
pub struct LoopClobbers {
    /// A store through an untraceable address exists: everything may be
    /// written.
    pub unknown_store: bool,
    /// A `Call`/`CallInd` exists: every *mutable* global may be written
    /// (externs are memory-transparent, see the module docs).
    pub has_call: bool,
    /// Cells written through exact addresses.
    pub stored_exact: BTreeSet<(usize, i32)>,
    /// Globals written through rooted run-time addresses.
    pub stored_bases: BTreeSet<usize>,
}

impl LoopClobbers {
    /// Summarizes the stores and calls of the given blocks.
    pub fn summarize(f: &MirFunction, body: &BTreeSet<BlockId>, addrs: &FnAddrs) -> LoopClobbers {
        let mut c = LoopClobbers::default();
        for &b in body {
            for inst in &f.block(b).insts {
                match inst {
                    Inst::Store { addr, .. } => match addrs.info(*addr) {
                        AddrInfo::Exact { global, offset } => {
                            c.stored_exact.insert((global, offset));
                        }
                        AddrInfo::Base { global } => {
                            c.stored_bases.insert(global);
                        }
                        AddrInfo::Unknown => c.unknown_store = true,
                    },
                    Inst::Call { .. } | Inst::CallInd { .. } => c.has_call = true,
                    _ => {}
                }
            }
        }
        c
    }

    /// `true` if a load from `info` may observe a write performed inside
    /// the summarized blocks.
    pub fn clobbers(&self, info: AddrInfo, model: &MemoryModel) -> bool {
        if self.unknown_store {
            return true;
        }
        match info {
            AddrInfo::Exact { global, offset } => {
                (self.has_call && !model.is_rodata(global))
                    || self.stored_bases.contains(&global)
                    || self
                        .stored_exact
                        .iter()
                        .any(|&(g, o)| g == global && overlaps(o, offset))
            }
            AddrInfo::Base { global } => {
                (self.has_call && !model.is_rodata(global))
                    || self.stored_bases.contains(&global)
                    || self.stored_exact.iter().any(|(g, _)| *g == global)
            }
            AddrInfo::Unknown => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{Block, GlobalData, Term, Word};

    fn func(insts: Vec<Inst>) -> MirFunction {
        MirFunction {
            name: "m".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts,
                term: Term::Ret(None),
            }],
            next_vreg: 32,
        }
    }

    #[test]
    fn resolves_addr_const_chains_to_exact_cells() {
        let f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 0,
                offset: 4,
            },
            Inst::Const {
                dst: VReg(2),
                value: 8,
            },
            Inst::Bin {
                op: BinOp::Add,
                dst: VReg(3),
                lhs: VReg(1),
                rhs: VReg(2),
            },
            Inst::Bin {
                op: BinOp::Sub,
                dst: VReg(4),
                lhs: VReg(3),
                rhs: VReg(2),
            },
            Inst::Copy {
                dst: VReg(5),
                src: VReg(4),
            },
        ]);
        let a = FnAddrs::analyze(&f);
        assert_eq!(
            a.info(VReg(3)),
            AddrInfo::Exact {
                global: 0,
                offset: 12
            }
        );
        assert_eq!(
            a.info(VReg(5)),
            AddrInfo::Exact {
                global: 0,
                offset: 4
            }
        );
    }

    #[test]
    fn runtime_index_keeps_the_root() {
        // addr = &g1 + (v0 * 4): rooted at g1, offset unknown.
        let f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 1,
                offset: 0,
            },
            Inst::Const {
                dst: VReg(2),
                value: 4,
            },
            Inst::Bin {
                op: BinOp::Mul,
                dst: VReg(3),
                lhs: VReg(0),
                rhs: VReg(2),
            },
            Inst::Bin {
                op: BinOp::Add,
                dst: VReg(4),
                lhs: VReg(1),
                rhs: VReg(3),
            },
        ]);
        let a = FnAddrs::analyze(&f);
        assert_eq!(a.info(VReg(4)), AddrInfo::Base { global: 1 });
        // The scaled index itself has no root.
        assert_eq!(a.info(VReg(3)), AddrInfo::Unknown);
        // Parameters are untraceable.
        assert_eq!(a.info(VReg(0)), AddrInfo::Unknown);
    }

    #[test]
    fn multiply_defined_registers_resolve_unknown() {
        let mut f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 0,
                offset: 0,
            },
            Inst::Addr {
                dst: VReg(1),
                global: 1,
                offset: 0,
            },
        ]);
        f.next_vreg = 2;
        let a = FnAddrs::analyze(&f);
        assert_eq!(a.info(VReg(1)), AddrInfo::Unknown);
    }

    #[test]
    fn phi_meets_addresses() {
        let f = func(vec![
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
            Inst::Phi {
                dst: VReg(3),
                args: vec![(BlockId(0), VReg(1)), (BlockId(0), VReg(2))],
            },
            Inst::Phi {
                dst: VReg(4),
                args: vec![(BlockId(0), VReg(1)), (BlockId(0), VReg(1))],
            },
        ]);
        let a = FnAddrs::analyze(&f);
        assert_eq!(a.info(VReg(3)), AddrInfo::Base { global: 0 });
        assert_eq!(
            a.info(VReg(4)),
            AddrInfo::Exact {
                global: 0,
                offset: 0
            }
        );
    }

    #[test]
    fn alias_relation_matches_the_model() {
        let e = |g, o| AddrInfo::Exact {
            global: g,
            offset: o,
        };
        let b = |g| AddrInfo::Base { global: g };
        assert_eq!(alias(e(0, 4), e(0, 4)), Alias::Must);
        assert_eq!(alias(e(0, 4), e(0, 8)), Alias::No);
        assert_eq!(alias(e(0, 4), e(1, 4)), Alias::No);
        assert_eq!(alias(e(0, 4), b(0)), Alias::May);
        assert_eq!(alias(e(0, 4), b(1)), Alias::No);
        assert_eq!(alias(b(0), b(0)), Alias::May);
        assert_eq!(alias(b(0), AddrInfo::Unknown), Alias::May);
        // Word accesses at byte granularity: offsets less than a word
        // apart partially overlap in both directions.
        assert_eq!(alias(e(0, 0), e(0, 2)), Alias::May);
        assert_eq!(alias(e(0, 5), e(0, 2)), Alias::May);
        assert_eq!(alias(e(0, 2), e(0, 6)), Alias::No);
        assert_eq!(alias(e(0, i32::MAX), e(0, i32::MIN)), Alias::May);
    }

    #[test]
    fn overlap_distance_is_wrapping_safe() {
        assert!(overlaps(0, 0));
        assert!(overlaps(0, 3) && overlaps(3, 0));
        assert!(!overlaps(0, 4) && !overlaps(4, 0));
        assert!(overlaps(i32::MAX, i32::MIN), "adjacent across the wrap");
        assert!(!overlaps(i32::MIN, 4));
    }

    #[test]
    fn memory_model_knows_rodata() {
        let program = Program {
            functions: vec![],
            globals: vec![
                GlobalData {
                    name: "ctx".into(),
                    size: 8,
                    words: vec![Word::Int(0), Word::Int(0)],
                    mutable: true,
                },
                GlobalData {
                    name: "tbl".into(),
                    size: 4,
                    words: vec![Word::Int(1)],
                    mutable: false,
                },
            ],
            externs: vec![],
        };
        let m = MemoryModel::of(&program);
        assert!(!m.is_rodata(0));
        assert!(m.is_rodata(1));
        assert!(!m.is_rodata(7), "unknown globals are treated as mutable");
        assert!(!MemoryModel::default().is_rodata(0));
    }

    #[test]
    fn cell_universe_collects_exact_accesses_only() {
        let f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 0,
                offset: 4,
            },
            Inst::Load {
                dst: VReg(2),
                addr: VReg(1),
            },
            Inst::Addr {
                dst: VReg(3),
                global: 1,
                offset: 0,
            },
            // Rooted run-time address: contributes no cell.
            Inst::Bin {
                op: BinOp::Add,
                dst: VReg(4),
                lhs: VReg(3),
                rhs: VReg(0),
            },
            Inst::Store {
                addr: VReg(4),
                src: VReg(0),
            },
            Inst::Store {
                addr: VReg(3),
                src: VReg(0),
            },
        ]);
        let addrs = FnAddrs::analyze(&f);
        let cells = cell_universe(&f, &addrs);
        assert_eq!(cells, BTreeSet::from([(0, 4), (1, 0)]));
        assert_eq!(
            cell_info((0, 4)),
            AddrInfo::Exact {
                global: 0,
                offset: 4
            }
        );
    }

    #[test]
    fn cell_state_tracks_provides_kills_and_revivals() {
        let universe: BTreeSet<Cell> = BTreeSet::from([(0, 0), (0, 4), (1, 0)]);
        let f = func(vec![
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
            Inst::Addr {
                dst: VReg(3),
                global: 1,
                offset: 0,
            },
        ]);
        let addrs = FnAddrs::analyze(&f);
        let model = MemoryModel::default();
        let mut st = CellState::new(&universe);
        // A store provides its own cell.
        st.apply(
            &Inst::Store {
                addr: VReg(1),
                src: VReg(0),
            },
            &addrs,
            &model,
        );
        assert_eq!(st.value((0, 0)), CellVal::Reg(VReg(0)));
        assert_eq!(st.value((0, 4)), CellVal::FromEntry);
        // A call clobbers every mutable cell.
        st.apply(
            &Inst::Call {
                dst: None,
                func: 0,
                args: vec![],
            },
            &addrs,
            &model,
        );
        assert_eq!(st.value((0, 0)), CellVal::Clobbered);
        assert_eq!(st.value((0, 4)), CellVal::Clobbered);
        // A load revives its cell.
        st.apply(
            &Inst::Load {
                dst: VReg(9),
                addr: VReg(2),
            },
            &addrs,
            &model,
        );
        assert_eq!(st.value((0, 4)), CellVal::Reg(VReg(9)));
        // A store through a rooted run-time address kills its global only.
        st.apply(
            &Inst::Store {
                addr: VReg(3),
                src: VReg(0),
            },
            &addrs,
            &model,
        );
        assert_eq!(st.value((1, 0)), CellVal::Reg(VReg(0)));
        let mut st2 = CellState::new(&universe);
        let f2 = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 1,
                offset: 0,
            },
            Inst::Bin {
                op: BinOp::Add,
                dst: VReg(2),
                lhs: VReg(1),
                rhs: VReg(0),
            },
        ]);
        let addrs2 = FnAddrs::analyze(&f2);
        st2.apply(
            &Inst::Store {
                addr: VReg(2),
                src: VReg(0),
            },
            &addrs2,
            &model,
        );
        assert_eq!(st2.value((1, 0)), CellVal::Clobbered);
        assert_eq!(st2.value((0, 0)), CellVal::FromEntry);
    }

    #[test]
    fn block_cells_summarize_and_flow() {
        let universe: BTreeSet<Cell> = BTreeSet::from([(0, 0), (0, 4), (0, 8)]);
        // An unaligned store at byte 2 clobbers both words it straddles,
        // then (0,0) is re-provided by a store; (0,8) is never touched.
        let f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 0,
                offset: 2,
            },
            Inst::Store {
                addr: VReg(1),
                src: VReg(0),
            },
            Inst::Addr {
                dst: VReg(2),
                global: 0,
                offset: 0,
            },
            Inst::Store {
                addr: VReg(2),
                src: VReg(0),
            },
        ]);
        let addrs = FnAddrs::analyze(&f);
        let model = MemoryModel::default();
        let cells = BlockCells::summarize(&f, BlockId(0), &universe, &addrs, &model);
        assert_eq!(cells.provides.get(&(0, 0)), Some(&VReg(0)));
        assert!(cells.killed.contains(&(0, 4)), "straddled word is killed");
        assert!(cells.transparent((0, 8)));
        let entry: BTreeSet<Cell> = BTreeSet::from([(0, 4), (0, 8)]);
        let out = cells.flow(&entry);
        assert_eq!(out, BTreeSet::from([(0, 0), (0, 8)]));
    }

    #[test]
    fn loop_clobbers_distinguish_cells_and_roots() {
        let f = func(vec![
            Inst::Addr {
                dst: VReg(1),
                global: 0,
                offset: 0,
            },
            Inst::Store {
                addr: VReg(1),
                src: VReg(0),
            },
        ]);
        let addrs = FnAddrs::analyze(&f);
        let body: BTreeSet<BlockId> = BTreeSet::from([BlockId(0)]);
        let c = LoopClobbers::summarize(&f, &body, &addrs);
        let model = MemoryModel::default();
        assert!(c.clobbers(
            AddrInfo::Exact {
                global: 0,
                offset: 0
            },
            &model
        ));
        assert!(
            c.clobbers(
                AddrInfo::Exact {
                    global: 0,
                    offset: 2
                },
                &model
            ),
            "sub-word overlap with the stored cell clobbers"
        );
        assert!(!c.clobbers(
            AddrInfo::Exact {
                global: 0,
                offset: 4
            },
            &model
        ));
        assert!(!c.clobbers(AddrInfo::Base { global: 1 }, &model));
        assert!(c.clobbers(AddrInfo::Base { global: 0 }, &model));
        assert!(c.clobbers(AddrInfo::Unknown, &model));
    }

    #[test]
    fn calls_clobber_mutable_globals_only() {
        let f = func(vec![Inst::Call {
            dst: None,
            func: 0,
            args: vec![],
        }]);
        let addrs = FnAddrs::analyze(&f);
        let body: BTreeSet<BlockId> = BTreeSet::from([BlockId(0)]);
        let c = LoopClobbers::summarize(&f, &body, &addrs);
        let program = Program {
            functions: vec![],
            globals: vec![GlobalData {
                name: "tbl".into(),
                size: 4,
                words: vec![Word::Int(1)],
                mutable: false,
            }],
            externs: vec![],
        };
        let model = MemoryModel::of(&program);
        assert!(!c.clobbers(
            AddrInfo::Exact {
                global: 0,
                offset: 0
            },
            &model
        ));
        assert!(c.clobbers(
            AddrInfo::Exact {
                global: 1,
                offset: 0
            },
            &model
        ));
    }
}
