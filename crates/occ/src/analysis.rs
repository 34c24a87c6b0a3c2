//! The mid-end's per-function analysis cache and the change classes its
//! invalidation is keyed on.
//!
//! Every SSA pass, φ-free post pass, [`crate::opt::simplify_cfg`] and
//! [`crate::ssa::construct`]/[`crate::ssa::destruct`] reads the analyses
//! it needs from one [`AnalysisCache`] instead of deriving them itself.
//! Each entry is computed on first use and shared ([`Rc`]) until a pass
//! reports a [`Changed`] class that invalidates it:
//!
//! | entry | depends on | survives [`Changed::Insts`] |
//! |---|---|---|
//! | [`AnalysisCache::preds`] | successor lists | ✓ |
//! | [`AnalysisCache::rpo`], [`AnalysisCache::reachable`] | successor lists | ✓ |
//! | [`AnalysisCache::dominators`] | successor lists | ✓ |
//! | [`AnalysisCache::loops`] | successor lists | ✓ |
//! | [`AnalysisCache::frontiers`] | successor lists | ✓ |
//! | [`AnalysisCache::fn_addrs`] | instructions | |
//! | [`AnalysisCache::avail_loads`] | instructions, successor lists | |
//!
//! [`Changed::Cfg`] drops everything. The CFG analyses read nothing but
//! the block count and each terminator's successor list, so a pass that
//! rewrites instructions, φs or terminator *operands* while keeping every
//! successor list reports [`Changed::Insts`] and they survive.
//!
//! A pass that mutates and then queries again within one run invalidates
//! at the point of mutation ([`AnalysisCache::invalidate`]); the
//! mutation helpers that rewrite the CFG themselves
//! ([`crate::ssa::remove_unreachable_blocks`]) do so on the caller's
//! behalf. The cache serves one function under one
//! [`mem::MemoryModel`]: [`AnalysisCache::avail_loads`] takes the model
//! but is not keyed on it.
//!
//! In debug builds under `OCC_VERIFY=each` the
//! [`crate::opt::PassManager`] recomputes every cached entry after every
//! pass ([`AnalysisCache::stale`]), so a pass that under-reports its
//! change class fails as a verifier error naming the pass and round.
//!
//! ```
//! use occ::analysis::{AnalysisCache, Changed};
//! use occ::mir::{Block, BlockId, MirFunction, Term};
//! use std::rc::Rc;
//!
//! let f = MirFunction {
//!     name: "f".into(),
//!     params: 0,
//!     returns_value: false,
//!     exported: true,
//!     blocks: vec![
//!         Block { insts: vec![], term: Term::Goto(BlockId(1)) },
//!         Block { insts: vec![], term: Term::Ret(None) },
//!     ],
//!     next_vreg: 0,
//! };
//! let mut cache = AnalysisCache::new();
//! let idom = cache.dominators(&f);
//! assert_eq!(idom[&BlockId(1)], BlockId(0));
//! // Instruction-only changes keep the CFG analyses...
//! cache.invalidate(Changed::Insts);
//! assert!(Rc::ptr_eq(&idom, &cache.dominators(&f)));
//! // ...a CFG change drops them.
//! cache.invalidate(Changed::Cfg);
//! assert!(!Rc::ptr_eq(&idom, &cache.dominators(&f)));
//! ```

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::rc::Rc;

use crate::cfg::{self, NaturalLoop};
use crate::mem;
use crate::mir::{BlockId, MirFunction};
use crate::opt::{self, AvailLoads};

/// What a pass changed, from least to most invalidating (the derived
/// order makes `a.max(b)` the class of doing both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Changed {
    /// The function is untouched (`==` to its state before the pass).
    #[default]
    Nothing,
    /// Instructions, φs or terminator operands changed; the block count
    /// and every successor list are as before, so the CFG analyses stay
    /// valid.
    Insts,
    /// The CFG changed: a successor list, the block count or the block
    /// numbering. Every analysis is dropped.
    Cfg,
}

impl Changed {
    /// `true` unless [`Changed::Nothing`].
    pub fn any(self) -> bool {
        self != Changed::Nothing
    }

    /// [`Changed::Insts`] if `changed`, else [`Changed::Nothing`].
    pub(crate) fn insts_if(changed: bool) -> Changed {
        if changed {
            Changed::Insts
        } else {
            Changed::Nothing
        }
    }

    /// [`Changed::Cfg`] if `changed`, else [`Changed::Nothing`].
    pub(crate) fn cfg_if(changed: bool) -> Changed {
        if changed {
            Changed::Cfg
        } else {
            Changed::Nothing
        }
    }
}

/// Lazily computed analyses of one function state; see the module docs
/// for what each [`Changed`] class drops.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    preds: Option<Rc<Vec<Vec<BlockId>>>>,
    rpo: Option<Rc<Vec<BlockId>>>,
    reachable: Option<Rc<BTreeSet<BlockId>>>,
    idom: Option<Rc<BTreeMap<BlockId, BlockId>>>,
    loops: Option<Rc<Vec<NaturalLoop>>>,
    frontiers: Option<Rc<BTreeMap<BlockId, BTreeSet<BlockId>>>>,
    fn_addrs: Option<Rc<mem::FnAddrs>>,
    avail: Option<Rc<AvailLoads>>,
}

/// Returns the cached entry, computing and storing it first if absent.
/// A derived entry fetches its inputs before calling this; they are
/// cached whenever it is (one [`Changed`] class drops them together), so
/// that costs a reference-count bump.
fn memo<T>(slot: &mut Option<Rc<T>>, compute: impl FnOnce() -> T) -> Rc<T> {
    Rc::clone(slot.get_or_insert_with(|| Rc::new(compute())))
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Drops every entry `changed` may have made stale.
    pub fn invalidate(&mut self, changed: Changed) {
        match changed {
            Changed::Nothing => {}
            Changed::Insts => {
                self.fn_addrs = None;
                self.avail = None;
            }
            Changed::Cfg => *self = AnalysisCache::new(),
        }
    }

    /// [`cfg::predecessors`].
    pub fn preds(&mut self, f: &MirFunction) -> Rc<Vec<Vec<BlockId>>> {
        memo(&mut self.preds, || cfg::predecessors(f))
    }

    /// [`cfg::reverse_postorder`].
    pub fn rpo(&mut self, f: &MirFunction) -> Rc<Vec<BlockId>> {
        memo(&mut self.rpo, || cfg::reverse_postorder(f))
    }

    /// The blocks reachable from the entry: the blocks of
    /// [`AnalysisCache::rpo`].
    pub fn reachable(&mut self, f: &MirFunction) -> Rc<BTreeSet<BlockId>> {
        let rpo = self.rpo(f);
        memo(&mut self.reachable, || rpo.iter().copied().collect())
    }

    /// [`cfg::dominators`].
    pub fn dominators(&mut self, f: &MirFunction) -> Rc<BTreeMap<BlockId, BlockId>> {
        let (rpo, preds) = (self.rpo(f), self.preds(f));
        memo(&mut self.idom, || cfg::dominators_with(&rpo, &preds))
    }

    /// [`cfg::natural_loops`], innermost first.
    pub fn loops(&mut self, f: &MirFunction) -> Rc<Vec<NaturalLoop>> {
        let (idom, preds) = (self.dominators(f), self.preds(f));
        memo(&mut self.loops, || {
            cfg::natural_loops_with(f, &idom, &preds)
        })
    }

    /// [`cfg::dominance_frontiers`].
    pub fn frontiers(&mut self, f: &MirFunction) -> Rc<BTreeMap<BlockId, BTreeSet<BlockId>>> {
        let (idom, preds) = (self.dominators(f), self.preds(f));
        memo(&mut self.frontiers, || {
            cfg::dominance_frontiers_with(f, &idom, &preds)
        })
    }

    /// [`mem::FnAddrs::analyze`].
    pub fn fn_addrs(&mut self, f: &MirFunction) -> Rc<mem::FnAddrs> {
        memo(&mut self.fn_addrs, || mem::FnAddrs::analyze(f))
    }

    /// [`opt::avail_loads`] under `model`.
    pub fn avail_loads(&mut self, f: &MirFunction, model: &mem::MemoryModel) -> Rc<AvailLoads> {
        if let Some(a) = &self.avail {
            return Rc::clone(a);
        }
        let avail = opt::avail_loads(f, model, self);
        memo(&mut self.avail, || avail)
    }

    /// The names of the cached entries that differ from a fresh
    /// computation on `f` — empty when the cache is consistent with the
    /// function. This is the verify-each staleness check.
    pub fn stale(&self, f: &MirFunction, model: &mem::MemoryModel) -> Vec<&'static str> {
        fn differs<T: PartialEq>(
            cached: &Option<Rc<T>>,
            fresh: &mut AnalysisCache,
            compute: impl FnOnce(&mut AnalysisCache) -> Rc<T>,
        ) -> bool {
            cached.as_ref().is_some_and(|c| **c != *compute(fresh))
        }
        let mut fresh = AnalysisCache::new();
        let mut stale = Vec::new();
        if differs(&self.preds, &mut fresh, |c| c.preds(f)) {
            stale.push("preds");
        }
        if differs(&self.rpo, &mut fresh, |c| c.rpo(f)) {
            stale.push("rpo");
        }
        if differs(&self.reachable, &mut fresh, |c| c.reachable(f)) {
            stale.push("reachable");
        }
        if differs(&self.idom, &mut fresh, |c| c.dominators(f)) {
            stale.push("dominators");
        }
        if differs(&self.loops, &mut fresh, |c| c.loops(f)) {
            stale.push("loops");
        }
        if differs(&self.frontiers, &mut fresh, |c| c.frontiers(f)) {
            stale.push("frontiers");
        }
        if differs(&self.fn_addrs, &mut fresh, |c| c.fn_addrs(f)) {
            stale.push("fn_addrs");
        }
        if differs(&self.avail, &mut fresh, |c| c.avail_loads(f, model)) {
            stale.push("avail_loads");
        }
        stale
    }
}
