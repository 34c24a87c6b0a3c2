//! Event storms on the fast engine, timed in fixed-size chunks.
//!
//! A storm is `bench::throughput::run_storm` called back to back on one
//! engine, [`CHUNK_EVENTS`] events per call: every call re-runs `sm_init`
//! and then cycles through the machine's event codes, so each chunk
//! replays the same trajectory and costs the same instructions. Timing
//! each call gives the per-event cost distribution (`step_ns_*`) without
//! a clock read per event.

use std::time::Instant;

use bench::throughput::{run_storm, CountingEnv};
use cgen::CodeMap;
use occ::vm::{CoverageSink, DecodedProgram, FastVm};

/// Events per timed chunk.
pub const CHUNK_EVENTS: usize = 1024;

/// What one storm round over a cell set did.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Events delivered.
    pub events: u64,
    /// Instructions executed (deterministic).
    pub dyn_insts: u64,
    /// Seconds spent inside `run_storm` calls.
    pub secs: f64,
    /// Nanoseconds per event of every chunk that delivered events.
    pub chunk_ns: Vec<f64>,
    /// Storm chunks that faulted, with the first fault's description.
    pub faults: Vec<String>,
    /// Chunks attempted.
    pub chunks: u64,
}

/// Storms every program for `chunks` chunks of [`CHUNK_EVENTS`] events.
pub fn round<'a>(
    cells: impl IntoIterator<Item = (&'a DecodedProgram, &'a CodeMap)>,
    chunks: usize,
) -> Round {
    let mut out = Round::default();
    for (prog, codes) in cells {
        let mut vm = FastVm::new(prog, CountingEnv::default());
        for _ in 0..chunks {
            out.chunks += 1;
            let t = Instant::now();
            let result = run_storm(&mut vm, codes, CHUNK_EVENTS);
            let secs = t.elapsed().as_secs_f64();
            out.secs += secs;
            match result {
                Ok(r) => {
                    out.events += r.events as u64;
                    out.dyn_insts += r.dyn_insts;
                    if r.events > 0 {
                        out.chunk_ns.push(secs * 1e9 / r.events as f64);
                    }
                }
                Err(e) => {
                    out.faults.push(format!("storm fault: {e}"));
                    break;
                }
            }
        }
    }
    out
}

/// Counts fetches: one per dispatched (possibly fused) op.
struct Dispatches(u64);

impl CoverageSink for Dispatches {
    #[inline]
    fn record(&mut self, _op_index: u32) {
        self.0 += 1;
    }
}

/// Dispatch counts of one chunk, measured through the coverage hook.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Events delivered.
    pub events: u64,
    /// Instructions executed.
    pub dyn_insts: u64,
    /// Ops fetched. A fused superinstruction is one fetch that executes
    /// two instructions, so `dyn_insts - dispatches` fetches were fused.
    pub dispatches: u64,
}

/// Replays exactly one `run_storm` chunk (`sm_init`, then
/// [`CHUNK_EVENTS`] event codes in cycling order) through
/// `FastVm::run_with_coverage` with a fetch-counting sink.
///
/// # Errors
///
/// The first VM fault, described.
pub fn count_dispatches(prog: &DecodedProgram, codes: &CodeMap) -> Result<Dispatch, String> {
    let mut vm = FastVm::new(prog, CountingEnv::default()).with_fuel(u64::MAX);
    let mut sink = Dispatches(0);
    let fault = |e| format!("storm fault: {e}");
    vm.run_with_coverage("sm_init", &[], &mut sink)
        .map_err(fault)?;
    let n = codes.event_count();
    let mut events = 0;
    if n > 0 {
        for i in 0..CHUNK_EVENTS {
            vm.run_with_coverage("sm_step", &[(i % n) as i32], &mut sink)
                .map_err(fault)?;
        }
        events = CHUNK_EVENTS as u64;
    }
    Ok(Dispatch {
        events,
        dyn_insts: vm.executed(),
        dispatches: sink.0,
    })
}
