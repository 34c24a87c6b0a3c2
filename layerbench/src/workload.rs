//! The three workloads, each a closed loop with one client.
//!
//! Every workload prints every end-to-end metric; the README says what
//! each one measures on each workload. A run is a sequence of cycles
//! (build or rebuild, then storm what was built), so every kind of
//! sample is spread over the whole run. With tracing on, a workload sets
//! up once, runs one cycle, and additionally compiles every cell stage by
//! stage ([`trace::staged_compile`]) and counts storm dispatches
//! ([`trace::traced_storm`]); its timings then feed the per-layer
//! metrics only.
//!
//! # Timing statistic
//!
//! The host this benchmark was built on alternates between two speeds,
//! about 1.6× apart, in periods from a fraction of a second to tens of
//! seconds; identical work measured back to back moves with it, and CPU
//! time follows wall time, so it is not descheduling. A run therefore
//! repeats identical units of work (builds, rebuilds, storm rounds) and
//! reports each timing at the slow side of its repetitions, the
//! [`SLOW_QUANTILE`] of per-repetition values: the figure is then set by
//! the speed the host sustains in nearly every run rather than by how
//! much of a run fell into a fast period.

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cgen::CodeMap;
use occ::driver::{Driver, DriverStats};
use occ::vm::DecodedProgram;
use occ::{Artifact, CompileError, OptLevel};

use crate::corpus::{self, Cell, Inputs};
use crate::oracle::{self, Observable};
use crate::report::{self, median, quantile, Outcome};
use crate::storm;
use crate::trace::{self, Trace, PASSES};

/// Worker threads of parallel phases: the host's two cores.
pub const THREADS: usize = 2;
/// Quantile of per-repetition times reported (see the module doc).
pub const SLOW_QUANTILE: f64 = 0.9;
/// Set-ups per `corpus-cold` cycle.
pub const COLD_SETUPS: usize = 4;
/// Set-ups per `incremental-rebuild` run (each fills the disk cache).
pub const REBUILD_SETUPS: usize = 3;
/// Storm chunks per cell per round after a corpus build.
pub const CORPUS_STORM_CHUNKS: usize = 8;
/// Storm rounds after each cold build.
pub const CORPUS_STORM_ROUNDS: usize = 4;
/// Storm rounds after each pair of rebuilds.
pub const REBUILD_STORM_ROUNDS: usize = 2;
/// Storm chunks per cell per round in `event-storm`.
pub const STORM_CHUNKS: usize = 16;
/// Storm rounds after each `event-storm` set-up.
pub const STORM_ROUNDS: usize = 6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The model-to-binary flow over the cold slice into an empty cache.
    CorpusCold,
    /// Long event storms over cells compiled during set-up.
    EventStorm,
    /// A rebuild of the rebuild slice from a warm disk cache after a
    /// small edit.
    IncrementalRebuild,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusCold,
        Workload::EventStorm,
        Workload::IncrementalRebuild,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus-cold",
            Workload::EventStorm => "event-storm",
            Workload::IncrementalRebuild => "incremental-rebuild",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed (see [`corpus`] for what it draws).
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Run traced (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Machines of the cold slice ([`corpus::COLD_MACHINES`]).
    pub cold_machines: usize,
    /// Machines of the rebuild slice ([`corpus::REBUILD_MACHINES`]).
    pub rebuild_machines: usize,
    /// Scratch directory for disk caches; removed when the run ends.
    pub work_dir: PathBuf,
}

impl Params {
    /// The benchmark's own slice sizes.
    pub fn new(seed: u64, seconds: f64, trace: bool, work_dir: PathBuf) -> Params {
        Params {
            seed,
            seconds,
            trace,
            cold_machines: corpus::COLD_MACHINES,
            rebuild_machines: corpus::REBUILD_MACHINES,
            work_dir,
        }
    }
}

/// Runs one workload. The outcome holds every end-to-end metric, and,
/// when traced, every per-layer metric (its end-to-end timings are then
/// not meaningful; its deterministic counts are).
///
/// # Errors
///
/// A description of a failure that stopped the run (as opposed to a
/// failed operation, which is counted in the outcome).
pub fn run(workload: Workload, p: &Params) -> Result<Outcome, String> {
    let mut trace = if p.trace { Trace::on() } else { Trace::off() };
    let mut out = Outcome::default();
    std::fs::create_dir_all(&p.work_dir)
        .map_err(|e| format!("creating {}: {e}", p.work_dir.display()))?;
    let result = match workload {
        Workload::CorpusCold => corpus_cold(p, &mut trace, &mut out),
        Workload::EventStorm => event_storm(p, &mut trace, &mut out),
        Workload::IncrementalRebuild => incremental_rebuild(p, &mut trace, &mut out),
    };
    let cleanup = std::fs::remove_dir_all(&p.work_dir);
    result?;
    cleanup.map_err(|e| format!("removing {}: {e}", p.work_dir.display()))?;
    out.set("peak_rss_mb", report::peak_rss_mb()?);
    if trace.is_on() {
        finish_trace(&trace, &mut out);
    }
    Ok(out)
}

type Compiled = Result<Arc<Artifact>, CompileError>;

/// One pass of the driver over a job list.
struct Build {
    results: Vec<Compiled>,
    /// Per-job `Driver::compile` latency in ms (empty for `compile_batch`).
    lat_ms: Vec<f64>,
    /// Wall-clock of the whole pass in seconds.
    wall: f64,
    /// Which jobs compiled (traced serial builds only).
    missed: Vec<bool>,
    stats: DriverStats,
    threads: usize,
}

/// `Driver::compile` on every job in order, timing each call.
fn serial_build(driver: &Driver, inputs: &Inputs, classify: bool) -> Build {
    let mut lat_ms = Vec::with_capacity(inputs.jobs.len());
    let mut missed = Vec::new();
    let start = Instant::now();
    let results = inputs
        .jobs
        .iter()
        .map(|(module, level)| {
            let before = if classify { driver.stats().misses } else { 0 };
            let t = Instant::now();
            let r = driver.compile(module, *level);
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if classify {
                missed.push(driver.stats().misses > before);
            }
            r
        })
        .collect();
    Build {
        results,
        lat_ms,
        wall: start.elapsed().as_secs_f64(),
        missed,
        stats: driver.stats(),
        threads: 1,
    }
}

/// `Driver::compile_batch` on `threads` threads.
fn batch_build(driver: &Driver, inputs: &Inputs, threads: usize) -> Build {
    let batch = driver.compile_batch(&inputs.jobs, threads);
    Build {
        results: batch.results,
        lat_ms: Vec::new(),
        wall: batch.wall.as_secs_f64(),
        missed: Vec::new(),
        stats: driver.stats(),
        threads,
    }
}

/// Runs `setup` `times` times (once when traced) and returns the last
/// result with every wall-clock in seconds.
fn setups<T>(
    p: &Params,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let times = if p.trace { 1 } else { times };
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // The previous set-up's result goes before the next one is built,
        // so set-ups never hold two copies of their inputs.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), walls))
}

fn oracles(inputs: &Inputs) -> Vec<Result<Observable, String>> {
    inputs
        .subjects
        .iter()
        .map(|s| oracle::model_trace(&s.model, &s.check_events))
        .collect()
}

/// Counts every compile, checks every compiled cell against the model,
/// and returns the summed code size of the compiled cells.
fn check_cells(
    out: &mut Outcome,
    inputs: &Inputs,
    oracles: &[Result<Observable, String>],
    results: &[Compiled],
) -> f64 {
    let mut bytes = 0;
    for (cell, result) in inputs.cells.iter().zip(results) {
        let s = &inputs.subjects[cell.subject];
        let g = inputs.generated(*cell);
        let at = |e: String| format!("{}/{}/{}: {e}", s.name, g.pattern, cell.level);
        let Some(artifact) = out.record(result.clone().map_err(|e| at(e.to_string()))) else {
            continue;
        };
        bytes += artifact.sizes().total();
        let checked = match &oracles[cell.subject] {
            Ok(expected) => oracle::check(artifact.decoded(), &g.codes, &s.check_events, expected),
            Err(e) => Err(e.clone()),
        };
        out.record(checked.map_err(at));
    }
    bytes as f64
}

/// Fails the run unless `value` equals the first value seen for `what`.
fn same(out: &mut Outcome, what: &str, first: &mut Option<f64>, value: f64) {
    match *first {
        None => *first = Some(value),
        Some(f) if f != value => {
            out.fail(format!("{what} moved between repetitions: {f} vs {value}"))
        }
        Some(_) => {}
    }
}

/// Fails the run unless a driver session saw exactly this hit/miss mix.
fn expect_mix(out: &mut Outcome, stats: &DriverStats, disk_hits: usize, misses: usize) {
    if (
        stats.mem_hits,
        stats.disk_hits,
        stats.misses,
        stats.rejected,
    ) != (0, disk_hits, misses, 0)
    {
        out.fail(format!(
            "expected {disk_hits} disk hits and {misses} misses, got {} memory hits, {} disk hits, \
             {} misses, {} rejected",
            stats.mem_hits, stats.disk_hits, stats.misses, stats.rejected
        ));
    }
}

/// The decoded programs and event maps of the compiled cells `keep`
/// accepts.
fn programs<'a>(
    inputs: &'a Inputs,
    results: &'a [Compiled],
    keep: impl Fn(&Cell) -> bool,
) -> Vec<(&'a DecodedProgram, &'a CodeMap)> {
    inputs
        .cells
        .iter()
        .zip(results)
        .filter(|(cell, _)| keep(cell))
        .filter_map(|(cell, r)| r.as_ref().ok().map(|a| (a.decoded(), inputs.codes(*cell))))
        .collect()
}

fn set_setup(out: &mut Outcome, walls: &[f64]) {
    out.set("setup_s", median(walls));
    out.notes.push(format!("set-up s: {}", series(walls)));
}

fn slow(xs: &[f64]) -> f64 {
    quantile(xs, SLOW_QUANTILE)
}

/// `xs` to four significant digits, for the human-readable notes.
fn series(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs `cycle` at least `min` times and then while another cycle of
/// the mean length still fits in `p.seconds`; exactly once when traced.
fn cycles(
    p: &Params,
    min: usize,
    mut cycle: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        cycle()?;
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if p.trace || (n >= min && elapsed * (n + 1) as f64 / n as f64 > p.seconds) {
            return Ok(());
        }
    }
}

/// Repeated builds of the same `cells` cells.
#[derive(Default)]
struct Builds {
    /// Whole-build wall-clocks, seconds.
    walls: Vec<f64>,
    /// Per-build lists of per-cell latencies, ms.
    lat_ms: Vec<Vec<f64>>,
    code_bytes: Option<f64>,
}

impl Builds {
    /// Checks a build's cells and mix and keeps its timings.
    fn add(
        &mut self,
        out: &mut Outcome,
        inputs: &Inputs,
        oracles: &[Result<Observable, String>],
        build: &Build,
        mix: (usize, usize),
    ) {
        expect_mix(out, &build.stats, mix.0, mix.1);
        let bytes = check_cells(out, inputs, oracles, &build.results);
        same(out, "code_bytes", &mut self.code_bytes, bytes);
        if !build.lat_ms.is_empty() {
            self.lat_ms.push(build.lat_ms.clone());
        }
    }

    /// Sets the compile metrics from the builds of `cells` cells.
    fn finish(&self, out: &mut Outcome, cells: usize) {
        let wall = slow(&self.walls);
        let per_build =
            |q: f64| -> Vec<f64> { self.lat_ms.iter().map(|l| quantile(l, q)).collect() };
        out.set("rebuild_s", wall);
        out.set("compile_cells_per_s", cells as f64 / wall);
        out.set("compile_ms_p50", slow(&per_build(0.50)));
        out.set("compile_ms_p95", slow(&per_build(0.95)));
        out.set("code_bytes", self.code_bytes.unwrap_or(0.0));
        out.notes.push(format!(
            "{cells} cells per build; {} latency samples in each of {} builds",
            self.lat_ms.first().map_or(0, Vec::len),
            self.lat_ms.len()
        ));
        if !self.walls.is_empty() {
            out.notes
                .push(format!("build wall s: {}", series(&self.walls)));
        }
    }
}

/// Storm rounds over the cells built in each cycle.
#[derive(Default)]
struct Storms {
    secs: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    events: u64,
    per_event: Option<f64>,
    cells: usize,
}

impl Storms {
    /// Storms every cell for `chunks` chunks, `rounds` times; traced,
    /// storms each cell once with dispatch counts instead.
    fn rounds(
        &mut self,
        out: &mut Outcome,
        trace: &mut Trace,
        cells: &[(&DecodedProgram, &CodeMap)],
        chunks: usize,
        rounds: usize,
    ) {
        self.cells = cells.len();
        if trace.is_on() {
            for (prog, codes) in cells {
                out.attempted += chunks as u64;
                if let Err(e) = trace::traced_storm(trace, prog, codes, chunks) {
                    out.fail(e);
                }
            }
            self.per_event = Some(trace.get("storm_insts") / trace.get("storm_events"));
            return;
        }
        for _ in 0..rounds {
            let round = storm::round(cells.iter().copied(), chunks);
            out.attempted += round.chunks;
            for f in round.faults {
                out.fail(f);
            }
            self.events = round.events;
            self.secs.push(round.secs);
            self.p50.push(quantile(&round.chunk_ns, 0.50));
            self.p99.push(quantile(&round.chunk_ns, 0.99));
            let per_event = round.dyn_insts as f64 / round.events as f64;
            same(out, "dyn_insts_per_event", &mut self.per_event, per_event);
        }
    }

    fn finish(&self, out: &mut Outcome) {
        out.set("dyn_insts_per_event", self.per_event.unwrap_or(0.0));
        if self.secs.is_empty() {
            return;
        }
        out.set("events_per_s", self.events as f64 / slow(&self.secs));
        out.set("step_ns_p50", slow(&self.p50));
        out.set("step_ns_p99", slow(&self.p99));
        out.notes.push(format!(
            "{} cells stormed; {} rounds of {} events in chunks of {}",
            self.cells,
            self.secs.len(),
            self.events,
            storm::CHUNK_EVENTS
        ));
        out.notes
            .push(format!("storm round s: {}", series(&self.secs)));
    }
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

fn fresh_dir(p: &Params, name: &str) -> Result<PathBuf, String> {
    let dir = p.work_dir.join(name);
    if dir.exists() {
        remove(&dir)?;
    }
    Ok(dir)
}

fn entries(dir: &Path) -> Result<BTreeSet<OsString>, String> {
    std::fs::read_dir(dir)
        .and_then(|rd| rd.map(|e| e.map(|e| e.file_name())).collect())
        .map_err(|e| format!("listing {}: {e}", dir.display()))
}

/// Deletes every cache entry not in `keep`, so the next rebuild sees
/// the same misses again.
fn prune(dir: &Path, keep: &BTreeSet<OsString>) -> Result<(), String> {
    for name in entries(dir)?.difference(keep) {
        let path = dir.join(name);
        std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Compiles every job into a fresh disk-tier driver, one thread.
fn cold_build(p: &Params, inputs: &Inputs, trace: &Trace) -> Result<Build, String> {
    let dir = fresh_dir(p, "cold")?;
    let driver = Driver::with_disk_cache(&dir);
    let build = serial_build(&driver, inputs, trace.is_on());
    drop(driver);
    remove(&dir)?;
    Ok(build)
}

// ----------------------------------------------------------------------
// corpus-cold
// ----------------------------------------------------------------------

fn corpus_cold(p: &Params, trace: &mut Trace, out: &mut Outcome) -> Result<(), String> {
    let (mut builds, mut storms, mut setup, mut n) =
        (Builds::default(), Storms::default(), Vec::new(), 0);
    // Each cycle sets up afresh, so set-ups are spread over the run like
    // the builds and storms; a set-up takes tens of milliseconds, so each
    // cycle repeats it for enough samples.
    cycles(p, 2, || {
        let (inputs, walls) = setups(p, COLD_SETUPS, || {
            corpus::corpus(p.seed, p.cold_machines, trace)
        })?;
        setup.extend(walls);
        n = inputs.cells.len();
        let oracles = oracles(&inputs);
        let build = cold_build(p, &inputs, trace)?;
        builds.walls.push(build.wall);
        builds.add(out, &inputs, &oracles, &build, (0, n));
        if trace.is_on() {
            trace_build(trace, &build);
            stage_all(trace, out, &inputs, &build);
        }
        let os = programs(&inputs, &build.results, |c| c.level == OptLevel::Os);
        storms.rounds(out, trace, &os, CORPUS_STORM_CHUNKS, CORPUS_STORM_ROUNDS);
        Ok(())
    })?;
    set_setup(out, &setup);
    builds.finish(out, n);
    storms.finish(out);
    Ok(())
}

// ----------------------------------------------------------------------
// event-storm
// ----------------------------------------------------------------------

fn event_storm(p: &Params, trace: &mut Trace, out: &mut Outcome) -> Result<(), String> {
    let (mut builds, mut storms, mut setup, mut n) =
        (Builds::default(), Storms::default(), Vec::new(), 0);
    // Each cycle sets up afresh (the set-up compile is where this
    // workload's compile figures come from) and then storms what it
    // built, so set-ups are spread over the whole run like the storms.
    cycles(p, 2, || {
        let t = Instant::now();
        let inputs = corpus::storm_set(p.seed, p.cold_machines, trace)?;
        let build = cold_build(p, &inputs, trace)?;
        setup.push(t.elapsed().as_secs_f64());
        n = inputs.cells.len();
        builds.walls.push(build.wall);
        builds.add(out, &inputs, &oracles(&inputs), &build, (0, n));
        if trace.is_on() {
            trace_build(trace, &build);
            stage_all(trace, out, &inputs, &build);
        }
        let cells = programs(&inputs, &build.results, |_| true);
        storms.rounds(out, trace, &cells, STORM_CHUNKS, STORM_ROUNDS);
        Ok(())
    })?;
    set_setup(out, &setup);
    builds.finish(out, n);
    storms.finish(out);
    Ok(())
}

// ----------------------------------------------------------------------
// incremental-rebuild
// ----------------------------------------------------------------------

fn incremental_rebuild(p: &Params, trace: &mut Trace, out: &mut Outcome) -> Result<(), String> {
    let cache = p.work_dir.join("cache");
    let ((mut inputs, fill), setup) = setups(p, REBUILD_SETUPS, || {
        let inputs = corpus::corpus(p.seed, p.rebuild_machines, trace)?;
        let dir = fresh_dir(p, "cache")?;
        let driver = Driver::with_disk_cache(&dir);
        // Traced, the cache is filled serially so that the stage-by-stage
        // pass has an uncontended reference to compare its spans with.
        let fill = if trace.is_on() {
            serial_build(&driver, &inputs, true)
        } else {
            batch_build(&driver, &inputs, THREADS)
        };
        Ok((inputs, fill))
    })?;
    set_setup(out, &setup);
    let n = inputs.cells.len();
    expect_mix(out, &fill.stats, 0, n);
    check_cells(out, &inputs, &oracles(&inputs), &fill.results);
    if trace.is_on() {
        stage_all(trace, out, &inputs, &fill);
    }
    drop(fill);

    let edited = inputs.edit(p.seed, trace)?;
    let misses = inputs
        .cells
        .iter()
        .filter(|c| edited.contains(&c.subject))
        .count();
    let mix = (n - misses, misses);
    out.mix = Some(mix);
    let oracles = oracles(&inputs);
    let warm = entries(&cache)?;
    // The first rebuild in the process reads every entry for the first
    // time since set-up and runs slower; it is checked but not timed.
    let first = serial_build(&Driver::with_disk_cache(&cache), &inputs, false);
    prune(&cache, &warm)?;
    expect_mix(out, &first.stats, mix.0, mix.1);
    check_cells(out, &inputs, &oracles, &first.results);
    drop(first);
    let cold = p.cold_machines;
    let (mut builds, mut storms) = (Builds::default(), Storms::default());
    cycles(p, 2, || {
        // The timed `compile_batch` rebuild, then a serial one that times
        // each job for the latency percentiles, then storms.
        let batch = batch_build(&Driver::with_disk_cache(&cache), &inputs, THREADS);
        prune(&cache, &warm)?;
        builds.walls.push(batch.wall);
        builds.add(out, &inputs, &oracles, &batch, mix);
        if trace.is_on() {
            trace_build(trace, &batch);
        }
        drop(batch);
        let timed = serial_build(&Driver::with_disk_cache(&cache), &inputs, trace.is_on());
        prune(&cache, &warm)?;
        builds.add(out, &inputs, &oracles, &timed, mix);
        if trace.is_on() {
            trace_build(trace, &timed);
        }
        let os = programs(&inputs, &timed.results, |c| {
            c.subject < cold && c.level == OptLevel::Os
        });
        storms.rounds(out, trace, &os, CORPUS_STORM_CHUNKS, REBUILD_STORM_ROUNDS);
        Ok(())
    })?;
    builds.finish(out, n);
    storms.finish(out);
    out.notes.push(format!(
        "every rebuild: {} disk hits, {} misses (edited: {})",
        mix.0,
        mix.1,
        edited
            .iter()
            .map(|&i| inputs.subjects[i].name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(())
}

// ----------------------------------------------------------------------
// Tracing
// ----------------------------------------------------------------------

/// Records a build's driver-layer figures.
fn trace_build(trace: &mut Trace, b: &Build) {
    let s = &b.stats;
    trace.add("driver.jobs", s.jobs as f64);
    trace.add("driver.hits", s.hits() as f64);
    trace.add("occ.driver.misses", s.misses as f64);
    trace.add("occ.driver.rejected", s.rejected as f64);
    if b.threads > 1 {
        trace.add("driver.serve_s", s.serve.as_secs_f64());
        trace.add("driver.thread_s", b.wall * b.threads as f64);
    }
    for (missed, ms) in b.missed.iter().zip(&b.lat_ms) {
        if *missed {
            trace.add("driver.miss_wall_ms", *ms);
        } else {
            trace.add("driver.hit_wall_us", ms * 1e3);
            trace.add("driver.timed_hits", 1.0);
        }
    }
    if !b.missed.is_empty() {
        trace.add("driver.miss_stage_ms", stage_ms(s));
    }
}

fn stage_ms(s: &DriverStats) -> f64 {
    (s.lower + s.opt + s.backend + s.decode).as_secs_f64() * 1e3
}

/// Compiles every cell of `b` again stage by stage and checks it.
fn stage_all(trace: &mut Trace, out: &mut Outcome, inputs: &Inputs, b: &Build) {
    for ((cell, (module, level)), result) in inputs.cells.iter().zip(&inputs.jobs).zip(&b.results) {
        if let Ok(artifact) = result {
            let s = &inputs.subjects[cell.subject].name;
            out.attempted += 1;
            if let Err(e) = trace::staged_compile(trace, module, *level, artifact) {
                out.fail(format!(
                    "{s}/{}/{level}: {e}",
                    inputs.generated(*cell).pattern
                ));
            }
            trace.add("staged_cells", 1.0);
        }
    }
    trace.add("stage_ref_ms", stage_ms(&b.stats));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Turns the trace's accumulators into the per-layer metrics.
fn finish_trace(trace: &Trace, out: &mut Outcome) {
    let g = |k: &str| trace.get(k);
    for (name, _) in report::per_layer() {
        out.set(&name, g(&name));
    }
    let runs: f64 = PASSES.iter().map(|p| g(&format!("occ.opt.{p}.runs"))).sum();
    let changes: f64 = PASSES
        .iter()
        .map(|p| g(&format!("occ.opt.{p}.changes")))
        .sum();
    out.set("occ.opt.pass_runs", runs);
    out.set("occ.opt.pass_changes", changes);
    out.set("occ.opt.useful_run_ratio", ratio(changes, runs));
    out.set(
        "occ.vm.dispatches_per_event",
        ratio(g("dispatches"), g("dispatch_events")),
    );
    out.set(
        "occ.vm.fused_share",
        ratio(g("dispatch_insts") - g("dispatches"), g("dispatches")),
    );
    let hash_us = ratio(g("hash_us"), g("hash_calls"));
    out.set("occ.driver.hash_us", hash_us);
    out.set(
        "occ.driver.artifact_roundtrip_us",
        ratio(g("roundtrip_us"), g("hash_calls")),
    );
    let hits = g("driver.timed_hits");
    if hits > 0.0 {
        let decode_us = ratio(g("occ.vm.decode_ms") * 1e3, g("staged_cells"));
        out.set(
            "occ.driver.hit_us",
            g("driver.hit_wall_us") / hits - hash_us - decode_us,
        );
    }
    out.set(
        "occ.driver.miss_ms",
        g("driver.miss_wall_ms") - g("driver.miss_stage_ms"),
    );
    out.set(
        "occ.driver.hit_rate",
        ratio(g("driver.hits"), g("driver.jobs")),
    );
    out.set(
        "occ.driver.parallel_efficiency",
        ratio(g("driver.serve_s"), g("driver.thread_s")),
    );
    let staged: f64 = [
        "tlang.check_ms",
        "occ.lower.ms",
        "occ.opt.ms",
        "occ.backend.vcode_ms",
        "occ.backend.regalloc_ms",
        "occ.backend.emit_ms",
        "occ.vm.decode_ms",
    ]
    .iter()
    .map(|k| g(k))
    .sum();
    out.set(
        "layerbench.trace_overhead_pct",
        100.0 * ratio(staged - g("stage_ref_ms"), g("stage_ref_ms")),
    );
}
