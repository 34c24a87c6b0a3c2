//! Machine-readable size/pass-effect snapshots and the CI regression gate.
//!
//! [`Snapshot::measure`] compiles every [`crate::matrix`] cell through
//! the shared [`crate::driver`] session and records the section sizes,
//! the backend's register-allocation quality counters
//! ([`occ::RegAllocStats`]: spill slots, saved callee-saved registers,
//! spill-code bytes), the per-pass [`occ::PassStats`] of the mid-end
//! run, the deterministic executed-instruction count of the
//! [canonical event storm](crate::throughput) on the fast engine — the
//! cell's regression-gated "time" — and the driver's cold/warm compile
//! times plus the warm cache-hit flag. The `snapshot`
//! binary serializes one to `BENCH_PR3.json`; the `regress` binary
//! compares a fresh (or freshly written) snapshot against the committed
//! `bench_baseline.json` and fails on any size regression beyond
//! [`TOLERANCE_PCT`]/[`TOLERANCE_BYTES`] — the bench-trajectory lock the
//! ROADMAP's Meliora-style pass-effect measurement calls for.
//!
//! The JSON is hand-rolled (serialize *and* parse) because this
//! environment has no crates.io access; the format is a single object
//! `{"cells": [...]}` of flat cell objects, stable under pretty-printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use occ::OptLevel;

use crate::BenchError;

pub use crate::matrix::sample_machines;

/// Relative growth tolerated per cell before `regress` fails, in percent.
pub const TOLERANCE_PCT: f64 = 1.0;

/// Absolute growth tolerated per cell before `regress` fails, in bytes.
/// A cell passes if it is within *either* tolerance, so tiny cells are
/// not failed over word-sized alignment noise.
pub const TOLERANCE_BYTES: usize = 8;

/// Absolute growth tolerated in a cell's canonical-storm dynamic
/// instruction count before `regress` fails. Like the byte tolerance, a
/// cell passes within *either* this or [`TOLERANCE_PCT`] — a storm
/// executes hundreds of instructions per event, so 64 instructions is
/// sub-one-event noise headroom (e.g. a legitimately re-ordered branch),
/// while percent-scale growth on a large cell is a real slowdown.
pub const TOLERANCE_DYN_INSTS: usize = 64;

/// Per-pass effect counters of one snapshot cell (mirrors
/// [`occ::PassStats`], but owned and serializable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCell {
    /// Canonical pass name.
    pub name: String,
    /// Executions.
    pub runs: usize,
    /// Executions (or items) that changed something.
    pub changes: usize,
    /// Net instructions removed.
    pub insts_removed: usize,
}

/// One machine × pattern × level measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Sample-machine name.
    pub machine: String,
    /// Implementation-pattern label.
    pub pattern: String,
    /// Optimization-level flag (`-O0`…`-Os`).
    pub level: String,
    /// Machine-code bytes.
    pub text: usize,
    /// Read-only data bytes.
    pub rodata: usize,
    /// Mutable data bytes.
    pub data: usize,
    /// Total image bytes (the regression-gated number).
    pub total: usize,
    /// Stack slots the register allocator spilled to, summed over the
    /// cell's functions.
    pub spill_slots: usize,
    /// Callee-saved registers saved/restored, summed over the cell's
    /// functions.
    pub saved_regs: usize,
    /// Text bytes of inserted spill code (slot loads/stores).
    pub spill_bytes: usize,
    /// Events in the canonical storm this cell was measured with
    /// ([`crate::throughput::STORM_EVENTS`]); `0` in baselines written
    /// before the throughput trajectory existed.
    pub events: usize,
    /// Deterministic executed-instruction count of the canonical storm
    /// on the fast engine — the regression-gated "time" of this cell.
    pub dyn_insts: usize,
    /// Wall-clock nanoseconds of this cell's first (cold) compile
    /// through the shared driver session. Host-dependent, so recorded
    /// but never gated; `0` in baselines written before the driver
    /// existed.
    pub compile_ns: usize,
    /// Wall-clock nanoseconds of an immediate recompile of the same
    /// cell — the cache-hit service time. Host-dependent, never gated.
    pub warm_compile_ns: usize,
    /// `1` if the immediate recompile was served from the driver's
    /// cache, `0` otherwise. Gated for presence by `regress`: a cell
    /// whose baseline hit stops hitting means the driver's caching
    /// silently broke. `0` in pre-driver baselines (ungated).
    pub warm_hit: usize,
    /// Mid-end per-pass effects for this cell.
    pub passes: Vec<PassCell>,
}

impl Cell {
    /// The `machine/pattern/level` key identifying this cell.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.machine, self.pattern, self.level)
    }
}

/// A full measurement: every sample machine × pattern × level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All measured cells.
    pub cells: Vec<Cell>,
}

impl Snapshot {
    /// Measures every [`crate::matrix`] cell: sizes, regalloc counters,
    /// pass effects, the canonical storm's deterministic dynamic
    /// instruction count on the fast engine, and the shared driver
    /// session's cold/warm compile times and warm hit flag.
    ///
    /// # Errors
    ///
    /// Returns the first [`BenchError`] naming a failing cell (a VM
    /// fault during the storm is reported as a compile-cell error: the
    /// program is unusable either way).
    pub fn measure() -> Result<Snapshot, BenchError> {
        let mut cells = Vec::new();
        for arm in crate::matrix::arms() {
            // One generation per machine × pattern arm: the code map
            // that defines the storm's event codes is part of the
            // measurement, and every level must see the same storm.
            let generated = arm.generate()?;
            for level in OptLevel::all() {
                let started = Instant::now();
                let artifact = arm.compile(level, &generated)?;
                let compile_ns = started.elapsed().as_nanos() as usize;
                // An immediate recompile of the same cell must be a
                // session-cache hit; its service time is the cell's warm
                // compile time, and the hit itself is gated by regress.
                let hits_before = crate::driver().stats().hits();
                let started = Instant::now();
                let _ = arm.compile(level, &generated)?;
                let warm_compile_ns = started.elapsed().as_nanos() as usize;
                let warm_hit = usize::from(crate::driver().stats().hits() > hits_before);
                let storm = crate::throughput::canonical_storm(&artifact, &generated.codes)
                    .map_err(|e| BenchError::Compile {
                        machine: arm.machine.name().to_string(),
                        pattern: arm.pattern,
                        level,
                        message: format!("canonical storm faulted: {e}"),
                    })?;
                let sizes = artifact.sizes();
                let regalloc = artifact.regalloc_stats();
                let passes = artifact
                    .pass_stats()
                    .passes()
                    .iter()
                    .filter(|p| p.runs > 0)
                    .map(|p| PassCell {
                        name: p.name.to_string(),
                        runs: p.runs,
                        changes: p.changes,
                        insts_removed: p.insts_removed,
                    })
                    .collect();
                cells.push(Cell {
                    machine: arm.name.clone(),
                    pattern: arm.pattern.label().to_string(),
                    level: level.flag().to_string(),
                    text: sizes.text,
                    rodata: sizes.rodata,
                    data: sizes.data,
                    total: sizes.total(),
                    spill_slots: regalloc.spill_slots,
                    saved_regs: regalloc.saved_regs,
                    spill_bytes: regalloc.spill_bytes,
                    events: storm.events,
                    dyn_insts: storm.dyn_insts as usize,
                    compile_ns,
                    warm_compile_ns,
                    warm_hit,
                    passes,
                });
            }
        }
        Ok(Snapshot { cells })
    }

    /// Looks up one cell by its `machine/pattern/level` key.
    pub fn get(&self, key: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Serializes to the snapshot JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"machine\": {}, \"pattern\": {}, \"level\": {}, \
                 \"text\": {}, \"rodata\": {}, \"data\": {}, \"total\": {}, \
                 \"spill_slots\": {}, \"saved_regs\": {}, \"spill_bytes\": {}, \
                 \"events\": {}, \"dyn_insts\": {}, \"compile_ns\": {}, \
                 \"warm_compile_ns\": {}, \"warm_hit\": {}, \"passes\": [",
                json_string(&c.machine),
                json_string(&c.pattern),
                json_string(&c.level),
                c.text,
                c.rodata,
                c.data,
                c.total,
                c.spill_slots,
                c.saved_regs,
                c.spill_bytes,
                c.events,
                c.dyn_insts,
                c.compile_ns,
                c.warm_compile_ns,
                c.warm_hit
            );
            for (j, p) in c.passes.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"name\": {}, \"runs\": {}, \"changes\": {}, \"insts_removed\": {}}}",
                    if j == 0 { "" } else { ", " },
                    json_string(&p.name),
                    p.runs,
                    p.changes,
                    p.insts_removed
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the snapshot JSON format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let value = Json::parse(text)?;
        let cells_value = value
            .field("cells")
            .ok_or_else(|| "missing top-level \"cells\" array".to_string())?;
        let Json::Array(items) = cells_value else {
            return Err("\"cells\" is not an array".to_string());
        };
        let mut cells = Vec::new();
        for item in items {
            let mut passes = Vec::new();
            if let Some(Json::Array(ps)) = item.field("passes") {
                for p in ps {
                    passes.push(PassCell {
                        name: p.string_field("name")?,
                        runs: p.usize_field("runs")?,
                        changes: p.usize_field("changes")?,
                        insts_removed: p.usize_field("insts_removed")?,
                    });
                }
            }
            cells.push(Cell {
                machine: item.string_field("machine")?,
                pattern: item.string_field("pattern")?,
                level: item.string_field("level")?,
                text: item.usize_field("text")?,
                rodata: item.usize_field("rodata")?,
                data: item.usize_field("data")?,
                total: item.usize_field("total")?,
                spill_slots: item.usize_field("spill_slots")?,
                saved_regs: item.usize_field("saved_regs")?,
                spill_bytes: item.usize_field("spill_bytes")?,
                // Lenient for baselines written before the throughput
                // trajectory: absent fields parse as 0 and are not gated.
                events: item.usize_field_or("events", 0)?,
                dyn_insts: item.usize_field_or("dyn_insts", 0)?,
                // Same leniency for the driver-session fields (PR 9):
                // pre-driver baselines carry no compile times or hit
                // flags, and parse as ungated zeros.
                compile_ns: item.usize_field_or("compile_ns", 0)?,
                warm_compile_ns: item.usize_field_or("warm_compile_ns", 0)?,
                warm_hit: item.usize_field_or("warm_hit", 0)?,
                passes,
            });
        }
        Ok(Snapshot { cells })
    }
}

/// One cell-level comparison verdict from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Cell shrank or stayed equal.
    Ok {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell grew, but within tolerance.
    Tolerated {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell grew beyond tolerance — a regression.
    Regressed {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell present in the baseline but missing from the current
    /// snapshot — lost coverage counts as a regression.
    Missing {
        /// Cell key.
        key: String,
    },
    /// Cell present in the current snapshot but absent from the
    /// baseline — cell-set drift in the other direction. Silently
    /// skipping it would let a new (or renamed) machine × pattern ×
    /// level cell slip the gate until someone notices; the baseline must
    /// be refreshed deliberately instead.
    Unbaselined {
        /// Cell key.
        key: String,
    },
    /// A per-section (`text`/`rodata`) size grew beyond tolerance even
    /// if the cell's total passed — one section's growth papered over by
    /// another's shrink is still a regression.
    SectionRegressed {
        /// Cell key.
        key: String,
        /// Section name (`text` or `rodata`).
        section: &'static str,
        /// Baseline section bytes.
        baseline: usize,
        /// Current section bytes.
        current: usize,
    },
    /// A register-allocation quality metric (`spill_slots`, `saved_regs`
    /// or `spill_bytes`) regressed beyond its tolerance: allocation
    /// decisions are part of the locked trajectory, so more spilling must
    /// fail the gate like more text even when total size hides it.
    RegallocRegressed {
        /// Cell key.
        key: String,
        /// Metric name.
        metric: &'static str,
        /// Baseline metric value.
        baseline: usize,
        /// Current metric value.
        current: usize,
    },
    /// A pass that removed instructions (or reported changes) somewhere
    /// in the baseline now removes zero instructions (or reports zero
    /// changes) across *all* cells — it has silently gone inert
    /// (unregistered, reordered into impotence, or broken) even if
    /// another pass papers over the bytes. The `changes` axis covers the
    /// passes whose `insts_removed` is zero by construction (code motion,
    /// forwarding into copies, φ-arg pruning).
    PassInert {
        /// Canonical pass name.
        name: String,
        /// The per-pass counter that dropped to zero: `insts_removed` or
        /// `changes`.
        metric: &'static str,
        /// That counter's total across the baseline.
        baseline: usize,
    },
    /// The canonical storm's deterministic executed-instruction count
    /// grew beyond tolerance — the cell got *slower* on the time-like
    /// axis even if its bytes shrank.
    DynInstsRegressed {
        /// Cell key.
        key: String,
        /// Baseline dynamic instruction count.
        baseline: usize,
        /// Current dynamic instruction count.
        current: usize,
    },
    /// The two snapshots measured different canonical storms (different
    /// event counts), so their dynamic instruction counts are not
    /// comparable — the baseline must be refreshed deliberately, not
    /// silently skipped.
    StormChanged {
        /// Cell key.
        key: String,
        /// Baseline storm event count.
        baseline_events: usize,
        /// Current storm event count.
        current_events: usize,
    },
    /// The baseline recorded this cell's immediate recompile as a
    /// driver-session cache hit, and the current snapshot did not — the
    /// artifact cache silently stopped caching (a hashing, lookup or
    /// publication bug), which no size or timing number would catch.
    CacheRegressed {
        /// Cell key.
        key: String,
    },
}

impl Verdict {
    /// `true` for verdicts that must fail the gate.
    pub fn is_regression(&self) -> bool {
        matches!(
            self,
            Verdict::Regressed { .. }
                | Verdict::Missing { .. }
                | Verdict::Unbaselined { .. }
                | Verdict::SectionRegressed { .. }
                | Verdict::RegallocRegressed { .. }
                | Verdict::PassInert { .. }
                | Verdict::DynInstsRegressed { .. }
                | Verdict::StormChanged { .. }
                | Verdict::CacheRegressed { .. }
        )
    }

    /// One aligned report line.
    pub fn render(&self) -> String {
        match self {
            Verdict::Ok {
                key,
                baseline,
                current,
            } => format!("  ok        {key:<40} {baseline:>7} -> {current:>7}"),
            Verdict::Tolerated {
                key,
                baseline,
                current,
            } => format!("  tolerated {key:<40} {baseline:>7} -> {current:>7}"),
            Verdict::Regressed {
                key,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::Missing { key } => format!("  MISSING   {key:<40} (cell lost)"),
            Verdict::Unbaselined { key } => {
                format!("  UNBASELINED {key:<38} (cell not in baseline; refresh it deliberately)")
            }
            Verdict::SectionRegressed {
                key,
                section,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {section} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::RegallocRegressed {
                key,
                metric,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {metric} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::PassInert {
                name,
                metric,
                baseline,
            } => format!("  INERT     pass `{name}` {metric} {baseline} in the baseline, 0 now"),
            Verdict::DynInstsRegressed {
                key,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} dyn_insts {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::StormChanged {
                key,
                baseline_events,
                current_events,
            } => format!(
                "  STORM     {key:<40} canonical storm changed \
                 ({baseline_events} -> {current_events} events; refresh the baseline deliberately)"
            ),
            Verdict::CacheRegressed { key } => {
                format!("  REGRESSED {key:<40} warm recompile no longer hits the driver cache")
            }
        }
    }
}

/// Growth a size may show before it counts as a regression: within
/// `max(TOLERANCE_PCT, TOLERANCE_BYTES)` of the baseline value.
fn allowed_growth(baseline: usize) -> usize {
    std::cmp::max(
        (baseline as f64 * TOLERANCE_PCT / 100.0).floor() as usize,
        TOLERANCE_BYTES,
    )
}

/// Growth a dynamic instruction count may show before it counts as a
/// regression: within `max(TOLERANCE_PCT, TOLERANCE_DYN_INSTS)`.
fn allowed_dyn_growth(baseline: usize) -> usize {
    std::cmp::max(
        (baseline as f64 * TOLERANCE_PCT / 100.0).floor() as usize,
        TOLERANCE_DYN_INSTS,
    )
}

/// Compares `current` against `baseline` cell by cell, gating on total
/// image size *and* on the `text`/`rodata` sections individually (one
/// section's growth hidden by another's shrink is still flagged). Growth
/// within `max(TOLERANCE_PCT, TOLERANCE_BYTES)` is tolerated; anything
/// larger is a regression, as is any cell-set drift — a baseline cell
/// the current snapshot no longer measures, or a current cell the
/// baseline does not know (refresh the baseline deliberately). The
/// canonical storm's dynamic instruction count is gated the same way
/// (within `max(TOLERANCE_PCT, TOLERANCE_DYN_INSTS)`) wherever the
/// baseline measured one, and a storm-shape change (different event
/// counts) fails outright rather than skipping the cell. A cell whose
/// baseline recorded a warm driver-cache hit must still hit (the
/// host-dependent compile *times* are carried but never gated). Finally,
/// any pass that removed instructions (or reported changes) somewhere in
/// the baseline but removes zero (or reports zero) across every current
/// cell is flagged as silently inert.
pub fn compare(baseline: &Snapshot, current: &Snapshot) -> Vec<Verdict> {
    let current_by_key: BTreeMap<String, &Cell> =
        current.cells.iter().map(|c| (c.key(), c)).collect();
    let baseline_keys: std::collections::BTreeSet<String> =
        baseline.cells.iter().map(Cell::key).collect();
    let mut verdicts = Vec::new();
    for base in &baseline.cells {
        let key = base.key();
        let Some(cur) = current_by_key.get(&key) else {
            verdicts.push(Verdict::Missing { key });
            continue;
        };
        verdicts.push(if cur.total <= base.total {
            Verdict::Ok {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        } else if cur.total <= base.total + allowed_growth(base.total) {
            Verdict::Tolerated {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        } else {
            Verdict::Regressed {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        });
        for (section, b, c) in [
            ("text", base.text, cur.text),
            ("rodata", base.rodata, cur.rodata),
        ] {
            if c > b + allowed_growth(b) {
                verdicts.push(Verdict::SectionRegressed {
                    key: key.clone(),
                    section,
                    baseline: b,
                    current: c,
                });
            }
        }
        // Register-allocation quality: the discrete counters tolerate a
        // drift of one (a single extra slot or saved register is often
        // legitimate churn), spill-code bytes use the size tolerance.
        for (metric, b, c) in [
            ("spill_slots", base.spill_slots, cur.spill_slots),
            ("saved_regs", base.saved_regs, cur.saved_regs),
        ] {
            if c > b + 1 {
                verdicts.push(Verdict::RegallocRegressed {
                    key: key.clone(),
                    metric,
                    baseline: b,
                    current: c,
                });
            }
        }
        if cur.spill_bytes > base.spill_bytes + allowed_growth(base.spill_bytes) {
            verdicts.push(Verdict::RegallocRegressed {
                key: key.clone(),
                metric: "spill_bytes",
                baseline: base.spill_bytes,
                current: cur.spill_bytes,
            });
        }
        // Time-like axis: the canonical storm's deterministic dynamic
        // instruction count. Only gated when the baseline has one (old
        // baselines carry 0 events) and both snapshots measured the same
        // storm — a storm-shape change is its own failure, never a
        // silent skip.
        if base.events > 0 {
            if base.events != cur.events {
                verdicts.push(Verdict::StormChanged {
                    key: key.clone(),
                    baseline_events: base.events,
                    current_events: cur.events,
                });
            } else if cur.dyn_insts > base.dyn_insts + allowed_dyn_growth(base.dyn_insts) {
                verdicts.push(Verdict::DynInstsRegressed {
                    key: key.clone(),
                    baseline: base.dyn_insts,
                    current: cur.dyn_insts,
                });
            }
        }
        // Driver-session cache presence: gated only where the baseline
        // observed a hit (pre-driver baselines carry 0 and are ungated);
        // the timing fields themselves are host-dependent and never
        // gated.
        if base.warm_hit == 1 && cur.warm_hit == 0 {
            verdicts.push(Verdict::CacheRegressed { key: key.clone() });
        }
    }
    for cur in &current.cells {
        if !baseline_keys.contains(&cur.key()) {
            verdicts.push(Verdict::Unbaselined { key: cur.key() });
        }
    }
    // Pass-inert sweep: compare per-pass `insts_removed` and `changes`
    // totals across the whole matrix.
    const COUNTERS: [&str; 2] = ["insts_removed", "changes"];
    let totals_by_pass = |snap: &Snapshot| {
        let mut totals: BTreeMap<String, [usize; 2]> = BTreeMap::new();
        for cell in &snap.cells {
            for p in &cell.passes {
                let t = totals.entry(p.name.clone()).or_default();
                t[0] += p.insts_removed;
                t[1] += p.changes;
            }
        }
        totals
    };
    let current_totals = totals_by_pass(current);
    for (name, base) in totals_by_pass(baseline) {
        let cur = current_totals.get(&name).copied().unwrap_or_default();
        for (i, metric) in COUNTERS.into_iter().enumerate() {
            if base[i] > 0 && cur[i] == 0 {
                verdicts.push(Verdict::PassInert {
                    name: name.clone(),
                    metric,
                    baseline: base[i],
                });
            }
        }
    }
    verdicts
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (offline stand-in for a
// crates.io JSON crate; supports exactly what the snapshot format uses).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn string_field(&self, name: &str) -> Result<String, String> {
        match self.field(name) {
            Some(Json::String(s)) => Ok(s.clone()),
            _ => Err(format!("missing or non-string field \"{name}\"")),
        }
    }

    fn usize_field(&self, name: &str) -> Result<usize, String> {
        match self.field(name) {
            Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            _ => Err(format!("missing or non-integer field \"{name}\"")),
        }
    }

    /// Like [`usize_field`](Json::usize_field), but an *absent* field
    /// yields `default` (a present-but-malformed one is still an error) —
    /// for fields added to the format after baselines existed.
    fn usize_field_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.field(name) {
            None => Ok(default),
            Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            Some(_) => Err(format!("non-integer field \"{name}\"")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is valid UTF-8:
                    // it came in as &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            cells: vec![
                Cell {
                    machine: "flat".into(),
                    pattern: "STT".into(),
                    level: "-O2".into(),
                    text: 1000,
                    rodata: 200,
                    data: 40,
                    total: 1240,
                    spill_slots: 2,
                    saved_regs: 3,
                    spill_bytes: 24,
                    events: 512,
                    dyn_insts: 40_000,
                    compile_ns: 2_000_000,
                    warm_compile_ns: 900,
                    warm_hit: 1,
                    passes: vec![PassCell {
                        name: "sccp".into(),
                        runs: 3,
                        changes: 1,
                        insts_removed: 7,
                    }],
                },
                Cell {
                    machine: "flat".into(),
                    pattern: "STT".into(),
                    level: "-Os".into(),
                    text: 900,
                    rodata: 200,
                    data: 40,
                    total: 1140,
                    spill_slots: 0,
                    saved_regs: 1,
                    spill_bytes: 0,
                    events: 512,
                    dyn_insts: 36_000,
                    compile_ns: 1_500_000,
                    warm_compile_ns: 800,
                    warm_hit: 1,
                    passes: vec![],
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parser_survives_whitespace_and_escapes() {
        let text = "{ \"cells\" : [ {\"machine\": \"a\\\"b\", \"pattern\": \"p\",\n
            \"level\": \"-O0\", \"text\": 1, \"rodata\": 2, \"data\": 3,
            \"total\": 6, \"spill_slots\": 0, \"saved_regs\": 0,
            \"spill_bytes\": 0, \"passes\": []} ] }";
        let snap = Snapshot::from_json(text).expect("parses");
        assert_eq!(snap.cells[0].machine, "a\"b");
        assert_eq!(snap.cells[0].total, 6);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{}").is_err(), "missing cells");
        assert!(Snapshot::from_json("{\"cells\": 3}").is_err());
    }

    #[test]
    fn compare_flags_regressions_only_beyond_tolerance() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // Equal → ok.
        assert!(compare(&base, &cur).iter().all(|v| !v.is_regression()));
        // Small growth → tolerated.
        cur.cells[0].total = base.cells[0].total + TOLERANCE_BYTES;
        let verdicts = compare(&base, &cur);
        assert!(matches!(verdicts[0], Verdict::Tolerated { .. }));
        assert!(!verdicts[0].is_regression());
        // Big growth → regression.
        cur.cells[0].total = base.cells[0].total + 100;
        let verdicts = compare(&base, &cur);
        assert!(matches!(verdicts[0], Verdict::Regressed { .. }));
        assert!(verdicts[0].is_regression());
    }

    #[test]
    fn compare_flags_missing_cells() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        cur.cells.pop();
        let verdicts = compare(&base, &cur);
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Missing { .. })));
    }

    #[test]
    fn compare_flags_unbaselined_cells() {
        // Cell-set drift in the other direction: a cell the baseline
        // does not know must fail the gate, not slip through silently.
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        let mut extra = cur.cells[0].clone();
        extra.machine = "brand-new".into();
        cur.cells.push(extra);
        let verdicts = compare(&base, &cur);
        let unb: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::Unbaselined { .. }))
            .collect();
        assert_eq!(unb.len(), 1, "{verdicts:?}");
        assert!(unb[0].is_regression());
    }

    #[test]
    fn compare_flags_section_regressions_behind_stable_totals() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // text grows by 100, rodata shrinks by 100: total is unchanged,
        // but the text section alone regressed.
        cur.cells[0].text = base.cells[0].text + 100;
        cur.cells[0].rodata = base.cells[0].rodata - 100;
        let verdicts = compare(&base, &cur);
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::SectionRegressed {
                    section: "text",
                    ..
                }
            )),
            "{verdicts:?}"
        );
        // Section growth within tolerance is not flagged.
        let mut small = sample_snapshot();
        small.cells[0].text = base.cells[0].text + TOLERANCE_BYTES;
        assert!(!compare(&base, &small)
            .iter()
            .any(|v| matches!(v, Verdict::SectionRegressed { .. })));
    }

    #[test]
    fn compare_gates_regalloc_quality() {
        let base = sample_snapshot();
        // One extra slot / saved register is churn, not a regression.
        let mut cur = sample_snapshot();
        cur.cells[0].spill_slots = base.cells[0].spill_slots + 1;
        cur.cells[0].saved_regs = base.cells[0].saved_regs + 1;
        assert!(!compare(&base, &cur).iter().any(Verdict::is_regression));
        // Two extra slots fail the gate even with total size unchanged.
        cur.cells[0].spill_slots = base.cells[0].spill_slots + 2;
        let verdicts = compare(&base, &cur);
        let reg: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::RegallocRegressed { .. }))
            .collect();
        assert_eq!(reg.len(), 1, "{verdicts:?}");
        assert!(reg[0].is_regression());
        assert!(
            reg[0].render().contains("spill_slots"),
            "{}",
            reg[0].render()
        );
        // Spill-code bytes use the size tolerance: +8 passes, +100 fails.
        let mut bytes = sample_snapshot();
        bytes.cells[0].spill_bytes = base.cells[0].spill_bytes + TOLERANCE_BYTES;
        assert!(!compare(&base, &bytes).iter().any(Verdict::is_regression));
        bytes.cells[0].spill_bytes = base.cells[0].spill_bytes + 100;
        assert!(compare(&base, &bytes).iter().any(|v| matches!(
            v,
            Verdict::RegallocRegressed {
                metric: "spill_bytes",
                ..
            }
        )));
    }

    #[test]
    fn compare_flags_passes_gone_inert() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // The baseline's sccp removed 7 instructions; the current run
        // still executes it but it no longer removes anything anywhere.
        cur.cells[0].passes[0].insts_removed = 0;
        let verdicts = compare(&base, &cur);
        let inert: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::PassInert { .. }))
            .collect();
        assert_eq!(inert.len(), 1, "{verdicts:?}");
        assert!(inert[0].is_regression());
        assert!(inert[0].render().contains("sccp"), "{:?}", inert[0]);
        // A pass that never removed anything in the baseline is not
        // gated (movement passes like licm report zero by design).
        assert!(!compare(&base, &base.clone())
            .iter()
            .any(|v| v.is_regression()));
    }

    #[test]
    fn compare_flags_passes_gone_inert_on_changes() {
        // A code-motion pass removes zero instructions by construction;
        // only its `changes` total shows it doing anything.
        let licm = PassCell {
            name: "licm".into(),
            runs: 3,
            changes: 2,
            insts_removed: 0,
        };
        let mut base = sample_snapshot();
        base.cells[0].passes.push(licm.clone());
        let mut cur = base.clone();
        assert!(!compare(&base, &cur).iter().any(|v| v.is_regression()));
        // Still executed, never rewrites anything any more.
        cur.cells[0].passes[1].changes = 0;
        let verdicts = compare(&base, &cur);
        let inert: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::PassInert { .. }))
            .collect();
        assert_eq!(inert.len(), 1, "{verdicts:?}");
        assert_eq!(
            inert[0],
            &Verdict::PassInert {
                name: "licm".into(),
                metric: "changes",
                baseline: 2,
            }
        );
        assert!(inert[0].is_regression());
        assert!(inert[0].render().contains("licm"), "{:?}", inert[0]);
        // Changes that move between cells keep the pass live.
        let mut moved = base.clone();
        moved.cells[0].passes[1].changes = 0;
        moved.cells[1].passes.push(licm);
        assert!(!compare(&base, &moved).iter().any(|v| v.is_regression()));
    }

    #[test]
    fn measure_covers_the_full_matrix() {
        let snap = Snapshot::measure().expect("measures");
        let machines = sample_machines().len();
        assert_eq!(snap.cells.len(), machines * 3 * 4);
        // -O2/-Os cells carry pass stats; -O0 cells do not.
        for cell in &snap.cells {
            if cell.level == "-O2" {
                assert!(!cell.passes.is_empty(), "{} has no pass stats", cell.key());
            }
            if cell.level == "-O0" {
                assert!(cell.passes.is_empty(), "{} ran passes at -O0", cell.key());
            }
            // Every cell is storm-measured.
            assert_eq!(
                cell.events,
                crate::throughput::STORM_EVENTS,
                "{} missing its storm",
                cell.key()
            );
            assert!(cell.dyn_insts > 0, "{} executed nothing", cell.key());
            // Every cell is compile-timed, and its immediate recompile
            // hit the shared driver session.
            assert!(cell.compile_ns > 0, "{} has no compile time", cell.key());
            assert_eq!(cell.warm_hit, 1, "{} warm recompile missed", cell.key());
        }
    }

    #[test]
    fn old_baselines_without_storm_fields_parse_and_are_not_gated() {
        // A pre-throughput baseline (no events/dyn_insts in the JSON)
        // must still parse — as zeros — and must not gate dyn_insts.
        let text = "{\"cells\": [{\"machine\": \"m\", \"pattern\": \"p\",
            \"level\": \"-O0\", \"text\": 1, \"rodata\": 2, \"data\": 3,
            \"total\": 6, \"spill_slots\": 0, \"saved_regs\": 0,
            \"spill_bytes\": 0, \"passes\": []}]}";
        let base = Snapshot::from_json(text).expect("parses");
        assert_eq!(base.cells[0].events, 0);
        assert_eq!(base.cells[0].dyn_insts, 0);
        let mut cur = base.clone();
        cur.cells[0].events = 512;
        cur.cells[0].dyn_insts = 1_000_000;
        assert!(
            !compare(&base, &cur).iter().any(Verdict::is_regression),
            "an ungated baseline cell must accept any current storm"
        );
    }

    #[test]
    fn compare_gates_cache_hits_for_presence_only() {
        let base = sample_snapshot();
        // A lost warm hit is a regression, even with every other number
        // unchanged.
        let mut cur = sample_snapshot();
        cur.cells[0].warm_hit = 0;
        let verdicts = compare(&base, &cur);
        let cache: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::CacheRegressed { .. }))
            .collect();
        assert_eq!(cache.len(), 1, "{verdicts:?}");
        assert!(cache[0].is_regression());
        assert!(cache[0].render().contains("driver cache"), "{:?}", cache[0]);
        // Host-dependent compile times are carried but never gated.
        let mut slower = sample_snapshot();
        slower.cells[0].compile_ns *= 100;
        slower.cells[0].warm_compile_ns *= 100;
        assert!(!compare(&base, &slower).iter().any(Verdict::is_regression));
        // A pre-driver baseline (warm_hit 0) does not gate the cache.
        let mut old = sample_snapshot();
        for c in &mut old.cells {
            c.compile_ns = 0;
            c.warm_compile_ns = 0;
            c.warm_hit = 0;
        }
        let mut cur = sample_snapshot();
        cur.cells[0].warm_hit = 0;
        assert!(!compare(&old, &cur).iter().any(Verdict::is_regression));
    }

    #[test]
    fn old_baselines_without_driver_fields_parse_as_ungated_zeros() {
        // The PR 8 events/dyn_insts precedent: a pre-driver baseline has
        // no compile_ns/warm_compile_ns/warm_hit fields and must parse —
        // as zeros — without gating the cache.
        let text = "{\"cells\": [{\"machine\": \"m\", \"pattern\": \"p\",
            \"level\": \"-O0\", \"text\": 1, \"rodata\": 2, \"data\": 3,
            \"total\": 6, \"spill_slots\": 0, \"saved_regs\": 0,
            \"spill_bytes\": 0, \"events\": 512, \"dyn_insts\": 100,
            \"passes\": []}]}";
        let base = Snapshot::from_json(text).expect("parses");
        assert_eq!(base.cells[0].compile_ns, 0);
        assert_eq!(base.cells[0].warm_compile_ns, 0);
        assert_eq!(base.cells[0].warm_hit, 0);
        let mut cur = base.clone();
        cur.cells[0].compile_ns = 5_000_000;
        cur.cells[0].warm_compile_ns = 700;
        cur.cells[0].warm_hit = 1;
        assert!(
            !compare(&base, &cur).iter().any(Verdict::is_regression),
            "driver fields new in the current snapshot must not gate"
        );
    }

    #[test]
    fn compare_gates_dynamic_instruction_counts() {
        let base = sample_snapshot();
        // Within tolerance (64 insts or 1%): not a regression.
        let mut cur = sample_snapshot();
        cur.cells[1].dyn_insts = base.cells[1].dyn_insts + TOLERANCE_DYN_INSTS;
        assert!(!compare(&base, &cur).iter().any(Verdict::is_regression));
        // Beyond 1%: a regression, even though every byte is unchanged.
        cur.cells[1].dyn_insts = base.cells[1].dyn_insts * 102 / 100;
        let verdicts = compare(&base, &cur);
        let dyn_regs: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::DynInstsRegressed { .. }))
            .collect();
        assert_eq!(dyn_regs.len(), 1, "{verdicts:?}");
        assert!(dyn_regs[0].is_regression());
        assert!(
            dyn_regs[0].render().contains("dyn_insts"),
            "{}",
            dyn_regs[0].render()
        );
        // Getting *faster* is never flagged.
        let mut faster = sample_snapshot();
        faster.cells[0].dyn_insts = base.cells[0].dyn_insts / 2;
        assert!(!compare(&base, &faster).iter().any(Verdict::is_regression));
    }

    #[test]
    fn compare_flags_storm_shape_changes() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        cur.cells[0].events = 1024;
        // Counts from different storms are incomparable: fail loudly,
        // even if the count happens to look smaller.
        cur.cells[0].dyn_insts = 1;
        let verdicts = compare(&base, &cur);
        let storm: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::StormChanged { .. }))
            .collect();
        assert_eq!(storm.len(), 1, "{verdicts:?}");
        assert!(storm[0].is_regression());
        assert!(
            !verdicts
                .iter()
                .any(|v| matches!(v, Verdict::DynInstsRegressed { .. })),
            "a changed storm must not also be judged on its count"
        );
    }
}
