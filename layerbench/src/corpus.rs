//! The benchmark's inputs: the pinned corpus slice, the sample matrix,
//! and the seeded perturbations a workload seed controls.
//!
//! The machines themselves are pinned. Per-machine compile cost across
//! default-shape generated machines has a coefficient of variation of
//! about 0.8, so a slice drawn from the workload seed would move compile
//! throughput by more than 10% from one seed to the next and no bound
//! could tell a regression from a different draw. The workload seed
//! therefore draws what can vary without changing the amount of work:
//! the order jobs are served in, the event sequence every cell is checked
//! on, and the value `incremental-rebuild`'s edit emits.

use cgen::{CodeMap, Generated, Pattern};
use occ::OptLevel;
use umlsm::gen::{self, GenConfig, GenRng};
use umlsm::{Action, Expr, StateMachine};

use crate::trace::Trace;

/// First `umlsm::gen` seed of the pinned corpus slice.
pub const SLICE_FIRST_SEED: u64 = 1;
/// Machines `corpus-cold` compiles: 480 cells, a build short enough to
/// repeat within one run.
pub const COLD_MACHINES: usize = 40;
/// Machines `incremental-rebuild` caches and rebuilds: the cold slice
/// extended to 1,440 cells, so one edited machine is under 1% of it.
pub const REBUILD_MACHINES: usize = 120;
/// Slice machines whose `-Os` cells join the sample cells in
/// `event-storm` (the first ones of the slice).
pub const STORM_CORPUS_MACHINES: usize = 4;
/// Machines `incremental-rebuild` replaces with edited copies.
pub const EDITED_MACHINES: usize = 1;
/// Events in the sequence every timed cell is checked on. Kept under
/// the 96-event bound within which the generator guarantees that model
/// (i64) and EM32 (i32) arithmetic agree.
pub const CHECK_EVENTS: usize = 48;
/// The workload seed later claims are measured at.
pub const PINNED_SEED: u64 = 1;
/// The workload seed a claim must also hold at; never used while a
/// change is being written.
pub const HELD_OUT_SEED: u64 = 7919;

/// One model and the code generated from it.
pub struct Subject {
    /// Stable name (`gen-<seed>` or the sample's short name).
    pub name: String,
    /// The model as written, before model-level optimization: the
    /// oracle's input.
    pub model: StateMachine,
    /// One generation per pattern, in [`Pattern::all`] order.
    pub generated: Vec<Generated>,
    /// The event sequence the cells of this subject are checked on.
    pub check_events: Vec<String>,
}

/// One compile job: a subject's pattern at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Index into [`Inputs::subjects`].
    pub subject: usize,
    /// Index into [`Subject::generated`].
    pub pattern: usize,
    /// Optimization level.
    pub level: OptLevel,
}

/// A workload's compile inputs: subjects, cells in serving order, and
/// the matching `(module, level)` job list for the driver.
pub struct Inputs {
    /// Every subject.
    pub subjects: Vec<Subject>,
    /// Cells in the seeded serving order.
    pub cells: Vec<Cell>,
    /// `jobs[i]` is the driver job of `cells[i]`.
    pub jobs: Vec<(tlang::Module, OptLevel)>,
}

impl Inputs {
    /// The generated code behind a cell.
    pub fn generated(&self, cell: Cell) -> &Generated {
        &self.subjects[cell.subject].generated[cell.pattern]
    }

    /// The event-code map of a cell.
    pub fn codes(&self, cell: Cell) -> &CodeMap {
        &self.generated(cell).codes
    }

    /// Replaces the last [`EDITED_MACHINES`] subjects with edited copies
    /// and rebuilds the job list, returning the edited subject indices.
    /// The edit adds an emission of a seed-drawn value to the root
    /// region's initial effect: it is observable, so model optimization
    /// keeps it and every pattern and level of the machine becomes a new
    /// job. The edited machines are pinned, not drawn: their compile cost
    /// is most of a rebuild's misses, and it varies several-fold between
    /// machines. The last ones are outside the cold slice, so the cells
    /// stormed after a rebuild are the cold slice's own.
    ///
    /// # Errors
    ///
    /// Fails if an edited machine does not optimize or generate.
    pub fn edit(&mut self, seed: u64, trace: &mut Trace) -> Result<Vec<usize>, String> {
        let mut rng = GenRng::new(seed ^ 0xed17_ed17_ed17_ed17);
        let n = self.subjects.len();
        let edited: Vec<usize> = (n - EDITED_MACHINES.min(n)..n).collect();
        for &i in &edited {
            let mut model = self.subjects[i].model.clone();
            let root = model.root();
            model.region_mut(root).initial_effect.push(Action::emit_arg(
                "edited",
                Expr::int(rng.below(1000) as i64),
            ));
            let name = self.subjects[i].name.clone();
            let check_events = self.subjects[i].check_events.clone();
            self.subjects[i] = optimized_subject(name, model, check_events, trace)?;
        }
        self.jobs = jobs_for(&self.subjects, &self.cells);
        Ok(edited)
    }
}

/// The first `machines` machines of the pinned corpus slice
/// ([`COLD_MACHINES`] or [`REBUILD_MACHINES`]; fewer in tests), every
/// pattern at every level.
///
/// # Errors
///
/// Fails if a machine does not optimize or generate.
pub fn corpus(seed: u64, machines: usize, trace: &mut Trace) -> Result<Inputs, String> {
    let subjects = corpus_subjects(seed, machines, trace)?;
    Ok(inputs(subjects, seed, |_| true))
}

/// The 48 sample-matrix cells plus the `-Os` cells of the first
/// [`STORM_CORPUS_MACHINES`] slice machines (at most `machines`).
///
/// # Errors
///
/// Fails if a machine does not optimize or generate.
pub fn storm_set(seed: u64, machines: usize, trace: &mut Trace) -> Result<Inputs, String> {
    let mut rng = GenRng::new(seed ^ 0x5a3b_1e5e_ed00_0001);
    let mut subjects = Vec::new();
    for (name, machine) in bench::matrix::sample_machines() {
        let mut generated = Vec::new();
        for arm in bench::matrix::arms_for(name, &machine) {
            generated.push(
                trace
                    .span("cgen.generate_ms", || arm.generate())
                    .map_err(|e| e.to_string())?,
            );
        }
        let check_events = check_sequence(&machine, &mut rng);
        subjects.push(Subject {
            name: name.to_string(),
            model: machine,
            generated,
            check_events,
        });
    }
    let samples = subjects.len();
    subjects.extend(corpus_subjects(
        seed,
        STORM_CORPUS_MACHINES.min(machines),
        trace,
    )?);
    Ok(inputs(subjects, seed, |c| {
        c.subject < samples || c.level == OptLevel::Os
    }))
}

fn corpus_subjects(seed: u64, machines: usize, trace: &mut Trace) -> Result<Vec<Subject>, String> {
    let shape = GenConfig::default();
    let mut rng = GenRng::new(seed ^ 0xc0de_5eed_0000_0001);
    let mut subjects = Vec::with_capacity(machines);
    for gen_seed in (SLICE_FIRST_SEED..).take(machines) {
        let model = trace.span("umlsm.gen_ms", || gen::generate(gen_seed, &shape));
        let check_events = check_sequence(&model, &mut rng);
        subjects.push(optimized_subject(
            format!("gen-{gen_seed}"),
            model,
            check_events,
            trace,
        )?);
    }
    Ok(subjects)
}

/// The paper's model-to-binary front half: `mbo` with every model
/// optimization, then each implementation pattern.
fn optimized_subject(
    name: String,
    model: StateMachine,
    check_events: Vec<String>,
    trace: &mut Trace,
) -> Result<Subject, String> {
    let outcome = trace
        .span("mbo.optimize_ms", || {
            mbo::Optimizer::with_all().optimize(&model)
        })
        .map_err(|e| format!("{name}: model optimization failed: {e}"))?;
    trace.add(
        "mbo.states_removed",
        outcome.report.total_removed_states() as f64,
    );
    trace.add(
        "mbo.transitions_removed",
        outcome.report.total_removed_transitions() as f64,
    );
    let mut generated = Vec::new();
    for pattern in Pattern::all() {
        generated.push(
            trace
                .span("cgen.generate_ms", || {
                    cgen::generate(&outcome.machine, pattern)
                })
                .map_err(|e| format!("{name}/{pattern}: code generation failed: {e}"))?,
        );
    }
    Ok(Subject {
        name,
        model,
        generated,
        check_events,
    })
}

/// A uniform random sequence over the model's own event alphabet.
fn check_sequence(model: &StateMachine, rng: &mut GenRng) -> Vec<String> {
    let events: Vec<String> = model.events().map(|(_, e)| e.name.clone()).collect();
    if events.is_empty() {
        return Vec::new();
    }
    (0..CHECK_EVENTS)
        .map(|_| rng.pick(&events).clone())
        .collect()
}

/// Every subject × pattern × level cell accepted by `keep`, in a seeded
/// order.
fn inputs(subjects: Vec<Subject>, seed: u64, keep: impl Fn(&Cell) -> bool) -> Inputs {
    let mut cells = Vec::new();
    for (subject, s) in subjects.iter().enumerate() {
        for pattern in 0..s.generated.len() {
            for level in OptLevel::all() {
                let cell = Cell {
                    subject,
                    pattern,
                    level,
                };
                if keep(&cell) {
                    cells.push(cell);
                }
            }
        }
    }
    let mut rng = GenRng::new(seed ^ 0x0bde_0bde_0bde_0bde);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    let jobs = jobs_for(&subjects, &cells);
    Inputs {
        subjects,
        cells,
        jobs,
    }
}

fn jobs_for(subjects: &[Subject], cells: &[Cell]) -> Vec<(tlang::Module, OptLevel)> {
    cells
        .iter()
        .map(|c| {
            (
                subjects[c.subject].generated[c.pattern].module.clone(),
                c.level,
            )
        })
        .collect()
}
