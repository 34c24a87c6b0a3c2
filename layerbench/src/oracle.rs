//! The correctness check: a compiled cell's observable trace against
//! the model interpreter's trace of the model as written.
//!
//! The reference is `umlsm::Interp` on the *unoptimized* machine, never
//! the compiler under test, so one comparison covers `mbo`, `cgen` and
//! `occ` together. Emissions are decoded exactly as `bench::fuzz` decodes
//! them (`env_emit(signal code, argument)`), and events the optimized
//! program no longer knows are skipped on the program side, as there.

use cgen::CodeMap;
use occ::vm::{DecodedProgram, FastVm};
use tlang::RecordingEnv;
use umlsm::{Interp, StateMachine};

/// An observable trace: `(signal, argument)` emissions in order.
pub type Observable = Vec<(String, i64)>;

/// The model interpreter's observable trace of `events`.
///
/// # Errors
///
/// A description of the interpreter failure.
pub fn model_trace(model: &StateMachine, events: &[String]) -> Result<Observable, String> {
    let mut interp = Interp::new(model).map_err(|e| format!("model boot: {e:?}"))?;
    for e in events {
        interp
            .step_by_name(e)
            .map_err(|err| format!("model step `{e}`: {err:?}"))?;
    }
    Ok(interp.trace().observable())
}

/// Runs `events` on the compiled program and compares its emissions
/// with `expected`.
///
/// # Errors
///
/// A description of the fault or of the first mismatch.
pub fn check(
    prog: &DecodedProgram,
    codes: &CodeMap,
    events: &[String],
    expected: &[(String, i64)],
) -> Result<(), String> {
    let mut vm = FastVm::new(prog, RecordingEnv::new());
    let fault = |e| format!("vm fault: {e}");
    vm.run("sm_init", &[]).map_err(fault)?;
    for e in events {
        if let Some(code) = codes.event_code(e) {
            vm.run("sm_step", &[code as i32]).map_err(fault)?;
        }
    }
    let got: Observable = vm
        .into_env()
        .calls
        .into_iter()
        .filter(|(name, _)| name == "env_emit")
        .map(|(_, args)| {
            let code = i64::from(args.first().copied().unwrap_or(0));
            let arg = i64::from(args.get(1).copied().unwrap_or(0));
            let signal = codes.signal_name(code).unwrap_or("<unknown>");
            (signal.to_string(), arg)
        })
        .collect();
    if got == expected {
        Ok(())
    } else {
        let at = got
            .iter()
            .zip(expected)
            .position(|(g, x)| g != x)
            .unwrap_or(got.len().min(expected.len()));
        Err(format!(
            "trace mismatch at emission {at}: program {:?} vs model {:?} ({} vs {} emissions)",
            got.get(at),
            expected.get(at),
            got.len(),
            expected.len()
        ))
    }
}
