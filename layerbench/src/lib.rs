//! A layered benchmark of the model-to-binary chain: UML model →
//! `mbo` → `cgen` → `tlang` → `occ` → EM32 execution.
//!
//! Three workloads ([`workload::Workload`]) measure cold compilation of
//! a pinned corpus slice, long event storms on compiled cells, and an
//! incremental rebuild from a warm disk cache. Every timed cell is
//! checked against the model interpreter ([`oracle`]). A traced run
//! ([`trace`]) times the public functions of each layer from outside.
//! See `README.md` beside this crate for the workload rationale and the
//! layer → metric → workload map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod oracle;
pub mod report;
pub mod storm;
pub mod trace;
pub mod workload;
