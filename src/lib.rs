//! # sdsm-repro
//!
//! Reproduction of *"Compiler and Software Distributed Shared Memory
//! Support for Irregular Applications"* (Lu, Cox, Dwarkadas, Rajamony,
//! Zwaenepoel — PPoPP 1997): a TreadMarks-style software DSM with
//! compiler-directed communication aggregation (`Validate`), a CHAOS
//! inspector/executor baseline, the ParaScope-style compiler front end,
//! and the paper's two irregular applications — all on one simulated
//! SP2-like cluster.
//!
//! This crate is the workspace façade: it re-exports every subsystem and
//! hosts the runnable examples and cross-crate integration tests. Start
//! with [`core_rt::validate`] (the paper's contribution), or run:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release -p bench --bin table1 -- --quick
//! ```

/// The runtime-adaptive aggregation engine (the fourth system variant).
pub use adapt;
/// The applications: moldyn, nbf and umesh in all six variant builds.
pub use apps;
/// The CHAOS inspector/executor baseline run-time.
pub use chaos;
/// The TreadMarks-style software DSM (lazy release consistency).
pub use dsm;
/// The compiler front end (regular section analysis + Validate insertion).
pub use fcc;
/// Regular section descriptors.
pub use rsd;
/// The paper's contribution: the augmented `Validate` run-time.
pub use sdsm_core as core_rt;
/// The scenario-matrix service (work-stealing throughput driver).
pub use serve;
/// The simulated cluster substrate (clocks, messages, cost model).
pub use simnet;
/// The synthetic irregular-workload engine (scenario matrix).
pub use synth;
/// Deterministic simulated-time tracing + stall attribution.
pub use trace;
