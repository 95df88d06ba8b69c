//! The `Workload` trait: one contract every application — moldyn, nbf,
//! umesh, and every synthetic scenario from the `synth` crate —
//! implements, plus the generic runner every table harness and test
//! cross-checks through.
//!
//! A workload is "a deterministic irregular computation that can run as
//! any of the six system variants and hand back a flattened final
//! state for cross-checking". The runner ([`run_variants`], or
//! [`run_matrix`] for all five parallel variants) runs the sequential
//! reference first, feeds its simulated time to the parallel variants,
//! and enforces the repo's agreement contract:
//!
//! * the Tmk builds present (base / optimized / adaptive / update-push)
//!   are **always** bitwise identical — the protocol layers only move
//!   fetches earlier or later (or flip who initiates the exchange),
//!   never change data;
//! * against the sequential reference, each workload declares its
//!   [`CheckMode`]: `Bitwise` where the parallel reduction replays the
//!   sequential accumulation order (umesh, all synth scenarios),
//!   `Tolerance` where a pipelined reduction reassociates floating-point
//!   addition (moldyn, nbf).

use simnet::SimTime;

use crate::moldyn::{self, MoldynConfig, MoldynWorld};
use crate::nbf::{self, NbfConfig, NbfWorld};
use crate::report::{table_header, RunReport};
use crate::umesh::{self, Mesh, UmeshConfig};

/// The six system variants of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Seq,
    TmkBase,
    TmkOpt,
    TmkAdaptive,
    /// The adaptive engine in update-push mode: same predictor as
    /// `TmkAdaptive`, one one-way writer push per predicted exchange.
    TmkPush,
    Chaos,
}

impl Variant {
    pub const ALL: [Variant; 6] = [
        Variant::Seq,
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
        Variant::Chaos,
    ];

    /// The five parallel variants, in table order.
    pub const PARALLEL: [Variant; 5] = [
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
        Variant::Chaos,
    ];

    /// The Tmk protocol family — always bitwise-identical to each
    /// other, whatever the workload's contract vs sequential.
    pub const TMK: [Variant; 4] = [
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
    ];

    /// Table-row label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Seq => "seq",
            Variant::TmkBase => "Tmk base",
            Variant::TmkOpt => "Tmk optimized",
            Variant::TmkAdaptive => "Tmk adaptive",
            Variant::TmkPush => "Tmk push",
            Variant::Chaos => "CHAOS",
        }
    }

    /// Does this variant install the runtime-adaptive engine?
    pub fn is_adaptive(self) -> bool {
        matches!(self, Variant::TmkAdaptive | Variant::TmkPush)
    }

    /// The policy each processor of an adaptive variant installs: the
    /// caller's `knobs`, switched to update-push for [`Variant::TmkPush`].
    /// `None` for every other variant.
    pub fn policy(self, knobs: &adapt::AdaptConfig) -> Option<Box<dyn adapt::ProtocolPolicy>> {
        self.is_adaptive().then(|| {
            let knobs = adapt::AdaptConfig {
                push: self == Variant::TmkPush,
                ..knobs.clone()
            };
            Box::new(adapt::AdaptivePolicy::new(knobs)) as Box<dyn adapt::ProtocolPolicy>
        })
    }
}

/// Agreement contract between a parallel variant and the sequential
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckMode {
    /// Every variant replays the sequential accumulation order: results
    /// must be bit-for-bit equal.
    Bitwise,
    /// A pipelined reduction reassociates floating-point addition:
    /// results agree to `|g - w| <= tol + tol·|w|`.
    Tolerance(f64),
}

/// One deterministic irregular computation, runnable as all six
/// variants.
pub trait Workload {
    /// Scenario label for reports (e.g. `"moldyn n=512 p4"` or
    /// `"synth uniform/remap3/p4"`).
    fn label(&self) -> String;

    /// Run one variant. `seq_time` is the sequential reference time (for
    /// the speedup column; ignored when `v == Variant::Seq`). Returns the
    /// table row and the flattened final state for cross-checking.
    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>);

    /// Agreement contract vs the sequential reference.
    fn check_mode(&self) -> CheckMode {
        CheckMode::Tolerance(1e-9)
    }
}

/// One completed variant run.
pub struct VariantRun {
    pub variant: Variant,
    pub report: RunReport,
    pub x: Vec<f64>,
}

/// The runs of one workload, cross-checked.
pub struct WorkloadMatrix {
    pub label: String,
    /// Sequential first, then the requested variants in order.
    pub runs: Vec<VariantRun>,
}

impl WorkloadMatrix {
    pub fn get(&self, v: Variant) -> &VariantRun {
        self.runs
            .iter()
            .find(|r| r.variant == v)
            .expect("variant present")
    }

    /// Paper-style block for table harnesses, titled with the label.
    pub fn print(&self) {
        self.print_titled(&self.label);
    }

    /// Paper-style block: `title`, the sequential time, then one row per
    /// parallel run in run order.
    pub fn print_titled(&self, title: &str) {
        println!(
            "\n{title}  (seq = {:.1} s)",
            self.get(Variant::Seq).report.time.as_secs_f64()
        );
        println!("{}", table_header());
        for r in &self.runs[1..] {
            println!("{}", r.report.row());
        }
    }
}

fn assert_close(label: &str, variant: Variant, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{label}/{variant:?}: state length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol + tol * w.abs(),
            "{label}/{variant:?}: element {i} diverged from sequential: {g} vs {w}"
        );
    }
}

/// Run the sequential reference and all five parallel variants of `w`
/// (see [`run_variants`]).
pub fn run_matrix(w: &(impl Workload + ?Sized)) -> WorkloadMatrix {
    run_variants(w, &Variant::PARALLEL)
}

/// Run the sequential reference, then each of `variants` in order,
/// enforcing the agreement contract: every variant against the
/// sequential result under `w`'s [`CheckMode`], and the Tmk builds
/// present bitwise against each other. Panics on any violation — this
/// is the cross-check every table harness and test goes through.
pub fn run_variants(w: &(impl Workload + ?Sized), variants: &[Variant]) -> WorkloadMatrix {
    assert!(!variants.contains(&Variant::Seq), "the sequential reference always runs first");
    let label = w.label();
    let (seq_report, seq_x) = w.run(Variant::Seq, SimTime::ZERO);
    let seq_time = seq_report.time;
    let mut runs = vec![VariantRun {
        variant: Variant::Seq,
        report: seq_report,
        x: seq_x,
    }];
    for &v in variants {
        let (report, x) = w.run(v, seq_time);
        match w.check_mode() {
            CheckMode::Bitwise => {
                assert_eq!(
                    x, runs[0].x,
                    "{label}/{v:?}: must be bitwise identical to sequential"
                );
            }
            CheckMode::Tolerance(tol) => assert_close(&label, v, &x, &runs[0].x, tol),
        }
        runs.push(VariantRun {
            variant: v,
            report,
            x,
        });
    }
    // The Tmk family is bitwise-identical regardless of the seq
    // contract: the protocol layers (compiler aggregation, adaptive
    // prefetch, update-push) only move fetches, never change data.
    let mut tmk = runs.iter().filter(|r| Variant::TMK.contains(&r.variant));
    if let Some(first) = tmk.next() {
        for r in tmk {
            assert_eq!(
                r.x, first.x,
                "{label}/{:?}: Tmk builds must be bitwise identical",
                r.variant
            );
        }
    }
    WorkloadMatrix { label, runs }
}

fn flatten3(x: &[[f64; 3]]) -> Vec<f64> {
    x.iter().flatten().copied().collect()
}

// ---------------------------------------------------------------------------
// The three classic applications as workloads. Each delegates to the
// app's public entry points, so the trait harness reproduces the direct
// calls' message counts exactly.

/// moldyn as a [`Workload`].
pub struct MoldynWorkload {
    pub cfg: MoldynConfig,
    pub world: MoldynWorld,
}

impl MoldynWorkload {
    pub fn new(cfg: MoldynConfig) -> Self {
        let world = moldyn::gen_positions(&cfg);
        MoldynWorkload { cfg, world }
    }
}

impl Workload for MoldynWorkload {
    fn label(&self) -> String {
        format!(
            "moldyn n={} rebuild@{} p{}",
            self.cfg.n, self.cfg.update_interval, self.cfg.nprocs
        )
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        match v {
            Variant::Seq => {
                let r = moldyn::run_seq(&self.cfg, &self.world);
                let x = flatten3(&r.x);
                (r.report, x)
            }
            Variant::Chaos => {
                let (r, x) = moldyn::run_chaos(&self.cfg, &self.world, seq_time);
                (r, flatten3(&x))
            }
            tmk => {
                let (r, x) = moldyn::run_tmk(&self.cfg, &self.world, tmk, seq_time);
                (r, flatten3(&x))
            }
        }
    }
}

/// nbf as a [`Workload`].
pub struct NbfWorkload {
    pub cfg: NbfConfig,
    pub world: NbfWorld,
}

impl NbfWorkload {
    pub fn new(cfg: NbfConfig) -> Self {
        let world = nbf::gen_world(&cfg);
        NbfWorkload { cfg, world }
    }
}

impl Workload for NbfWorkload {
    fn label(&self) -> String {
        format!("nbf n={} p{}", self.cfg.n, self.cfg.nprocs)
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        match v {
            Variant::Seq => {
                let r = nbf::run_seq(&self.cfg, &self.world);
                let x = r.x.clone();
                (r.report, x)
            }
            Variant::Chaos => nbf::run_chaos(&self.cfg, &self.world, seq_time),
            tmk => nbf::run_tmk(&self.cfg, &self.world, tmk, seq_time),
        }
    }
}

/// umesh as a [`Workload`]. Its fixed-order owner-side reduction makes
/// the contract bitwise against the sequential reference.
pub struct UmeshWorkload {
    pub cfg: UmeshConfig,
    pub mesh: Mesh,
}

impl UmeshWorkload {
    pub fn new(cfg: UmeshConfig) -> Self {
        let mesh = umesh::gen_mesh(&cfg);
        UmeshWorkload { cfg, mesh }
    }
}

impl Workload for UmeshWorkload {
    fn label(&self) -> String {
        format!("umesh {}x{} p{}", self.cfg.side, self.cfg.side, self.cfg.nprocs)
    }

    fn check_mode(&self) -> CheckMode {
        CheckMode::Bitwise
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        match v {
            Variant::Seq => {
                let r = umesh::run_seq(&self.cfg, &self.mesh);
                let x = r.x.clone();
                (r.report, x)
            }
            Variant::Chaos => umesh::run_chaos(&self.cfg, &self.mesh, seq_time),
            tmk => umesh::run_tmk(&self.cfg, &self.mesh, tmk, seq_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_match_system_kinds() {
        assert_eq!(Variant::Seq.label(), "seq");
        assert_eq!(Variant::TmkBase.label(), "Tmk base");
        assert_eq!(Variant::TmkOpt.label(), "Tmk optimized");
        assert_eq!(Variant::TmkAdaptive.label(), "Tmk adaptive");
        assert_eq!(Variant::TmkPush.label(), "Tmk push");
        assert_eq!(Variant::Chaos.label(), "CHAOS");
        assert_eq!(Variant::ALL.len(), 6);
        assert_eq!(Variant::PARALLEL.len(), 5);
        assert!(!Variant::PARALLEL.contains(&Variant::Seq));
        assert!(Variant::TMK.iter().all(|v| Variant::PARALLEL.contains(v)));
        let knobs = adapt::AdaptConfig::default();
        for v in Variant::ALL {
            assert_eq!(v.policy(&knobs).is_some(), v.is_adaptive(), "{v:?}");
        }
    }

    #[test]
    fn umesh_matrix_runs_and_cross_checks() {
        let w = UmeshWorkload::new(UmeshConfig::small());
        let m = run_matrix(&w);
        assert_eq!(m.runs.len(), 6);
        // The runner already asserted bitwise agreement; spot-check the
        // protocol shape survives the trait indirection.
        assert!(
            m.get(Variant::TmkOpt).report.messages < m.get(Variant::TmkBase).report.messages
        );
    }
}
