//! # bench — experiment harnesses for every table and figure
//!
//! Binaries (run with `--release`; each prints a paper-style table and
//! the in-text numbers the paper quotes around it):
//!
//! * `table1` — moldyn, 16 384 molecules, list rebuilt every {20, 15, 11}
//!   steps (paper Table 1).
//! * `table2` — nbf at {64×1024, 64×1000, 32×1024} (paper Table 2).
//! * `table_adapt` — the five-system comparison (seq and the four Tmk
//!   builds: base, compiler, adaptive, push) on all three apps, with the
//!   adaptive engine's policy-decision counters and acceptance checks.
//! * `figures` — regenerates Figure 1 (input), Figure 2 (transformed
//!   source), and Figure 3 (the Validate interface, as implemented).
//! * `overhead1p` — the §5 single-processor sanity numbers.
//! * `ablation` — sweeps beyond the paper: opt levels, page size,
//!   update frequency, translation-table organization, scaling.
//!
//! Criterion benches (`cargo bench`): protocol microbenchmarks (diffs,
//! sections, inspector, barriers) and small-scale end-to-end runs.

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::workload::{run_variants, MoldynWorkload, NbfWorkload, Variant, WorkloadMatrix};

/// Scale factors for quick runs (`--quick` on the binaries): smaller n,
/// fewer steps — same structure, minutes → seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's exact sizes.
    Paper,
    /// ~1/8 the molecules, same step counts.
    Quick,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }
}

/// The probe-budget message slack a churn cell is granted over the
/// steady-state `adaptive ≤ base` bar: every processor can hold a stale
/// plan on at most every shared value page, and each stale plan wastes
/// at most `min(probe_every, iters)` exchanges of ≤ 2 messages before
/// the probe cadence demotes it (`adapt::probe_budget`). `table_synth`
/// relaxes its per-cell bars by exactly this on churn cells, and
/// `table_churn` asserts the bound cell by cell.
pub fn churn_budget(cfg: &synth::SynthConfig) -> u64 {
    let pages = ((cfg.n * 8).div_ceil(cfg.page_size) * cfg.nprocs) as u64;
    adapt::probe_budget(cfg.adapt.probe_every, pages, cfg.iters as u64)
}

/// The paper's three parallel systems, in Table 1/2 row order.
pub const PAPER_VARIANTS: [Variant; 3] = [Variant::Chaos, Variant::TmkBase, Variant::TmkOpt];

/// Run the paper's three systems for one moldyn configuration
/// (cross-checked against the sequential reference).
pub fn moldyn_rows(mut cfg: MoldynConfig, scale: Scale) -> WorkloadMatrix {
    if scale == Scale::Quick {
        cfg.n = 2048;
        cfg.cutoff_frac = 0.2;
    }
    run_variants(&MoldynWorkload::new(cfg), &PAPER_VARIANTS)
}

/// Run the paper's three systems for one nbf configuration.
pub fn nbf_rows(mut cfg: NbfConfig, scale: Scale) -> WorkloadMatrix {
    if scale == Scale::Quick {
        cfg.n /= 8;
        cfg.partners = 50;
    }
    run_variants(&NbfWorkload::new(cfg), &PAPER_VARIANTS)
}
