//! The benchmark's workloads: which cells each one serves, generated
//! from the workload seed, and the committed snapshot they anchor to.

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{MoldynWorkload, NbfWorkload, UmeshWorkload, Workload};
use synth::{scenario_grid, Prepared, SynthConfig};

/// The seed `synth::scenario_grid` and the apps' `small()` configs use
/// as they stand. At this seed every cell is exactly the one
/// `BENCH_10.json` was measured on; any other seed shifts every cell's
/// generator seed by the same offset.
pub const DEFAULT_SEED: u64 = 2024;

/// Executor threads of every closed loop (the benchmark host has two
/// cores).
pub const WORKERS: usize = 2;

/// Simulated-processor tokens `serve` may hold at once: enough for two
/// 64-processor jobs side by side, so both workers of `grid-p64` serve
/// concurrently.
pub const THREAD_BUDGET: usize = 128;

/// Per-variant message totals, in `Variant::PARALLEL` order
/// (tmk_base, tmk_opt, tmk_adaptive, tmk_push, chaos).
pub type Totals = [u64; 5];

/// `serve_quick_grid.message_totals` of `BENCH_10.json`: one job per
/// cell of the 30-cell quick grid.
pub const BENCH_10_QUICK_GRID: Totals = [212338, 111018, 158132, 148000, 58158];

/// The three 64-processor cells' share of [`BENCH_10_QUICK_GRID`]; the
/// other 27 cells (`grid-small`) carry the rest, so the two workloads'
/// anchor checks together reproduce the snapshot's totals.
pub const BENCH_10_P64_SHARE: Totals = [185696, 100768, 142898, 134750, 51534];

/// The `moldyn_small`, `nbf_small` and `umesh_small` rows of
/// `BENCH_10.json`'s `message_totals`.
pub const BENCH_10_APPS: [Totals; 3] = [
    [1250, 414, 974, 930, 180],
    [624, 240, 580, 568, 96],
    [218, 134, 218, 206, 78],
];

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 27 quick-grid cells at 4 and 8 processors, through `serve`.
    GridSmall,
    /// The three 64-processor quick-grid cells, through `serve`.
    GridP64,
    /// moldyn, nbf and umesh at `small()` size, in the benchmark's own
    /// closed loop.
    Apps,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "grid-small" => Some(Kind::GridSmall),
            "grid-p64" => Some(Kind::GridP64),
            "apps" => Some(Kind::Apps),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::GridSmall => "grid-small",
            Kind::GridP64 => "grid-p64",
            Kind::Apps => "apps",
        }
    }

    /// The tail percentile `job_tail_ms` reports, and the job count the
    /// latency loop runs at least, so that ten jobs lie beyond it. The
    /// percentile is the highest that keeps ten jobs beyond it at the
    /// job count a 20-second run reaches on a 2-core host.
    pub fn tail(self) -> (f64, u64) {
        match self {
            Kind::GridSmall => (0.98, 500),
            Kind::GridP64 => (0.75, 40),
            Kind::Apps => (0.99, 1000),
        }
    }

    /// Segments per run: `serve` calls of a grid run, each with its own
    /// set-up; for `apps`, golden set-ups and equal stretches of the
    /// loop. `cells_per_s` and `setup_s` are medians over them.
    pub fn segments(self) -> usize {
        match self {
            Kind::GridSmall | Kind::GridP64 => 3,
            Kind::Apps => 5,
        }
    }

    /// The share of a grid run's worker time given to its `serve` calls;
    /// the latency loop gets the rest. `apps` does not go through
    /// `serve`.
    pub fn serve_share(self) -> f64 {
        match self {
            Kind::GridSmall => 0.5,
            Kind::GridP64 => 0.6,
            Kind::Apps => 0.0,
        }
    }

    /// Rounds each `serve` call serves at least.
    pub fn min_rounds(self) -> u64 {
        match self {
            Kind::GridSmall => 4,
            Kind::GridP64 => 3,
            Kind::Apps => 0,
        }
    }

    /// Processors of the cells whose rendezvous cost the `dsm` probe
    /// measures.
    pub fn probe_nprocs(self) -> usize {
        match self {
            Kind::GridSmall | Kind::Apps => 4,
            Kind::GridP64 => 64,
        }
    }

    /// Expected per-variant message totals of one job per cell at
    /// [`DEFAULT_SEED`].
    pub fn anchor(self) -> Totals {
        match self {
            Kind::GridSmall => {
                std::array::from_fn(|i| BENCH_10_QUICK_GRID[i] - BENCH_10_P64_SHARE[i])
            }
            Kind::GridP64 => BENCH_10_P64_SHARE,
            Kind::Apps => std::array::from_fn(|i| BENCH_10_APPS.iter().map(|row| row[i]).sum()),
        }
    }
}

/// Shift a default seed by the workload seed's offset from
/// [`DEFAULT_SEED`].
fn shifted(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

/// The quick-grid cells of a grid workload, generated from `seed`.
pub fn grid_configs(kind: Kind, seed: u64) -> Vec<SynthConfig> {
    assert!(kind != Kind::Apps, "apps is not a grid workload");
    scenario_grid(true)
        .into_iter()
        .filter(|c| (c.nprocs == 64) == (kind == Kind::GridP64))
        .map(|mut c| {
            c.seed = shifted(c.seed, seed);
            c
        })
        .collect()
}

/// The cell class of a grid cell: p4, p8, churn or p64.
pub fn grid_class(cfg: &SynthConfig) -> &'static str {
    match cfg.nprocs {
        64 => "p64",
        _ if cfg.dynamics.is_churn() => "churn",
        8 => "p8",
        _ => "p4",
    }
}

/// The generated inputs of one workload, owned.
pub enum Inputs {
    Grid(Vec<Prepared>),
    Apps(Box<(MoldynWorkload, NbfWorkload, UmeshWorkload)>),
}

/// One cell a job can run: its class and the workload behind it.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    pub class: &'static str,
    pub work: &'a (dyn Workload + Sync),
}

impl Inputs {
    /// Generate every cell's inputs (the `synth::Prepared` set-up, or
    /// the apps' generated worlds).
    pub fn build(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::Apps => {
                let mut moldyn = MoldynConfig::small();
                moldyn.seed = shifted(moldyn.seed, seed);
                let mut nbf = NbfConfig::small();
                nbf.seed = shifted(nbf.seed, seed);
                let mut umesh = UmeshConfig::small();
                umesh.seed = shifted(umesh.seed, seed);
                Inputs::Apps(Box::new((
                    MoldynWorkload::new(moldyn),
                    NbfWorkload::new(nbf),
                    UmeshWorkload::new(umesh),
                )))
            }
            _ => Inputs::Grid(
                grid_configs(kind, seed)
                    .into_iter()
                    .map(Prepared::new)
                    .collect(),
            ),
        }
    }

    pub fn cells(&self) -> Vec<Cell<'_>> {
        match self {
            Inputs::Grid(preps) => preps
                .iter()
                .map(|p| Cell {
                    class: grid_class(p.cfg()),
                    work: p,
                })
                .collect(),
            Inputs::Apps(apps) => vec![
                Cell {
                    class: "moldyn",
                    work: &apps.0,
                },
                Cell {
                    class: "nbf",
                    work: &apps.1,
                },
                Cell {
                    class: "umesh",
                    work: &apps.2,
                },
            ],
        }
    }

    /// Switch the grid cells to the recycled-cluster path `serve` uses
    /// after its cold golden pass (the apps have no such path).
    pub fn set_reuse(&self, on: bool) {
        if let Inputs::Grid(preps) = self {
            for p in preps {
                p.set_reuse(on);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_workloads_split_the_quick_grid() {
        let small = grid_configs(Kind::GridSmall, DEFAULT_SEED);
        let p64 = grid_configs(Kind::GridP64, DEFAULT_SEED);
        assert_eq!((small.len(), p64.len()), (27, 3));
        let count = |class| small.iter().filter(|c| grid_class(c) == class).count();
        assert_eq!((count("p4"), count("p8"), count("churn")), (18, 3, 6));
        // The default seed leaves scenario_grid's own seeds alone.
        let grid = scenario_grid(true);
        assert_eq!(small[0].seed, grid[0].seed);
        assert_ne!(grid_configs(Kind::GridSmall, 7)[0].seed, grid[0].seed);
    }
}
