//! The untraced run: the end-to-end metrics of one workload.
//!
//! Grid workloads measure throughput and set-up through `serve::serve`
//! (the service a user runs), then job latency in the benchmark's own
//! closed loop over the same cells, where every job's start and end are
//! known. `apps` measures all three in its own closed loop of
//! `run_matrix` jobs. Every job is checked against a reference pass.
//!
//! Every time is read off the process's CPU clock, not the wall clock,
//! so other processes on a shared host do not enter the figures. A
//! stretch of serving counts as the process CPU time spent in it divided
//! by the `WORKERS` cores the workers keep busy; a job's latency is the
//! process CPU time spent while it ran, divided the same way, i.e. its
//! wall latency scaled by the share of those cores the process got. On a
//! host of its own the two clocks agree. Every time is then divided by
//! the run's slowdown, read off a fixed probe computation (see
//! `stats::CpuTimeline::slowdown`), so that it reads as on the reference
//! host at full speed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use apps::workload::run_matrix;
use serve::{serve, ServeConfig, ServeOutcome, Stop};
use synth::{Prepared, SynthConfig};

use crate::cells::{self, Cell, Inputs, Kind, DEFAULT_SEED, THREAD_BUDGET, WORKERS};
use crate::check::{digest, print_of, Ledger, Metric, Print};
use crate::stats::{
    closed_loop, geomean, median, peak_rss_mb, process_cpu_s, quantile, with_cpu_timeline,
    CpuTimeline, PROBE_REF_S,
};

/// The variant tags of the `sim_speedup.*` metrics, in
/// `Variant::PARALLEL` order.
pub const TAGS: [&str; 5] = ["tmk_base", "tmk_opt", "tmk_adaptive", "tmk_push", "chaos"];

/// What a run measured, before it becomes metrics.
struct Measured {
    /// Throughput of each segment, jobs per worker-second.
    rates: Vec<f64>,
    /// Latency of every job of the latency loop, ms.
    latency_ms: Vec<f64>,
    /// CPU seconds of each set-up.
    setups: Vec<f64>,
    prints: Vec<Print>,
    timeline: CpuTimeline,
}

pub fn run(kind: Kind, seed: u64, seconds: f64) -> (Ledger, Vec<Metric>) {
    let mut ledger = Ledger::default();
    let measured = match kind {
        Kind::Apps => apps_run(seed, seconds, &mut ledger),
        _ => grid_run(kind, seed, seconds, &mut ledger),
    };
    let Some(m) = measured else {
        return (ledger, Vec::new());
    };
    if seed == DEFAULT_SEED {
        ledger.anchor(&m.prints, kind.anchor());
    }
    let (tail_q, min_jobs) = kind.tail();
    let jobs = m.latency_ms.len() as u64;
    if jobs < min_jobs {
        ledger.problem(format!(
            "{jobs} timed jobs leave fewer than 10 beyond p{}",
            tail_q * 100.0
        ));
    }
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (probe_s, probes) = m.timeline.probe_s();
    let slowdown = m.timeline.slowdown();
    eprintln!(
        "perfbench: CPU clock before the slowdown: segments' cells_per_s {}; set-ups' setup_s {}; \
         job_p50_ms {:.4}",
        list(&m.rates),
        list(&m.setups),
        median(&m.latency_ms)
    );
    eprintln!(
        "perfbench: probe median {:.4} ms over {probes} runs vs reference {:.4} ms: slowdown {slowdown:.4}",
        probe_s * 1e3,
        PROBE_REF_S * 1e3
    );
    eprintln!(
        "perfbench: job_tail_ms is p{} over {jobs} jobs; simulation digest {:016x}",
        tail_q * 100.0,
        digest(&m.prints)
    );
    let mut metrics = vec![
        metric("cells_per_s", median(&m.rates) * slowdown, "1/s"),
        metric("job_p50_ms", median(&m.latency_ms) / slowdown, "ms"),
        metric(
            "job_tail_ms",
            quantile(&m.latency_ms, tail_q) / slowdown,
            "ms",
        ),
        metric("setup_s", median(&m.setups) / slowdown, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    for (i, tag) in TAGS.iter().enumerate() {
        let speedup = geomean(m.prints.iter().map(|p| f64::from_bits(p[i].speedup_bits)));
        metrics.push(metric(&format!("sim_speedup.{tag}"), speedup, "x"));
    }
    (ledger, metrics)
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// One job per cell on one thread, from freshly built inputs: the
/// reference every served job must reproduce.
fn reference(cfgs: &[SynthConfig]) -> Vec<Print> {
    cfgs.iter()
        .map(|c| print_of(&run_matrix(&Prepared::new(c.clone()))))
        .collect()
}

/// Worker seconds (process CPU seconds per worker core) since `cpu0`.
fn worker_s_since(cpu0: f64) -> f64 {
    (process_cpu_s() - cpu0) / WORKERS as f64
}

/// One job of a latency loop: its cell, start, end, and print (`None`
/// if it panicked).
type Job = (usize, Instant, Instant, Option<Print>);

/// `WORKERS` threads run `run_matrix` jobs round-robin over `cells`
/// until at least `min_jobs` have started and `seconds` of worker time
/// have passed.
fn latency_loop(cells: &[Cell], seconds: f64, min_jobs: u64) -> (Instant, Vec<Job>) {
    let (start, cpu0) = (Instant::now(), process_cpu_s());
    let (jobs, _) = closed_loop(
        WORKERS,
        |seq, _| seq < min_jobs || worker_s_since(cpu0) < seconds,
        |_, seq| {
            let k = (seq % cells.len() as u64) as usize;
            let t0 = Instant::now();
            let m = catch_unwind(AssertUnwindSafe(|| run_matrix(cells[k].work)));
            (k, t0, Instant::now(), m.map(|m| print_of(&m)).ok())
        },
    );
    (start, jobs)
}

/// Check every job of a loop against the reference prints, and return
/// each correct job's end and latency in ms: the process CPU time spent
/// while it ran, per worker core.
fn judge(
    jobs: Vec<Job>,
    cells: &[Cell],
    prints: &[Print],
    timeline: &CpuTimeline,
    ledger: &mut Ledger,
) -> Vec<(Instant, f64)> {
    let mut out = Vec::with_capacity(jobs.len());
    for (k, t0, t1, print) in jobs {
        let label = || cells[k].work.label();
        ledger.job(match print {
            None => Err(format!("{}: panicked", label())),
            Some(p) if p != prints[k] => Err(format!("{}: differs from the reference", label())),
            Some(_) => {
                out.push((t1, timeline.cpu_s(t0, t1) / WORKERS as f64 * 1e3));
                Ok(())
            }
        });
    }
    out
}

/// One `serve` call of a grid run.
struct Call {
    start: Instant,
    end: Instant,
    out: ServeOutcome,
}

/// A grid run in two phases; the first gets `Kind::serve_share` of the
/// worker time and the second the rest:
///
/// 1. `Kind::segments` calls of `serve::serve`, each serving whole
///    rounds of the grid (one job per cell per round) so its totals can
///    be checked exactly; each call is sized from the CPU cost per job
///    seen so far (at first, the cold reference pass's), serves at
///    least `Kind::min_rounds`, and gives one throughput reading and one
///    set-up reading;
/// 2. one warm-up round and then the latency loop over the same cells,
///    recycling clusters as `serve` does after its golden pass.
fn grid_run(kind: Kind, seed: u64, seconds: f64, ledger: &mut Ledger) -> Option<Measured> {
    let cfgs = cells::grid_configs(kind, seed);
    let ncells = cfgs.len() as u64;
    let cpu0 = process_cpu_s();
    let prints = match catch_unwind(|| reference(&cfgs)) {
        Ok(p) => p,
        Err(_) => {
            ledger.attempted += ncells;
            ledger.failed += ncells;
            return None;
        }
    };
    // Worker seconds per job; the cold pass overestimates it, so the
    // first call errs short.
    let mut cost = worker_s_since(cpu0) / ncells as f64;
    let serve_s = seconds * kind.serve_share();
    let calls = kind.segments();
    let (_, min_jobs) = kind.tail();
    let ((done, inputs, loop_jobs), timeline) = with_cpu_timeline(|| {
        let (mut jobs, mut used) = (0u64, 0.0);
        let mut done = Vec::new();
        for call in 0..calls {
            let per_call = (serve_s - used).max(0.0) / (calls - call) as f64;
            let rounds = ((per_call / cost / ncells as f64).round() as u64).max(kind.min_rounds());
            let cfg = ServeConfig {
                workers: WORKERS,
                stop: Stop::Jobs((rounds * ncells) as usize),
                thread_budget: THREAD_BUDGET,
                check_allocs: false,
                trace: None,
            };
            ledger.attempted += rounds * ncells;
            let (start, c0) = (Instant::now(), process_cpu_s());
            let served = catch_unwind(AssertUnwindSafe(|| serve(&cfgs, &cfg)));
            let end = Instant::now();
            match served {
                Ok(out) => {
                    ledger.expect_eq("serve jobs done", out.jobs_done, rounds * ncells);
                    ledger.serve_totals(&out, rounds, &prints);
                    jobs += out.jobs_done;
                    used += worker_s_since(c0);
                    cost = used / jobs as f64;
                    done.push(Call { start, end, out });
                }
                // A panicking serve call fails every job it was given.
                Err(_) => ledger.failed += rounds * ncells,
            }
        }
        let inputs = Inputs::build(kind, seed);
        inputs.set_reuse(true);
        let cells = inputs.cells();
        let (_, warm) = latency_loop(&cells, 0.0, ncells);
        let timed = latency_loop(&cells, seconds - serve_s, min_jobs);
        (done, inputs, (warm, timed))
    });
    let cells = inputs.cells();
    let (warm, (_, timed)) = loop_jobs;
    judge(warm, &cells, &prints, &timeline, ledger);
    let latency_ms = judge(timed, &cells, &prints, &timeline, ledger)
        .into_iter()
        .map(|(_, ms)| ms)
        .collect();
    if done.is_empty() {
        return None;
    }
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    for c in &done {
        // `serve` sets up, then serves for `out.wall` and returns.
        let serving = c.end - c.out.wall;
        setups.push(timeline.cpu_s(c.start, serving));
        rates.push(c.out.jobs_done as f64 * WORKERS as f64 / timeline.cpu_s(serving, c.end));
    }
    Some(Measured {
        rates,
        latency_ms,
        setups,
        prints,
        timeline,
    })
}

/// Build the apps' inputs and run the cold golden pass once per
/// segment, then run the latency loop for `seconds` of worker time; its
/// jobs, cut into `Kind::segments` equal stretches of wall time by
/// completion, give one throughput reading per stretch.
fn apps_run(seed: u64, seconds: f64, ledger: &mut Ledger) -> Option<Measured> {
    let nseg = Kind::Apps.segments();
    let (_, min_jobs) = Kind::Apps.tail();
    let (measured, timeline) = with_cpu_timeline(|| {
        let mut setups = Vec::new();
        let mut built: Option<(Inputs, Vec<Print>)> = None;
        for _ in 0..nseg {
            let t0 = Instant::now();
            let golden = catch_unwind(|| {
                let inputs = Inputs::build(Kind::Apps, seed);
                let prints: Vec<Print> = inputs
                    .cells()
                    .iter()
                    .map(|c| print_of(&run_matrix(c.work)))
                    .collect();
                (inputs, prints)
            });
            setups.push((t0, Instant::now()));
            ledger.attempted += 3;
            match (golden, &built) {
                (Err(_), _) => ledger.failed += 3,
                (Ok(g), Some((_, prints))) => {
                    ledger.expect_eq("apps golden pass repeats", &g.1, prints)
                }
                (Ok(g), None) => built = Some(g),
            }
        }
        let (inputs, prints) = built?;
        let (start, jobs) = latency_loop(&inputs.cells(), seconds, min_jobs);
        Some((inputs, prints, setups, start, jobs))
    });
    let (inputs, prints, setups, start, jobs) = measured?;
    let setups = setups
        .into_iter()
        .map(|(t0, t1)| timeline.cpu_s(t0, t1))
        .collect();
    let timed = judge(jobs, &inputs.cells(), &prints, &timeline, ledger);
    let end = timed.iter().map(|&(t1, _)| t1).max()?;
    let seg_len = (end - start) / nseg as u32;
    let rates = (0..nseg)
        .map(|i| {
            let from = start + seg_len * i as u32;
            let to = if i + 1 == nseg { end } else { from + seg_len };
            let n = timed
                .iter()
                .filter(|&&(t1, _)| from < t1 && t1 <= to)
                .count();
            n as f64 * WORKERS as f64 / timeline.cpu_s(from, to)
        })
        .collect();
    Some(Measured {
        rates,
        latency_ms: timed.into_iter().map(|(_, ms)| ms).collect(),
        setups,
        prints,
        timeline,
    })
}
