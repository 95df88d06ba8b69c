//! The traced run: per-layer metrics of one workload.
//!
//! Spans are recorded here, around the calls the benchmark makes into
//! each layer, never inside the program: a job span around
//! `run_matrix`, one child span per variant around `Workload::run`
//! (each variant exercises one protocol layer), and probe spans around
//! set-up, the golden pass, `serve`, bare `dsm` rendezvous and
//! `fcc::compile`. Simulated work counts come from the reports the
//! program already returns. The run also re-checks determinism: every
//! traced and untraced job must reproduce the cold golden pass bit for
//! bit, and every parallel variant's stall ledger must conserve time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::report::RunReport;
use apps::workload::{run_matrix, CheckMode, Variant, Workload, WorkloadMatrix};
use dsm::{Cluster, DsmConfig};
use serve::{serve, ServeConfig, Stop};
use simnet::{MsgKind, SimTime, StallCat};
use trace::{json_well_formed, ServeTrace};

use crate::cells::{self, Cell, Inputs, Kind, THREAD_BUDGET, WORKERS};
use crate::check::{digest, print_of, stall_sums, Ledger, Metric, Print};
use crate::endtoend::{metric, TAGS};
use crate::stats::{closed_loop, hist_bucket_of, median};

/// Where the traced run writes its layer table and spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Pairs of plain and spanned timed loops per traced run (grid workloads
/// add one traced `serve` call).
const LOOPS: usize = 2;

/// Which layer each variant's host time is billed to.
fn layer_of(v: Variant) -> &'static str {
    match v {
        Variant::Seq => "kernel",
        Variant::TmkBase => "dsm",
        Variant::TmkOpt => "sdsm-core",
        Variant::TmkAdaptive | Variant::TmkPush => "adapt",
        Variant::Chaos => "chaos",
    }
}

fn variant_index(v: Variant) -> usize {
    Variant::ALL
        .iter()
        .position(|&x| x == v)
        .expect("known variant")
}

/// A finished span: `[start, end)` in ns since the run's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    lane: usize,
    start: u64,
    end: u64,
    /// `"key": value` pairs for the trace viewer.
    args: String,
}

/// A cell wrapped so that each `Workload::run` call — one variant —
/// records a span. Lives on one worker for one job.
struct Spanned<'a> {
    inner: &'a (dyn Workload + Sync),
    epoch: Instant,
    spans: RefCell<Vec<(Variant, u64, u64)>>,
}

impl Workload for Spanned<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn check_mode(&self) -> CheckMode {
        self.inner.check_mode()
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = self.inner.run(v, seq_time);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().push((v, start, end));
        out
    }
}

/// One job of a timed loop.
struct Job {
    seq: u64,
    cell: usize,
    worker: usize,
    start: u64,
    end: u64,
    variants: Vec<(Variant, u64, u64)>,
    /// `Err` when the job panicked or its output was wrong.
    outcome: Result<(), String>,
}

/// Check a job's matrix against its golden print and every parallel
/// variant's stall ledger for conservation.
fn verify(m: &WorkloadMatrix, golden: &Print) -> Result<(), String> {
    if print_of(m) != *golden {
        return Err(format!("{}: differs from the cold golden pass", m.label));
    }
    for v in Variant::PARALLEL {
        let net = m.get(v).report.net.as_ref();
        net.map_or(Err("no net report".to_string()), trace::check_conservation)
            .map_err(|e| format!("{}/{v:?}: stall conservation: {e}", m.label))?;
    }
    Ok(())
}

/// `rounds` jobs per cell from a closed loop of `WORKERS` threads, with
/// or without variant spans.
fn job_loop(
    cells: &[Cell],
    golden: &[Print],
    rounds: u64,
    spans: bool,
    epoch: Instant,
) -> (Vec<Job>, Duration) {
    let n = rounds * cells.len() as u64;
    closed_loop(
        WORKERS,
        |seq, _| seq < n,
        |worker, seq| {
            let cell = (seq % cells.len() as u64) as usize;
            let work = cells[cell].work;
            let start = epoch.elapsed().as_nanos() as u64;
            let res = catch_unwind(AssertUnwindSafe(|| {
                if spans {
                    let w = Spanned {
                        inner: work,
                        epoch,
                        spans: RefCell::new(Vec::with_capacity(6)),
                    };
                    let m = run_matrix(&w);
                    (m, w.spans.into_inner())
                } else {
                    (run_matrix(work), Vec::new())
                }
            }));
            let end = epoch.elapsed().as_nanos() as u64;
            let (outcome, variants) = match res {
                Ok((m, variants)) => (verify(&m, &golden[cell]), variants),
                Err(_) => (Err(format!("{}: panicked", work.label())), Vec::new()),
            };
            Job {
                seq,
                cell,
                worker,
                start,
                end,
                variants,
                outcome,
            }
        },
    )
}

/// Median µs of an empty `Cluster::run` and of one bare barrier, at
/// `nprocs` processors.
fn dsm_probe(nprocs: usize) -> (f64, f64) {
    let (reps, barriers) = if nprocs > 8 { (7, 20) } else { (15, 50) };
    let cl = Cluster::new(DsmConfig::with_nprocs(nprocs));
    cl.run(|_| {});
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e6
    };
    let runs: Vec<f64> = (0..reps).map(|_| time(&|| cl.run(|_| {}))).collect();
    let bars: Vec<f64> = (0..reps)
        .map(|_| {
            time(&|| {
                cl.run(|p| {
                    for _ in 0..barriers {
                        p.barrier();
                    }
                })
            })
        })
        .collect();
    let run_us = median(&runs);
    (run_us, (median(&bars) - run_us) / barriers as f64)
}

/// Median µs to compile both fixture programs.
fn fcc_probe() -> f64 {
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            for src in [fcc::fixtures::MOLDYN_SOURCE, fcc::fixtures::NBF_SOURCE] {
                std::hint::black_box(
                    fcc::compile(std::hint::black_box(src)).expect("fixture compiles"),
                );
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// What the traced `serve` call of a grid workload measured.
struct ServePhase {
    busy_share: f64,
    steals: u64,
    recycles: u64,
    /// Tail percentile statement for the table.
    tail_note: String,
}

fn serve_phase(
    kind: Kind,
    seed: u64,
    rounds: u64,
    golden: &[Print],
    ledger: &mut Ledger,
) -> Option<ServePhase> {
    let cfgs = cells::grid_configs(kind, seed);
    let jobs = rounds * cfgs.len() as u64;
    let tr = Arc::new(ServeTrace::new(WORKERS, 8 * jobs as usize + 64));
    let cfg = ServeConfig {
        workers: WORKERS,
        stop: Stop::Jobs(jobs as usize),
        thread_budget: THREAD_BUDGET,
        check_allocs: false,
        trace: Some(tr.clone()),
    };
    ledger.attempted += jobs;
    let Ok(out) = catch_unwind(AssertUnwindSafe(|| serve(&cfgs, &cfg))) else {
        ledger.failed += jobs;
        return None;
    };
    ledger.serve_totals(&out, rounds, golden);
    let (done, steals, recycles) = tr.totals();
    ledger.expect_eq("serve trace jobs", done, out.jobs_done);
    let busy_ns = out.hist.mean() * out.hist.count() as f64;
    let (q, _) = kind.tail();
    let (lo, hi) = hist_bucket_of(&out.hist, q);
    Some(ServePhase {
        busy_share: busy_ns / (WORKERS as f64 * out.wall.as_nanos() as f64),
        steals,
        recycles,
        tail_note: format!(
            "traced serve call: {} jobs; its p{} lies in the serve::Histogram bucket [{:.1}, {:.1}) ms \
             (16 buckets per octave, each at most 6.25% wide)",
            out.jobs_done,
            q * 100.0,
            lo as f64 / 1e6,
            hi as f64 / 1e6
        ),
    })
}

/// Sum `f` over the golden reports of variant `v`.
fn sum_of(golden: &[WorkloadMatrix], v: Variant, f: impl Fn(&RunReport) -> f64) -> f64 {
    golden.iter().map(|m| f(&m.get(v).report)).sum()
}

fn stall_ms(r: &RunReport, cat: StallCat) -> f64 {
    stall_sums(r.net.as_ref())[cat as usize] as f64 / 1e6
}

fn msgs_of(r: &RunReport, kind: MsgKind) -> f64 {
    r.net.as_ref().map_or(0, |n| n.messages_per_kind(kind)) as f64
}

fn policy_of(r: &RunReport, f: impl Fn(&simnet::PolicyReport) -> u64) -> f64 {
    r.policy.as_ref().map_or(0, f) as f64
}

pub fn run(kind: Kind, seed: u64, seconds: f64) -> (Ledger, Vec<Metric>) {
    let mut ledger = Ledger::default();
    let epoch = Instant::now();
    let mut probes: Vec<Span> = Vec::new();
    let mut probe = |name: &str, t0: Duration| {
        probes.push(Span {
            name: name.to_string(),
            lane: WORKERS,
            start: t0.as_nanos() as u64,
            end: epoch.elapsed().as_nanos() as u64,
            args: String::new(),
        });
    };

    // Set-up: inputs, then the cold golden pass.
    let t0 = epoch.elapsed();
    let inputs = Inputs::build(kind, seed);
    let prepare_ms = (epoch.elapsed() - t0).as_secs_f64() * 1e3;
    probe("synth.prepare", t0);
    let cells = inputs.cells();
    let ncells = cells.len() as u64;
    let t0 = epoch.elapsed();
    let golden: Vec<WorkloadMatrix> = match catch_unwind(AssertUnwindSafe(|| {
        cells.iter().map(|c| run_matrix(c.work)).collect()
    })) {
        Ok(g) => g,
        Err(_) => {
            ledger.attempted += ncells;
            ledger.failed += ncells;
            return (ledger, Vec::new());
        }
    };
    let golden_s = (epoch.elapsed() - t0).as_secs_f64();
    probe("apps.golden", t0);
    let prints: Vec<Print> = golden.iter().map(print_of).collect();
    eprintln!("perfbench: simulation digest {:016x}", digest(&prints));
    for (m, p) in golden.iter().zip(&prints) {
        ledger.job(verify(m, p));
    }
    inputs.set_reuse(true);

    // Size the timed loops from one untimed round on WORKERS threads.
    let mut tally = |jobs: &[Job]| {
        for j in jobs {
            ledger.job(j.outcome.clone());
        }
    };
    let (warm, round) = job_loop(&cells, &prints, 1, false, epoch);
    tally(&warm);
    let phases = 2 * LOOPS + usize::from(kind != Kind::Apps);
    let per_phase = (seconds - round.as_secs_f64()).max(0.0) / phases as f64;
    let rounds = ((per_phase / round.as_secs_f64()).round() as u64).clamp(2, 10_000);

    let (mut plain_wall, mut span_wall) = (Duration::ZERO, Duration::ZERO);
    let mut jobs: Vec<Job> = Vec::new();
    for _ in 0..LOOPS {
        let (plain, wall) = job_loop(&cells, &prints, rounds, false, epoch);
        plain_wall += wall;
        tally(&plain);
        let (traced, wall) = job_loop(&cells, &prints, rounds, true, epoch);
        span_wall += wall;
        tally(&traced);
        jobs.extend(traced);
    }
    let span_rounds = (LOOPS as u64 * rounds) as f64;

    let t0 = epoch.elapsed();
    let served = match kind {
        Kind::Apps => None,
        _ => serve_phase(kind, seed, rounds, &prints, &mut ledger),
    };
    if kind != Kind::Apps {
        probe("serve", t0);
    }
    let t0 = epoch.elapsed();
    let (run_us, barrier_us) = dsm_probe(kind.probe_nprocs());
    probe("dsm.rendezvous", t0);
    let t0 = epoch.elapsed();
    let compile_us = fcc_probe();
    probe("fcc.compile", t0);

    // Host time per class × variant, ms per round.
    let mut host: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    let (mut job_ns, mut child_ns) = (0u64, 0u64);
    for j in &jobs {
        job_ns += j.end - j.start;
        for &(v, s, e) in &j.variants {
            child_ns += e - s;
            *host
                .entry((cells[j.cell].class, variant_index(v)))
                .or_default() += (e - s) as f64 / 1e6 / span_rounds;
        }
    }
    let host_of = |v: Variant| -> f64 {
        host.iter()
            .filter(|((_, i), _)| *i == variant_index(v))
            .map(|(_, ms)| ms)
            .sum()
    };

    let base = Variant::TmkBase;
    let diff_req = |v| sum_of(&golden, v, |r| msgs_of(r, MsgKind::DiffRequest));
    let prefetch_pages = sum_of(&golden, Variant::TmkAdaptive, |r| {
        policy_of(r, |p| p.prefetch_pages)
    });
    let adaptive_both = |f: fn(&simnet::PolicyReport) -> u64| {
        sum_of(&golden, Variant::TmkAdaptive, |r| policy_of(r, f))
            + sum_of(&golden, Variant::TmkPush, |r| policy_of(r, f))
    };
    let (busy_share, steals, recycles, tail_note) = match &served {
        Some(s) => (
            s.busy_share,
            s.steals as f64,
            s.recycles as f64,
            s.tail_note.clone(),
        ),
        None => (
            job_ns as f64 / (WORKERS as f64 * span_wall.as_nanos() as f64),
            0.0,
            0.0,
            format!("closed loop: {} spanned jobs timed exactly", jobs.len()),
        ),
    };
    let mut metrics = vec![
        metric("serve.busy_share", busy_share, "share"),
        metric("serve.steals", steals, "count"),
        metric("serve.recycles", recycles, "count"),
        metric("synth.prepare_ms", prepare_ms, "ms"),
        metric("synth.seq_ms", host_of(Variant::Seq), "ms"),
        metric(
            "apps.check_ms",
            (job_ns - child_ns) as f64 / 1e6 / span_rounds,
            "ms",
        ),
        metric("apps.golden_ms", golden_s * 1e3, "ms"),
        metric("dsm.tmk_base_ms", host_of(base), "ms"),
        metric("dsm.run_us", run_us, "us"),
        metric("dsm.barrier_us", barrier_us, "us"),
        metric(
            "dsm.fault_stall_sim_ms",
            sum_of(&golden, base, |r| stall_ms(r, StallCat::FaultStall)),
            "ms",
        ),
        metric(
            "dsm.barrier_wait_sim_ms",
            sum_of(&golden, base, |r| stall_ms(r, StallCat::BarrierWait)),
            "ms",
        ),
        metric("dsm.diff_requests", diff_req(base), "count"),
        metric("sdsm-core.tmk_opt_ms", host_of(Variant::TmkOpt), "ms"),
        metric(
            "sdsm-core.validate_scan_sim_ms",
            sum_of(&golden, Variant::TmkOpt, |r| r.validate_scan_s * 1e3),
            "ms",
        ),
        metric(
            "sdsm-core.agg_requests",
            sum_of(&golden, Variant::TmkOpt, |r| {
                msgs_of(r, MsgKind::AggRequest)
            }),
            "count",
        ),
        metric("adapt.tmk_adaptive_ms", host_of(Variant::TmkAdaptive), "ms"),
        metric("adapt.tmk_push_ms", host_of(Variant::TmkPush), "ms"),
        metric("adapt.prefetch_pages", prefetch_pages, "count"),
        metric(
            "adapt.push_pages",
            sum_of(&golden, Variant::TmkPush, |r| {
                policy_of(r, |p| p.push_pages)
            }),
            "count",
        ),
        metric(
            "adapt.quiesced_pages",
            adaptive_both(|p| p.quiesced_pages),
            "count",
        ),
        metric("adapt.probes", adaptive_both(|p| p.probes), "count"),
        metric(
            "adapt.useful_ratio",
            if prefetch_pages > 0.0 {
                (diff_req(base) - diff_req(Variant::TmkAdaptive)) / prefetch_pages
            } else {
                0.0
            },
            "ratio",
        ),
        metric("chaos.variant_ms", host_of(Variant::Chaos), "ms"),
        metric(
            "chaos.inspector_sim_ms",
            sum_of(&golden, Variant::Chaos, |r| {
                (r.inspector_s + r.untimed_inspector_s) * 1e3
            }),
            "ms",
        ),
        metric(
            "chaos.gather_msgs",
            sum_of(&golden, Variant::Chaos, |r| msgs_of(r, MsgKind::Gather)),
            "count",
        ),
        metric("fcc.compile_us", compile_us, "us"),
    ];
    for (v, tag) in Variant::PARALLEL.into_iter().zip(TAGS) {
        metrics.push(metric(
            &format!("simnet.msgs.{tag}"),
            sum_of(&golden, v, |r| r.messages as f64),
            "count",
        ));
    }
    for (v, tag) in Variant::PARALLEL.into_iter().zip(TAGS) {
        metrics.push(metric(
            &format!("simnet.mb.{tag}"),
            sum_of(&golden, v, |r| r.bytes as f64 / 1e6),
            "MB",
        ));
    }
    let handler: f64 = Variant::PARALLEL
        .into_iter()
        .map(|v| sum_of(&golden, v, |r| stall_ms(r, StallCat::Handler)))
        .sum();
    metrics.push(metric("simnet.handler_sim_ms", handler, "ms"));
    metrics.push(metric(
        "trace.overhead_share",
        (span_wall.as_secs_f64() - plain_wall.as_secs_f64()) / plain_wall.as_secs_f64(),
        "share",
    ));
    metrics.push(metric(
        "unattributed_share",
        (job_ns - child_ns) as f64 / job_ns.max(1) as f64,
        "share",
    ));

    let (tail_q, min_jobs) = kind.tail();
    let mut table = format!(
        "perfbench layer table: workload {} seed {seed}; {rounds} rounds × {ncells} cells per loop, \
         {WORKERS} workers, {LOOPS} spanned + {LOOPS} plain loops\n\
         job_tail_ms (untraced run) is p{} over at least {min_jobs} jobs; {tail_note}\n",
        kind.name(),
        tail_q * 100.0,
    );
    table.push_str(&layer_table(&cells, &golden, &host));
    println!("{table}");
    if let Err(e) = write_outputs(kind, &table, &jobs, &cells, &probes) {
        ledger.problem(format!("writing {OUT_DIR}: {e}"));
    }
    (ledger, metrics)
}

/// Cell class × variant × layer: host ms per round, simulated ms,
/// messages, MB and the simulated stall ledger (ms), one job per cell;
/// then the TmkOpt-over-TmkBase host-time gap per class.
fn layer_table(
    cells: &[Cell],
    golden: &[WorkloadMatrix],
    host: &BTreeMap<(&str, usize), f64>,
) -> String {
    let mut classes: Vec<&str> = Vec::new();
    for c in cells {
        if !classes.contains(&c.class) {
            classes.push(c.class);
        }
    }
    let cats = [
        StallCat::Compute,
        StallCat::FaultStall,
        StallCat::BarrierWait,
        StallCat::PrefetchPush,
        StallCat::Inspector,
        StallCat::Exchange,
        StallCat::Handler,
    ];
    let mut out = format!(
        "{:<7} {:<13} {:<9} {:>9} {:>10} {:>8} {:>8}",
        "class", "variant", "layer", "host_ms", "sim_ms", "msgs", "MB"
    );
    for c in cats {
        let _ = write!(out, " {:>13}", c.name());
    }
    out.push('\n');
    let mut gaps =
        String::from("TmkOpt − TmkBase host time per round (ROADMAP direction 1 baseline):\n");
    for class in &classes {
        let in_class: Vec<&WorkloadMatrix> = golden
            .iter()
            .zip(cells)
            .filter(|(_, c)| c.class == *class)
            .map(|(m, _)| m)
            .collect();
        for v in Variant::ALL {
            let host_ms = host
                .get(&(*class, variant_index(v)))
                .copied()
                .unwrap_or(0.0);
            let reps = in_class.iter().map(|m| &m.get(v).report);
            let sim_ms: f64 = reps.clone().map(|r| r.time.as_secs_f64() * 1e3).sum();
            let msgs: u64 = reps.clone().map(|r| r.messages).sum();
            let mb: f64 = reps.clone().map(|r| r.bytes as f64 / 1e6).sum();
            let _ = write!(
                out,
                "{:<7} {:<13} {:<9} {:>9.3} {:>10.3} {:>8} {:>8.3}",
                class,
                v.label(),
                layer_of(v),
                host_ms,
                sim_ms,
                msgs,
                mb
            );
            for c in cats {
                let s: f64 = reps.clone().map(|r| stall_ms(r, c)).sum();
                let _ = write!(out, " {s:>13.3}");
            }
            out.push('\n');
        }
        let h = |v: Variant| {
            host.get(&(*class, variant_index(v)))
                .copied()
                .unwrap_or(0.0)
        };
        let (opt, base) = (h(Variant::TmkOpt), h(Variant::TmkBase));
        let _ = writeln!(
            gaps,
            "  {class:<7} opt {opt:.3} ms − base {base:.3} ms = {:+.3} ms (opt/base {:.3})",
            opt - base,
            opt / base
        );
    }
    out.push_str(&gaps);
    out
}

/// Write the layer table and the spans (Chrome trace-event JSON) under
/// [`OUT_DIR`].
fn write_outputs(
    kind: Kind,
    table: &str,
    jobs: &[Job],
    cells: &[Cell],
    probes: &[Span],
) -> std::io::Result<()> {
    let mut spans: Vec<Span> = probes.to_vec();
    for j in jobs {
        let label = cells[j.cell].work.label();
        spans.push(Span {
            name: "job".to_string(),
            lane: j.worker,
            start: j.start,
            end: j.end,
            args: format!(
                "\"job\": {}, \"cell\": \"{label}\", \"class\": \"{}\"",
                j.seq, cells[j.cell].class
            ),
        });
        for &(v, start, end) in &j.variants {
            spans.push(Span {
                name: format!("{} ({})", v.label(), layer_of(v)),
                lane: j.worker,
                start,
                end,
                args: format!("\"job\": {}, \"parent\": \"job\"", j.seq),
            });
        }
    }
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}",
                s.name,
                s.lane,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.args
            )
        })
        .collect();
    let json = format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"));
    if !json_well_formed(&json) {
        return Err(std::io::Error::other("span JSON is malformed"));
    }
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(format!("{OUT_DIR}/{}-layers.txt", kind.name()), table)?;
    std::fs::write(format!("{OUT_DIR}/{}-spans.json", kind.name()), json)
}
