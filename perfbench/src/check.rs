//! Output checks: per-cell simulation fingerprints, the run's failure
//! and problem ledger, and the result line.

use apps::workload::{Variant, WorkloadMatrix};
use serve::ServeOutcome;
use simnet::{NetReport, StallCat};

use crate::cells::Totals;

/// Everything simulated about one parallel variant of one cell. It is
/// a pure function of the cell's inputs, so it must repeat bit for bit
/// across repetitions, worker counts, recycled clusters and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub speedup_bits: u64,
    pub time_ns: u64,
    pub messages: u64,
    pub bytes: u64,
    /// Simulated ns per [`StallCat`], summed over processors.
    pub stalls: [u64; StallCat::COUNT],
}

/// A cell's rows in [`Variant::PARALLEL`] order.
pub type Print = [Row; 5];

/// Stall buckets of a report, summed over processors.
pub fn stall_sums(net: Option<&NetReport>) -> [u64; StallCat::COUNT] {
    let mut out = [0; StallCat::COUNT];
    for row in net.map_or(&[][..], |n| &n.stalls) {
        for (o, c) in out.iter_mut().zip(row.cats) {
            *o += c;
        }
    }
    out
}

pub fn print_of(m: &WorkloadMatrix) -> Print {
    Variant::PARALLEL.map(|v| {
        let r = &m.get(v).report;
        Row {
            speedup_bits: r.speedup().to_bits(),
            time_ns: r.time.0,
            messages: r.messages,
            bytes: r.bytes,
            stalls: stall_sums(r.net.as_ref()),
        }
    })
}

/// A digest of every cell's print. The untraced and the traced run of
/// one workload and seed both log it, so the two can be compared.
pub fn digest(prints: &[Print]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    for p in prints {
        for r in p {
            (r.speedup_bits, r.time_ns, r.messages, r.bytes, r.stalls).hash(&mut h);
        }
    }
    h.finish()
}

/// Per-variant message totals of one job per cell.
pub fn message_totals(prints: &[Print]) -> Totals {
    std::array::from_fn(|i| prints.iter().map(|p| p[i].messages).sum())
}

/// The run's verdict so far: jobs attempted and failed, plus any check
/// beyond a single job's output that did not hold.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Record one attempted job; `Err` means it panicked or its output
    /// was wrong. The first few failures are printed.
    pub fn job(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: JOB FAILED: {e}");
            }
        }
    }

    /// Record `what` as a problem unless `got == want`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.problem(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Check the anchor totals at the default seed.
    pub fn anchor(&mut self, prints: &[Print], want: Totals) {
        self.expect_eq(
            "anchor: per-variant message totals of one job per cell vs BENCH_10.json",
            message_totals(prints),
            want,
        );
    }

    /// Check a serve run's merged per-variant totals against `rounds`
    /// jobs of every cell, each equal to the reference prints.
    pub fn serve_totals(&mut self, out: &ServeOutcome, rounds: u64, prints: &[Print]) {
        for (i, v) in Variant::PARALLEL.into_iter().enumerate() {
            let t = out.totals(v);
            let want_msgs: u64 = rounds * prints.iter().map(|p| p[i].messages).sum::<u64>();
            let want_bytes: u64 = rounds * prints.iter().map(|p| p[i].bytes).sum::<u64>();
            let want_stalls: [u64; StallCat::COUNT] = std::array::from_fn(|k| {
                rounds * prints.iter().map(|p| p[i].stalls[k]).sum::<u64>()
            });
            let what = format!("serve {v:?} totals vs {rounds} × reference");
            self.expect_eq(&what, (t.messages, t.bytes), (want_msgs, want_bytes));
            self.expect_eq(&what, stall_sums(t.net.as_ref()), want_stalls);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Whether the run is correct: no job failed, every check held, and
/// every metric was measured (is finite).
pub fn correct(ledger: &Ledger, metrics: &[Metric]) -> bool {
    ledger.failed == 0 && ledger.problems.is_empty() && metrics.iter().all(|m| m.value.is_finite())
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. A metric that could not be measured reads 0
/// (and makes the run incorrect).
pub fn result_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(ledger, metrics),
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    )
}
