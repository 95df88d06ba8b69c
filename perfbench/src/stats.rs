//! Small statistics helpers: quantiles, the closed-loop driver, the
//! process's CPU clock and its peak resident set.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serve::Histogram;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, linearly interpolated between order
/// statistics. NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `[lo, hi)` edges of the histogram bucket holding the
/// `q`-quantile.
pub fn hist_bucket_of(h: &Histogram, q: f64) -> (u64, u64) {
    let rank = ((q * h.count() as f64).ceil() as u64).clamp(1, h.count().max(1));
    let mut seen = 0;
    for (lo, hi, n) in h.nonzero_buckets() {
        seen += n;
        if seen >= rank {
            return (lo, hi);
        }
    }
    (h.max(), h.max())
}

/// Geometric mean of positive values.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, summed over all its
/// threads, ended ones included. Time a thread spends waiting for a core
/// that another process holds does not count, so on a shared host this
/// clock measures the program's own work.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// How often [`with_cpu_timeline`] samples the CPU clock.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// The host-speed probe runs once every this many samples (100 ms).
const PROBE_EVERY: u32 = 20;

/// Dependent multiply-adds per probe run.
const PROBE_MULS: u64 = 400_000;

/// The probe's median CPU time on a quiet benchmark host (a 2-core share
/// of an Intel Xeon). A run divides its timings by its own probe median
/// over this, so they read as on that host running at that speed.
pub const PROBE_REF_S: f64 = 0.68e-3;

/// Run the host-speed probe once: a fixed chain of dependent
/// multiply-adds in registers. Return its CPU seconds on this thread.
/// A shared machine runs a process slower at times even while the
/// process holds its cores (sibling hyperthreads, caches and memory are
/// shared), and the CPU clock counts that as work. The probe sees the
/// part of that slowdown that reaches a core's arithmetic; it touches no
/// memory, so the program's own cache use cannot move it.
fn probe() -> f64 {
    let t0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    let mut acc = 0u64;
    for k in 0..PROBE_MULS {
        acc = std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k));
    }
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - t0
}

/// The process's CPU clock sampled against the wall clock, so the CPU
/// time the process got in any stretch of wall time can be read back,
/// and the host-speed probe's readings over the same time.
pub struct CpuTimeline {
    /// `(wall instant, process CPU seconds)`, in time order; the sampling
    /// thread's own CPU time (probes included) is left out.
    samples: Vec<(Instant, f64)>,
    /// CPU seconds of every probe run.
    probes: Vec<f64>,
}

impl CpuTimeline {
    /// Process CPU seconds at `t`, interpolated between samples.
    fn cpu_at(&self, t: Instant) -> f64 {
        let i = self.samples.partition_point(|&(at, _)| at <= t);
        match (
            i.checked_sub(1).map(|j| self.samples[j]),
            self.samples.get(i),
        ) {
            (Some((a, ca)), Some(&(b, cb))) => {
                let span = (b - a).as_secs_f64();
                ca + (cb - ca) * ((t - a).as_secs_f64() / span.max(1e-12))
            }
            (Some((_, c)), None) | (None, Some(&(_, c))) => c,
            (None, None) => f64::NAN,
        }
    }

    /// Process CPU seconds used between `from` and `to`.
    pub fn cpu_s(&self, from: Instant, to: Instant) -> f64 {
        self.cpu_at(to) - self.cpu_at(from)
    }

    /// Median CPU seconds of one probe run, and the number of runs.
    pub fn probe_s(&self) -> (f64, usize) {
        (median(&self.probes), self.probes.len())
    }

    /// How much slower than the reference host this host ran during the
    /// run: the probe's median over [`PROBE_REF_S`].
    pub fn slowdown(&self) -> f64 {
        self.probe_s().0 / PROBE_REF_S
    }
}

/// Run `f` while a background thread samples the process's CPU clock
/// every [`SAMPLE_EVERY`] and runs the host-speed probe every
/// [`PROBE_EVERY`] samples (and once at the start); return `f`'s result
/// and the samples. The sampler stops and is joined before this
/// returns, also when `f` panics.
pub fn with_cpu_timeline<T>(f: impl FnOnce() -> T) -> (T, CpuTimeline) {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let stop = AtomicBool::new(false);
    let first = (Instant::now(), process_cpu_s());
    let (out, (mut samples, probes, own)) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let own = || cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
            let sample = || (Instant::now(), process_cpu_s() - own());
            let mut samples = vec![first];
            let mut probes = vec![probe()];
            for tick in 1u32.. {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(SAMPLE_EVERY);
                samples.push(sample());
                if tick % PROBE_EVERY == 0 {
                    probes.push(probe());
                }
            }
            (samples, probes, own())
        });
        let out = {
            let _stop = StopOnDrop(&stop);
            f()
        };
        (out, sampler.join().expect("the CPU sampler panicked"))
    });
    samples.push((Instant::now(), process_cpu_s() - own));
    (out, CpuTimeline { samples, probes })
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A closed loop: `workers` threads each take the next job number as
/// soon as their previous job has finished, while `more(started,
/// elapsed)` allows it. Returns every job's result (in no particular
/// order) and the loop's wall time, which ends when the last job does.
pub fn closed_loop<T: Send>(
    workers: usize,
    more: impl Fn(u64, Duration) -> bool + Sync,
    job: impl Fn(usize, u64) -> T + Sync,
) -> (Vec<T>, Duration) {
    let next = AtomicU64::new(0);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..workers {
            let (next, results, more, job) = (&next, &results, &more, &job);
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    if !more(seq, start.elapsed()) {
                        break;
                    }
                    mine.push(job(worker, seq));
                }
                results
                    .lock()
                    .expect("a closed-loop worker panicked while merging")
                    .append(&mut mine);
            });
        }
    });
    let wall = start.elapsed();
    (
        results.into_inner().expect("closed-loop results poisoned"),
        wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_timeline_sees_busy_time() {
        let (t0, (t1, timeline)) = (
            Instant::now(),
            with_cpu_timeline(|| {
                let start = Instant::now();
                let mut x = 0u64;
                while start.elapsed() < Duration::from_millis(50) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                Instant::now()
            }),
        );
        let busy = timeline.cpu_s(t0, t1);
        assert!(busy > 0.02 && busy < 1.0, "busy {busy}");
        let (probe, runs) = timeline.probe_s();
        assert!(runs >= 1 && probe > 0.0);
    }

    #[test]
    fn closed_loop_runs_the_allowed_jobs_once_each() {
        let (mut got, _) = closed_loop(2, |seq, _| seq < 10, |_, seq| seq);
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
