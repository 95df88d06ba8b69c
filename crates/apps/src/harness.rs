//! Shared run-report capture: the bookkeeping every parallel runner
//! (Tmk and CHAOS alike) used to copy-paste — the rank-0 timed-region
//! snapshot, the per-processor second counters, and the final
//! [`RunReport`] assembly. Pure bookkeeping: nothing here touches the
//! protocol, so extracting it cannot change a message count.
//!
//! The per-processor second buffers are pooled per thread: a serving
//! workload builds one `Capture` per job, and in steady state the
//! buffers cycle through the pool instead of the allocator (part of the
//! reusable-scratch path the `serve` crate's allocation tests pin).

use std::cell::RefCell;

use parking_lot::Mutex;
use simnet::{NetReport, PolicyReport, SimTime};

use crate::report::RunReport;
use crate::workload::Variant;

thread_local! {
    /// Retired per-proc second buffers, reused by the next
    /// [`Capture::new`] on this thread.
    static BUF_POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Retained buffers per thread: each capture holds three, and a worker
/// builds captures one at a time, so a handful covers steady state.
const MAX_POOLED_BUFS: usize = 12;

fn take_buf(nprocs: usize) -> Vec<f64> {
    let mut v = BUF_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    v.clear();
    v.resize(nprocs, 0.0);
    v
}

fn give_buf(v: Vec<f64>) {
    BUF_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED_BUFS {
            pool.push(v);
        }
    });
}

/// Capture state for one parallel run. Create it before `cl.run` /
/// `w.run`, have rank 0 call a `freeze_*` method at the end of the timed
/// region (before any untimed result extraction), and turn it into the
/// table row with [`Capture::report`].
pub struct Capture {
    timed: Mutex<Option<(SimTime, u64, u64)>>,
    net: Mutex<Option<NetReport>>,
    scan: Mutex<Vec<f64>>,
    insp_timed: Mutex<Vec<f64>>,
    insp_untimed: Mutex<Vec<f64>>,
    nprocs: usize,
}

impl Capture {
    pub fn new(nprocs: usize) -> Self {
        Capture {
            timed: Mutex::new(None),
            net: Mutex::new(None),
            scan: Mutex::new(take_buf(nprocs)),
            insp_timed: Mutex::new(take_buf(nprocs)),
            insp_untimed: Mutex::new(take_buf(nprocs)),
            nprocs,
        }
    }

    /// Rank 0 snapshots the DSM cluster's timed region (elapsed simulated
    /// time, messages, bytes). Call from inside the SPMD body, after the
    /// final barrier of the timed region.
    pub fn freeze_tmk(&self, me: usize, cl: &sdsm_core::Cluster) {
        if me == 0 {
            let rep = cl.report();
            *self.timed.lock() = Some((cl.elapsed(), rep.messages, rep.bytes));
            *self.net.lock() = Some(rep);
        }
    }

    /// Rank 0 snapshots a CHAOS world's timed region.
    pub fn freeze_chaos(&self, cp: &chaos::ChaosProc) {
        if cp.rank() == 0 {
            let rep = cp.net().report();
            *self.timed.lock() = Some((cp.net().clock_max(), rep.messages, rep.bytes));
            *self.net.lock() = Some(rep);
        }
    }

    /// Record processor `me`'s Validate indirection-scan seconds.
    pub fn set_scan(&self, me: usize, secs: f64) {
        self.scan.lock()[me] = secs;
    }

    /// Record processor `me`'s in-timed-region inspector seconds.
    pub fn set_inspector(&self, me: usize, secs: f64) {
        self.insp_timed.lock()[me] = secs;
    }

    /// Record processor `me`'s untimed (setup) inspector seconds.
    pub fn set_untimed_inspector(&self, me: usize, secs: f64) {
        self.insp_untimed.lock()[me] = secs;
    }

    /// Assemble the table row. Panics if no `freeze_*` call happened.
    pub fn report(
        self,
        system: Variant,
        seq_time: SimTime,
        checksum: f64,
        policy: Option<PolicyReport>,
    ) -> RunReport {
        let (time, messages, bytes) = self.timed.into_inner().expect("timed region captured");
        let avg = |v: Vec<f64>| {
            let a = v.iter().sum::<f64>() / self.nprocs as f64;
            give_buf(v);
            a
        };
        RunReport {
            system,
            time,
            seq_time,
            messages,
            bytes,
            inspector_s: avg(self.insp_timed.into_inner()),
            untimed_inspector_s: avg(self.insp_untimed.into_inner()),
            validate_scan_s: avg(self.scan.into_inner()),
            checksum,
            policy,
            net: self.net.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_averages_per_proc_seconds() {
        let c = Capture::new(4);
        *c.timed.lock() = Some((SimTime::from_us(5e6), 100, 2000));
        c.set_scan(0, 2.0);
        c.set_scan(1, 2.0);
        c.set_inspector(2, 4.0);
        c.set_untimed_inspector(3, 8.0);
        let r = c.report(Variant::TmkOpt, SimTime::from_us(10e6), 1.0, None);
        assert_eq!(r.messages, 100);
        assert_eq!(r.bytes, 2000);
        assert!((r.validate_scan_s - 1.0).abs() < 1e-12);
        assert!((r.inspector_s - 1.0).abs() < 1e-12);
        assert!((r.untimed_inspector_s - 2.0).abs() < 1e-12);
        assert!((r.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "timed region captured")]
    fn report_without_freeze_panics() {
        let c = Capture::new(1);
        let _ = c.report(Variant::TmkBase, SimTime::ZERO, 0.0, None);
    }

    #[test]
    fn buffers_cycle_through_the_thread_pool() {
        // Drain whatever earlier tests on this thread pooled.
        while BUF_POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        let c = Capture::new(8);
        *c.timed.lock() = Some((SimTime::ZERO, 0, 0));
        let _ = c.report(Variant::TmkBase, SimTime::ZERO, 0.0, None);
        assert_eq!(BUF_POOL.with(|p| p.borrow().len()), 3);
        // The next capture reuses them (pool drains), even at another
        // cluster size — buffers are resized, not reallocated.
        let c = Capture::new(4);
        assert_eq!(BUF_POOL.with(|p| p.borrow().len()), 0);
        assert_eq!(c.scan.lock().len(), 4);
    }
}
