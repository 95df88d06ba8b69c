//! The cluster: configuration, the shared-heap allocator, and the SPMD
//! launcher.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{CostModel, Net, NetReport, SimTime};

use crate::barrier::BarrierCtl;
use crate::heap::{Pod, SharedSlice};
use crate::interval::NoticeBoard;
use crate::lock::LockMgr;
use crate::pagepool::PagePool;
use crate::proc::{ProcInner, TmkProc};
use crate::store::DiffStore;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Consistency unit. The SP2 of the paper used 4 KB pages.
    pub page_size: usize,
    /// Communication cost model for the simulated interconnect.
    pub cost: CostModel,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig {
            nprocs: 8,
            page_size: 4096,
            cost: CostModel::default(),
        }
    }
}

impl DsmConfig {
    /// The default configuration at a given cluster size.
    pub fn with_nprocs(nprocs: usize) -> Self {
        DsmConfig {
            nprocs,
            ..Default::default()
        }
    }
}

/// A simulated TreadMarks cluster.
///
/// Usage mirrors a TreadMarks program: allocate shared memory, then run
/// the SPMD body on every processor.
///
/// ```
/// use dsm::{Cluster, DsmConfig};
///
/// let cl = Cluster::new(DsmConfig::with_nprocs(4));
/// let data = cl.alloc::<f64>(1024);
/// cl.run(|p| {
///     let me = p.rank();
///     let chunk = data.len() / p.nprocs();
///     for i in me * chunk..(me + 1) * chunk {
///         p.write(&data, i, me as f64);
///     }
///     p.barrier();
///     // every processor can now read everyone's writes
///     let v = p.read(&data, (p.nprocs() - 1) * chunk);
///     assert_eq!(v, (p.nprocs() - 1) as f64);
/// });
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: DsmConfig,
    net: Net,
    board: NoticeBoard,
    store: DiffStore,
    barrier: BarrierCtl,
    locks: LockMgr,
    alloc_next: Mutex<usize>,
    slots: Vec<Mutex<Option<Box<ProcInner>>>>,
    /// Free page-sized boxes, fed by [`Cluster::recycle`] and drained by
    /// the fault paths — repeated runs on a recycled cluster stop
    /// allocating page frames and twins. Shared with the diff store, so
    /// master copies and master-fetch replies cycle through the same
    /// free-list (see [`crate::pagepool::PagePool`]).
    page_pool: Arc<PagePool>,
}

impl Cluster {
    /// Build a cluster (heap empty, all clocks zero). Panics if the
    /// page size is not a power of two of at least 64 bytes.
    pub fn new(cfg: DsmConfig) -> Self {
        assert!(cfg.page_size.is_power_of_two(), "page size: power of two");
        assert!(cfg.page_size >= 64, "page size too small");
        let nprocs = cfg.nprocs;
        let page_size = cfg.page_size;
        let page_pool = Arc::new(PagePool::new(page_size));
        Cluster {
            net: Net::new(nprocs, cfg.cost.clone()),
            board: NoticeBoard::new(nprocs),
            store: DiffStore::with_pool(nprocs, page_size, Arc::clone(&page_pool)),
            cfg,
            barrier: BarrierCtl::new(nprocs),
            locks: LockMgr::default(),
            alloc_next: Mutex::new(0),
            slots: (0..nprocs)
                .map(|_| Mutex::new(Some(Box::new(ProcInner::new(nprocs)))))
                .collect(),
            page_pool,
        }
    }

    /// Reset all protocol, heap, and accounting state so the cluster is
    /// observably indistinguishable from a fresh [`Cluster::new`] with
    /// the same configuration — but with every page frame, twin, diff
    /// store, and barrier board allocation retained for reuse. Panics if
    /// called while a [`Cluster::run`] is in flight. The scenario label
    /// survives (callers re-stamp it per run anyway).
    pub fn recycle(&self) {
        let heap_pages = self.alloc_next.lock().div_ceil(self.cfg.page_size);
        self.net.reset();
        self.board.reset();
        self.store.reset();
        self.barrier.reset();
        self.locks.reset();
        *self.alloc_next.lock() = 0;
        for slot in &self.slots {
            let mut guard = slot.lock();
            let inner = guard
                .as_mut()
                .expect("recycle() while a run() is in flight");
            inner.recycle(&mut |b| self.page_pool.give(b));
        }
        // Backstop: everything a run can hold live is bounded by frames
        // (nprocs × pages) + twins (nprocs × pages) + masters (pages);
        // trim anything beyond it so one paging-heavy job's high-water
        // mark is not pinned forever.
        let cap = heap_pages * (2 * self.cfg.nprocs + 1) + 64;
        self.page_pool.trim(cap);
    }

    /// A zeroed page-sized box, reusing a pooled frame when available.
    pub(crate) fn take_page_zeroed(&self) -> Box<[u8]> {
        self.page_pool.take_zeroed()
    }

    /// A page-sized box holding a copy of `src` (twin creation).
    pub(crate) fn take_page_copy(&self, src: &[u8]) -> Box<[u8]> {
        self.page_pool.take_copy(src)
    }

    /// Return a page-sized box to the pool (dropped if mis-sized).
    pub(crate) fn recycle_page(&self, b: Box<[u8]>) {
        self.page_pool.give(b);
    }

    /// Pooled free frames (diagnostics for reuse tests).
    pub fn pooled_pages(&self) -> usize {
        self.page_pool.len()
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// The consistency unit in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Allocate `n` elements of shared memory (the `Tmk_malloc` analogue).
    ///
    /// Regions are page-aligned, as TreadMarks programs align their large
    /// arrays; false sharing in the experiments comes from *partitions
    /// within* an array not landing on page boundaries (nbf 64×1000),
    /// not from unrelated arrays colliding.
    pub fn alloc<T: Pod>(&self, n: usize) -> SharedSlice<T> {
        let mut next = self.alloc_next.lock();
        let base = (*next).next_multiple_of(self.cfg.page_size);
        *next = base + n * T::SIZE;
        SharedSlice::new(base, n)
    }

    /// Total pages allocated so far.
    pub fn heap_pages(&self) -> usize {
        self.alloc_next.lock().div_ceil(self.cfg.page_size)
    }

    /// Run the SPMD body `f` on every simulated processor (one OS thread
    /// each). May be called repeatedly; processor protocol state persists
    /// across calls.
    ///
    /// The caller's thread allowance (see `vendor/rayon`) is divided
    /// evenly among the processor threads, mirroring
    /// `chaos::ChaosWorld::run`: intra-processor parallelism (the
    /// sharded `PageSet::finish` bitmap fill) only engages when the
    /// allowance exceeds the processor count, so a `serve` job never
    /// uses more OS threads than the tokens it holds.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&mut TmkProc) + Sync,
    {
        let npages = self.heap_pages();
        let share = rayon::ThreadPoolBuilder::new()
            .num_threads((rayon::current_num_threads() / self.cfg.nprocs).max(1))
            .build()
            .expect("shim pools cannot fail to build");
        let share = &share;
        std::thread::scope(|s| {
            for rank in 0..self.cfg.nprocs {
                let f = &f;
                s.spawn(move || {
                    let mut inner = self.slots[rank]
                        .lock()
                        .take()
                        .expect("processor state in use — nested run()?");
                    inner.ensure_frames(npages);
                    let mut p = TmkProc {
                        cl: self,
                        me: rank,
                        nprocs: self.cfg.nprocs,
                        page_size: self.cfg.page_size,
                        page_shift: self.cfg.page_size.trailing_zeros(),
                        page_mask: self.cfg.page_size - 1,
                        inner,
                    };
                    share.install(|| f(&mut p));
                    // Batched fetches deferred near the body's end that
                    // nothing triggered are the quiesce win: the
                    // exchanges the eager policy would have wasted on an
                    // iteration that never executes. Record and drop
                    // them (billed to each plan's owning phase) so the
                    // report sees them and a later run() starts clean.
                    for plan in std::mem::take(&mut p.inner.deferred) {
                        self.net
                            .policy()
                            .record_quiesced(rank, plan.phase, plan.pages.len());
                        self.net.trace(
                            rank,
                            simnet::TraceEvent::PlanQuiesce {
                                phase: plan.phase,
                                pages: plan.pages.len() as u32,
                            },
                        );
                        p.inner.policy.note_quiesced(plan.phase, &plan.pages);
                    }
                    *self.slots[rank].lock() = Some(p.inner);
                });
            }
        });
    }

    /// The simulated parallel execution time so far.
    pub fn elapsed(&self) -> SimTime {
        self.net.clock_max()
    }

    /// Message/byte totals so far.
    pub fn report(&self) -> NetReport {
        self.net.report()
    }

    /// The simulated interconnect (clocks, counters, cost model).
    pub fn net(&self) -> &Net {
        &self.net
    }

    pub(crate) fn board(&self) -> &NoticeBoard {
        &self.board
    }

    pub(crate) fn store(&self) -> &DiffStore {
        &self.store
    }

    pub(crate) fn barrier_ctl(&self) -> &BarrierCtl {
        &self.barrier
    }

    pub(crate) fn lock_mgr(&self) -> &LockMgr {
        &self.locks
    }

    /// Barrier epochs completed (diagnostics).
    pub fn barrier_epoch(&self) -> u64 {
        self.barrier.epoch()
    }

    /// Retained (unfolded) diff records (memory-bound diagnostics).
    pub fn retained_records(&self) -> usize {
        self.store.retained_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let a = cl.alloc::<f64>(100);
        let b = cl.alloc::<f64>(10);
        assert_eq!(a.base_byte() % 4096, 0);
        assert_eq!(b.base_byte() % 4096, 0);
        assert!(b.base_byte() >= a.base_byte() + 100 * 8);
        assert_eq!(cl.heap_pages(), 2);
    }

    #[test]
    fn single_proc_read_write() {
        let cl = Cluster::new(DsmConfig::with_nprocs(1));
        let s = cl.alloc::<f64>(16);
        cl.run(|p| {
            p.write(&s, 3, 1.5);
            assert_eq!(p.read(&s, 3), 1.5);
            assert_eq!(p.read(&s, 0), 0.0, "shared memory starts zeroed");
            p.barrier();
            assert_eq!(p.read(&s, 3), 1.5, "own writes survive the barrier");
        });
        assert_eq!(cl.report().messages, 0, "one processor never communicates");
    }

    #[test]
    fn producer_consumer_via_barrier() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(8);
        cl.run(|p| {
            if p.rank() == 0 {
                p.write(&s, 0, 42.0);
            }
            p.barrier();
            assert_eq!(p.read(&s, 0), 42.0);
            p.barrier();
        });
        let rep = cl.report();
        // p1 demand-faults once: one diff request + one reply, plus
        // 2 barriers × 2(n-1) barrier messages.
        assert_eq!(rep.messages, 2 + 2 * 2);
        assert!(cl.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn state_persists_across_runs() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(4);
        cl.run(|p| {
            if p.rank() == 0 {
                p.write(&s, 1, 7.0);
            }
            p.barrier();
        });
        cl.run(|p| {
            assert_eq!(p.read(&s, 1), 7.0);
        });
    }
}
