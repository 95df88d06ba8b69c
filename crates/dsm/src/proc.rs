//! Per-processor protocol engine: the page table, the software MMU, the
//! fault/fetch/apply paths, interval close, and the watch mechanism that
//! `Validate` uses to detect indirection-array changes.

use std::sync::Arc;

use simnet::{FetchKind, MsgKind, ProcId, SimTime, StallCat, TraceEvent};

use crate::cluster::Cluster;
use crate::diff::{Diff, Payload};
use crate::heap::{Pod, SharedSlice};
use crate::interval::{IntervalRec, Vc};
use crate::policy::{ProtocolPolicy, StaticPolicy};
use crate::store::Record;

/// Access state of one page in one processor's view — the analogue of the
/// `mprotect` setting TreadMarks would have on that page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Invalidated by a write notice (or never touched): any access faults.
    Invalid,
    /// Valid and write-protected: reads proceed, first write faults.
    Read,
    /// Valid and writable: a twin exists (or the page is marked
    /// whole-page-write) and the page is on the dirty list.
    Write,
}

#[derive(Debug)]
struct Frame {
    state: PageState,
    data: Option<Box<[u8]>>,
    twin: Option<Box<[u8]>>,
    /// `WRITE_ALL`: no twin; interval close publishes the full page.
    full_write: bool,
    /// `Validate` write-watch armed: next local write fires the watchers.
    watch_protect: bool,
    /// This page has registered watchers (slow-path lookup on events).
    watched: bool,
    /// Highest interval of each processor whose modification of this page
    /// is reflected in `data`: sparse `(proc, seq)` pairs sorted by proc
    /// (absent means 0). A page only ever has a handful of writers, so
    /// this stays a few entries at 256 processors instead of a dense
    /// 256-slot array per (page, processor).
    applied: Vec<(u32, u32)>,
    /// Write notices seen but not yet fetched: `(proc, seq)`.
    pending: Vec<(ProcId, u32)>,
}

impl Frame {
    fn new() -> Self {
        Frame {
            state: PageState::Invalid,
            data: None,
            twin: None,
            full_write: false,
            watch_protect: false,
            watched: false,
            applied: Vec::new(),
            pending: Vec::new(),
        }
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.twin.is_some() || self.full_write
    }

    /// Highest applied interval of `q` (0 if none).
    #[inline]
    fn applied_of(&self, q: ProcId) -> u32 {
        match self.applied.binary_search_by_key(&(q as u32), |&(p, _)| p) {
            Ok(i) => self.applied[i].1,
            Err(_) => 0,
        }
    }

    #[inline]
    fn set_applied(&mut self, q: ProcId, seq: u32) {
        match self.applied.binary_search_by_key(&(q as u32), |&(p, _)| p) {
            Ok(i) => self.applied[i].1 = seq,
            Err(i) => self.applied.insert(i, (q as u32, seq)),
        }
    }

    /// Regress the whole applied map to a master-fold horizon (the page
    /// data was just replaced by the snapshot taken at that horizon).
    fn reset_applied_to(&mut self, horizon: &[u32]) {
        self.applied.clear();
        for (q, &h) in horizon.iter().enumerate() {
            if h > 0 {
                self.applied.push((q as u32, h));
            }
        }
    }
}

/// Event counters a processor accumulates; surfaced in reports and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Read faults taken on invalid pages.
    pub read_faults: u64,
    /// Write faults (protection or invalid-page).
    pub write_faults: u64,
    /// Twins created at first write of an interval.
    pub twins_made: u64,
    /// Non-empty diffs published at interval close.
    pub diffs_created: u64,
    /// Full pages published (`WRITE_ALL` paths).
    pub fulls_published: u64,
    /// Pages brought up to date by fetches of any class.
    pub pages_fetched: u64,
    /// Diff/full records applied to local frames.
    pub records_applied: u64,
    /// Whole-page master-copy fetches (post-GC path).
    pub master_fetches: u64,
    /// Intervals closed with at least one published payload.
    pub intervals_closed: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
}

/// How a fetch was triggered — decides the message kind used for
/// accounting (demand faults vs `Validate` aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchClass {
    /// Demand fault on a single page (base TreadMarks).
    Demand,
    /// Aggregated prefetch of a whole schedule (`Validate`).
    Aggregated,
    /// Aggregated prefetch decided by a runtime [`ProtocolPolicy`]
    /// (no compiler hints): accounted as `AdaptRequest`/`AdaptReply`.
    Prefetch,
    /// Writer-initiated update push decided by a runtime
    /// [`ProtocolPolicy`] in push mode: the writers push their diffs in
    /// one one-way `AdaptPush` message per writer/consumer pair — the
    /// request half of the exchange does not exist on the wire. Data
    /// and application order are identical to [`FetchClass::Prefetch`].
    Push,
}

/// A policy-deferred batched fetch: armed at a barrier, owned by the
/// phase (barrier site) that predicted it, triggered by the next demand
/// fault, and discarded — *quiesced* — when its pages are
/// re-invalidated untouched or the run ends.
#[derive(Debug)]
pub(crate) struct DeferredPlan {
    pub(crate) pages: Vec<u32>,
    pub(crate) phase: u32,
    /// Barrier epoch the plan was armed at: a plan that outlives
    /// [`DeferredPlan::STALE_EPOCHS`] barriers is quiesced even if its
    /// phase never recurs and its pages are never re-invalidated (a
    /// tagged loop that simply ended), so it cannot linger armed until
    /// an unrelated fault flushes its stale pages into an exchange.
    pub(crate) armed_at: u64,
}

impl DeferredPlan {
    pub(crate) const STALE_EPOCHS: u64 = 16;
}

/// Persistent per-processor state (survives across [`Cluster::run`] calls).
#[derive(Debug)]
pub(crate) struct ProcInner {
    frames: Vec<Frame>,
    vc: Vc,
    dirty: Vec<u32>,
    /// Watch keys registered per page, indexed by page id (empty for
    /// unwatched pages; lookups are gated by `Frame::watched` anyway).
    watchers: Vec<Vec<usize>>,
    watch_flags: Vec<bool>,
    /// Pages that fired each watch since the last take (supports the
    /// paper's future-work extension: incremental page-set recompute).
    watch_dirty: Vec<Vec<u32>>,
    pub(crate) counters: ProcCounters,
    pub(crate) last_barrier_seen: Vc,
    /// The protocol decision layer (default: plain demand paging).
    pub(crate) policy: Box<dyn ProtocolPolicy>,
    /// Armed policy-deferred plans, at most one per phase (the quiesce
    /// heuristic). The epoch's first demand fault triggers them all in
    /// one merged exchange.
    pub(crate) deferred: Vec<DeferredPlan>,
    /// Update-push schedules subscribed so far, per phase (flat, sorted
    /// page vecs): the cumulative `(serving peer, pages)` union the
    /// writers have been taught. A push round covering pages beyond a
    /// peer's known set re-subscribes (one one-way `AdaptSub` message
    /// per grown peer).
    pub(crate) push_scheds: Vec<(u32, PushSched)>,
}

/// One phase's cumulative push subscriptions: each serving peer with
/// the sorted set of pages it has been taught to push.
pub(crate) type PushSched = Vec<(ProcId, Vec<u32>)>;

impl ProcInner {
    pub(crate) fn new(nprocs: usize) -> Self {
        ProcInner {
            frames: Vec::new(),
            vc: vec![0; nprocs],
            dirty: Vec::new(),
            watchers: Vec::new(),
            watch_flags: Vec::new(),
            watch_dirty: Vec::new(),
            counters: ProcCounters::default(),
            last_barrier_seen: vec![0; nprocs],
            policy: Box::new(StaticPolicy),
            deferred: Vec::new(),
            push_scheds: Vec::new(),
        }
    }

    pub(crate) fn ensure_frames(&mut self, npages: usize) {
        while self.frames.len() < npages {
            self.frames.push(Frame::new());
        }
    }

    /// Reset to the just-built state, surrendering page boxes to `give`
    /// but keeping every vector's capacity (and the frame table itself)
    /// for the next run — the per-processor half of
    /// [`crate::Cluster::recycle`].
    pub(crate) fn recycle(&mut self, give: &mut dyn FnMut(Box<[u8]>)) {
        for f in &mut self.frames {
            f.state = PageState::Invalid;
            if let Some(b) = f.data.take() {
                give(b);
            }
            if let Some(b) = f.twin.take() {
                give(b);
            }
            f.full_write = false;
            f.watch_protect = false;
            f.watched = false;
            f.applied.clear();
            f.pending.clear();
        }
        self.vc.fill(0);
        self.dirty.clear();
        self.watchers.clear();
        self.watch_flags.clear();
        self.watch_dirty.clear();
        self.counters = ProcCounters::default();
        self.last_barrier_seen.fill(0);
        self.policy = Box::new(StaticPolicy);
        self.deferred.clear();
        self.push_scheds.clear();
    }
}

/// A simulated processor inside [`Cluster::run`]: rank, page table, and
/// the typed accessors that stand in for hardware loads/stores to shared
/// memory.
pub struct TmkProc<'c> {
    pub(crate) cl: &'c Cluster,
    pub(crate) me: ProcId,
    pub(crate) nprocs: usize,
    pub(crate) page_size: usize,
    /// `log2(page_size)`: the page size is asserted to be a power of two
    /// at [`Cluster::new`](crate::Cluster::new), so the software MMU
    /// splits a byte address with a shift and a mask, never a division.
    pub(crate) page_shift: u32,
    /// `page_size - 1`: the in-page byte offset mask.
    pub(crate) page_mask: usize,
    pub(crate) inner: Box<ProcInner>,
}

impl<'c> TmkProc<'c> {
    /// This processor's rank, `0..nprocs`.
    #[inline]
    pub fn rank(&self) -> ProcId {
        self.me
    }

    /// Number of processors in the cluster.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The consistency unit in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// `log2` of the page size: global byte `b` lives on page
    /// `b >> page_shift()`.
    #[inline]
    pub fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// This processor's accumulated protocol event counters.
    pub fn counters(&self) -> &ProcCounters {
        &self.inner.counters
    }

    /// Simulated clock of this processor.
    pub fn now(&self) -> SimTime {
        self.cl.net().clock(self.me)
    }

    /// Charge modeled compute time (the application's "real work").
    #[inline]
    pub fn compute(&self, dt: SimTime) {
        self.cl.net().advance(self.me, dt);
    }

    // ------------------------------------------------------------------
    // Typed accessors: the software MMU.
    // ------------------------------------------------------------------

    /// Read element `i` of `s`, faulting (and fetching) if the page is
    /// invalid.
    #[inline]
    pub fn read<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize) -> T {
        let byte = s.byte_at(i);
        let page = byte >> self.page_shift;
        if self.inner.frames[page].state == PageState::Invalid {
            self.read_fault(page as u32);
        }
        let off = byte & self.page_mask;
        let f = &self.inner.frames[page];
        T::load(&f.data.as_ref().unwrap()[off..])
    }

    /// Write element `i` of `s`, faulting (fetch + twin) as needed.
    #[inline]
    pub fn write<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize, v: T) {
        let byte = s.byte_at(i);
        let page = byte >> self.page_shift;
        {
            let f = &self.inner.frames[page];
            if f.state != PageState::Write || f.watch_protect {
                self.write_fault(page as u32);
            }
        }
        let off = byte & self.page_mask;
        let f = &mut self.inner.frames[page];
        v.store(&mut f.data.as_mut().unwrap()[off..]);
    }

    /// Read-modify-write of a single element.
    #[inline]
    pub fn update<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.read(s, i);
        self.write(s, i, f(v));
    }

    /// Bulk read `s[lo..lo+out.len()]` into `out`.
    pub fn read_slice<T: Pod>(&mut self, s: &SharedSlice<T>, lo: usize, out: &mut [T]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.read(s, lo + k);
        }
    }

    /// Bulk write `src` into `s[lo..]`.
    pub fn write_slice<T: Pod>(&mut self, s: &SharedSlice<T>, lo: usize, src: &[T]) {
        for (k, &v) in src.iter().enumerate() {
            self.write(s, lo + k, v);
        }
    }

    // ------------------------------------------------------------------
    // Fault paths.
    // ------------------------------------------------------------------

    #[cold]
    fn read_fault(&mut self, page: u32) {
        let net = self.cl.net();
        let _fs = net.scope(self.me, StallCat::FaultStall);
        net.trace(self.me, TraceEvent::FaultBegin { page, write: false });
        self.inner.counters.read_faults += 1;
        self.inner.policy.note_miss(page);
        self.compute(net.cost().page_fault());
        self.demand_fetch(page);
        net.trace(self.me, TraceEvent::FaultEnd { page });
    }

    /// Demand-service a fault on `page`. If policy-deferred plans are
    /// armed, the fault triggers them all: the predicted pages of every
    /// live plan (plus the faulting page, which rides along free of its
    /// own demand pair) are fetched in one merged aggregated exchange,
    /// billed per owning phase. Otherwise plain TreadMarks: one
    /// request/reply pair for this page alone.
    ///
    /// A triggered plan is **consumer-initiated by definition** — the
    /// transfer happens at a moment only the faulting processor knows —
    /// so deferral exists only in pull mode; one-way `AdaptPush`
    /// billing is reserved for eager barrier-time pushes, the only
    /// shape the writer-subscription model can honestly claim.
    fn demand_fetch(&mut self, page: u32) {
        if self.inner.deferred.is_empty() {
            self.fetch_pages(&[page], FetchClass::Demand);
            return;
        }
        let mut merged: Vec<u32> = Vec::new();
        for plan in std::mem::take(&mut self.inner.deferred) {
            let retained: Vec<u32> = plan
                .pages
                .iter()
                .copied()
                .filter(|&pg| self.page_invalid(pg) && !merged.contains(&pg))
                .collect();
            if retained.is_empty() {
                continue;
            }
            self.cl
                .net()
                .policy()
                .record_prefetch(self.me, plan.phase, retained.len());
            merged.extend(retained);
        }
        if merged.is_empty() {
            // Every predicted page turned out valid already: nothing of
            // the plans is left to move, so this is an ordinary fault.
            self.fetch_pages(&[page], FetchClass::Demand);
            return;
        }
        if !merged.contains(&page) {
            merged.push(page);
        }
        self.fetch_pages(&merged, FetchClass::Prefetch);
    }

    #[cold]
    fn write_fault(&mut self, page: u32) {
        let net = self.cl.net();
        let cost = net.cost();
        let _fs = net.scope(self.me, StallCat::FaultStall);
        net.trace(self.me, TraceEvent::FaultBegin { page, write: true });
        self.inner.counters.write_faults += 1;
        self.compute(cost.page_fault());
        // Validate's write-watch: the protection violation tells the
        // runtime the indirection array changed (paper §3.3).
        if self.inner.frames[page as usize].watch_protect {
            self.fire_watch(page);
            self.inner.frames[page as usize].watch_protect = false;
        }
        if self.inner.frames[page as usize].state == PageState::Invalid {
            self.inner.policy.note_miss(page);
            self.demand_fetch(page);
        }
        let page_size = self.page_size;
        let f = &mut self.inner.frames[page as usize];
        if f.state == PageState::Read {
            if !f.full_write && f.twin.is_none() {
                f.twin = Some(self.cl.take_page_copy(f.data.as_ref().unwrap()));
                self.inner.counters.twins_made += 1;
                self.inner.dirty.push(page);
                self.cl.net().advance(self.me, cost.twin(page_size));
                self.cl.net().trace(self.me, TraceEvent::TwinCreate { page });
            }
            f.state = PageState::Write;
        }
        self.cl.net().trace(self.me, TraceEvent::FaultEnd { page });
    }

    /// Create twins and enable write access ahead of time — `Validate`
    /// does this for `WRITE`/`READ&WRITE` descriptors so the computation
    /// loop takes no write faults (paper §3.2, `Create_twins`).
    pub fn pre_twin(&mut self, pages: &[u32]) {
        let cost = self.cl.net().cost();
        let page_size = self.page_size;
        for &page in pages {
            // Granting write access counts as a (preempted) write fault
            // for the indirection-array watch.
            if self.inner.frames[page as usize].watch_protect {
                self.fire_watch(page);
                self.inner.frames[page as usize].watch_protect = false;
            }
            let f = &mut self.inner.frames[page as usize];
            debug_assert!(
                f.state != PageState::Invalid,
                "pre_twin on invalid page {page}: fetch first"
            );
            if f.state == PageState::Read && !f.full_write && f.twin.is_none() {
                f.twin = Some(self.cl.take_page_copy(f.data.as_ref().unwrap()));
                self.inner.counters.twins_made += 1;
                self.inner.dirty.push(page);
                self.cl.net().advance(self.me, cost.twin(page_size));
                self.cl.net().trace(self.me, TraceEvent::TwinCreate { page });
                f.state = PageState::Write;
            }
        }
    }

    /// Declare that this processor will write `pages` in their entirety
    /// before the next release (`WRITE_ALL`): no twin is kept, no fetch is
    /// needed, and interval close publishes the whole page (paper §3.2).
    pub fn mark_full_write(&mut self, pages: &[u32]) {
        for &page in pages {
            if self.inner.frames[page as usize].watch_protect {
                self.fire_watch(page);
                self.inner.frames[page as usize].watch_protect = false;
            }
            let f = &mut self.inner.frames[page as usize];
            if f.data.is_none() {
                f.data = Some(self.cl.take_page_zeroed());
            }
            if !f.dirty() {
                self.inner.dirty.push(page);
            }
            // Whatever was pending is irrelevant: every byte will be
            // overwritten locally. Mark it applied so no fetch happens.
            let pending = std::mem::take(&mut f.pending);
            for (q, seq) in pending {
                if f.applied_of(q) < seq {
                    f.set_applied(q, seq);
                }
            }
            f.full_write = true;
            if let Some(t) = f.twin.take() {
                self.cl.recycle_page(t);
            }
            f.state = PageState::Write;
        }
    }

    // ------------------------------------------------------------------
    // Fetch: demand (one page) or aggregated (a schedule's worth).
    // ------------------------------------------------------------------

    /// Bring `pages` up to date. Invalid pages get their missing records
    /// fetched — one request/reply per peer for `Demand`, or one
    /// request/reply per peer *for the whole set* when `Aggregated`
    /// (the paper's communication aggregation).
    pub fn fetch_pages(&mut self, pages: &[u32], class: FetchClass) {
        self.fetch_pages_impl(pages, class, None);
    }

    /// An eager barrier-time update-push round predicted by `phase`:
    /// like [`TmkProc::fetch_pages`] with [`FetchClass::Push`], plus the
    /// explicit subscription cost model — if the phase's per-peer
    /// schedule changed since its last push round, one one-way
    /// `AdaptSub` message per changed peer teaches the writers the new
    /// schedule before the data moves.
    pub(crate) fn fetch_pages_push(&mut self, pages: &[u32], phase: u32) {
        self.fetch_pages_impl(pages, FetchClass::Push, Some(phase));
    }

    fn fetch_pages_impl(&mut self, pages: &[u32], class: FetchClass, push_phase: Option<u32>) {
        // Attribute the whole exchange by who initiated it: demand and
        // compiler-aggregated fetches are fault service, predicted
        // prefetch/push rounds are the adaptive engine's data motion.
        let _sc = self.cl.net().scope(
            self.me,
            match class {
                FetchClass::Demand | FetchClass::Aggregated => StallCat::FaultStall,
                FetchClass::Prefetch | FetchClass::Push => StallCat::PrefetchPush,
            },
        );
        // Phase 1: figure out what is needed, per page.
        struct Need {
            page: u32,
            records: Vec<Record>,
            master: bool,
        }
        // 1a: per invalid page, the highest pending seq per source —
        // kept as sparse `(proc, seq)` pairs (one per writer of the
        // page), not a dense nprocs-slot array per page.
        let mut needs: Vec<Need> = Vec::new();
        let mut uptos: Vec<Vec<(ProcId, u32)>> = Vec::new(); // parallel to `needs`
        for &page in pages {
            let f = &mut self.inner.frames[page as usize];
            if f.state != PageState::Invalid {
                continue;
            }
            let mut pend: Vec<(ProcId, u32)> = f.pending.drain(..).collect();
            pend.sort_unstable();
            pend.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 = b.1.max(a.1);
                    true
                } else {
                    false
                }
            });
            pend.retain(|&(q, seq)| seq > f.applied_of(q));
            needs.push(Need {
                page,
                records: Vec::new(),
                master: false,
            });
            uptos.push(pend);
        }
        // 1b: one store-lock round per *serving* processor resolves every
        // pending record of every page in the fetch (collect_batch),
        // instead of one lock round per (page, processor) pair. The flat
        // request list is grouped by server, so a 256-proc fetch visits
        // only the peers that actually hold records.
        let mut flat: Vec<(ProcId, usize, u32, u32, u32)> = Vec::new(); // (q, need, page, after, upto)
        for (i, n) in needs.iter().enumerate() {
            let f = &self.inner.frames[n.page as usize];
            for &(q, up) in &uptos[i] {
                flat.push((q, i, n.page, f.applied_of(q), up));
            }
        }
        flat.sort_unstable_by_key(|&(q, i, ..)| (q, i));
        let mut k = 0;
        while k < flat.len() {
            let q = flat[k].0;
            let end = k + flat[k..].iter().take_while(|e| e.0 == q).count();
            debug_assert_ne!(q, self.me, "own writes are always applied");
            let batch: Vec<(u32, u32, u32)> = flat[k..end]
                .iter()
                .map(|&(_, _, page, after, upto)| (page, after, upto))
                .collect();
            let collected = self.cl.store().collect_batch(q, &batch);
            for (&(_, i, ..), c) in flat[k..end].iter().zip(collected) {
                needs[i].records.extend(c.records);
                needs[i].master |= c.needs_master;
            }
            k = end;
        }
        // 1c: master-copy resolution (rare GC path) + pruning, per page.
        for (n, upto) in needs.iter_mut().zip(&uptos) {
            let page = n.page;
            let mut records = std::mem::take(&mut n.records);
            let mut master = n.master;
            if master {
                // Some needed records were folded into the master page.
                // The master snapshot replaces the WHOLE page as of the
                // fold horizon, so everything newer than the horizon that
                // this copy already reflected — other processors' applied
                // records and our own published intervals — must be
                // re-applied on top. Re-collect from the horizon, from
                // every processor including ourselves, bounded by our
                // vector clock (records we have not acquired yet must not
                // be applied — that would break release consistency).
                let horizon = self.cl.store().master_horizon();
                records.clear();
                let up_of = |q: ProcId| -> u32 {
                    match upto.binary_search_by_key(&q, |&(p, _)| p) {
                        Ok(i) => upto[i].1,
                        Err(_) => 0,
                    }
                };
                for (q, &h) in horizon.iter().enumerate().take(self.nprocs) {
                    let known = if q == self.me {
                        self.inner.vc[self.me]
                    } else {
                        self.inner.vc[q].max(up_of(q))
                    };
                    if known > h {
                        let c = self.cl.store().collect(q, page, h, known);
                        records.extend(c.records);
                    }
                }
            }
            // Prune: a Full snapshot subsumes everything it covers.
            if let Some(full) = records
                .iter()
                .filter(|r| r.payload.is_full())
                .max_by_key(|r| r.key())
                .cloned()
            {
                let before = records.len();
                records.retain(|r| {
                    r.seq > full.vc[r.proc] || (r.proc == full.proc && r.seq == full.seq)
                });
                let _ = before;
                if master {
                    // The master is needed only if it holds intervals the
                    // Full does not cover.
                    let horizon = self.cl.store().master_horizon();
                    master = !horizon.iter().zip(full.vc.iter()).all(|(&h, &v)| v >= h);
                }
            }
            records.sort_by_key(|r| r.key());
            n.records = records;
            n.master = master;
        }
        if needs.is_empty() {
            return;
        }

        // Phase 2: message accounting — group by serving processor. The
        // accumulator is a compact list over the peers actually serving
        // this exchange (typically a handful), not three dense
        // nprocs-slot arrays per fetch.
        const REQ_FIXED: usize = 16; // header + vc digest
        const REQ_PER_PAGE: usize = 8; // page id + applied seq
        struct PeerAcc {
            q: ProcId,
            req_pages: usize,
            resp_bytes: usize,
            pages: Vec<u32>,
        }
        fn acc(peers: &mut Vec<PeerAcc>, q: ProcId) -> &mut PeerAcc {
            let i = match peers.iter().position(|p| p.q == q) {
                Some(i) => i,
                None => {
                    peers.push(PeerAcc {
                        q,
                        req_pages: 0,
                        resp_bytes: 0,
                        pages: Vec::new(),
                    });
                    peers.len() - 1
                }
            };
            &mut peers[i]
        }
        let mut peers: Vec<PeerAcc> = Vec::new();
        for n in &needs {
            for r in &n.records {
                let a = acc(&mut peers, r.proc);
                a.req_pages += 1;
                a.resp_bytes += r.payload.wire_bytes();
                a.pages.push(n.page);
            }
            if n.master {
                let mgr = (n.page as usize) % self.nprocs;
                let a = acc(&mut peers, mgr);
                a.req_pages += 1;
                a.resp_bytes += self.page_size + 8 + 4 * self.nprocs;
                a.pages.push(n.page);
            }
        }
        // Deterministic leg order regardless of record arrival order.
        peers.sort_unstable_by_key(|p| p.q);
        if class == FetchClass::Push {
            // Update-push: the writers initiate — one one-way data
            // message per serving peer, no request leg on the wire. The
            // writers only know *what* to push because the consumer
            // subscribed them to its schedule: bill one one-way
            // subscription message per peer whose share of this phase's
            // schedule *grew* beyond what it was already taught (the
            // cumulative union). A steady-state plan subscribes once
            // and then rides free; a probe — a transient subset of the
            // subscribed schedule — costs nothing extra. Unsubscription
            // is lazy and unbilled: a writer briefly pushing pages a
            // demoted pattern no longer needs shows up as the pull
            // traffic the probe/demand path already counts.
            if let Some(phase) = push_phase {
                let scheds = &mut self.inner.push_scheds;
                let si = match scheds.iter().position(|(ph, _)| *ph == phase) {
                    Some(i) => i,
                    None => {
                        scheds.push((phase, Vec::new()));
                        scheds.len() - 1
                    }
                };
                let subscribed = &mut scheds[si].1;
                let mut newly: Vec<(ProcId, usize)> = Vec::new();
                for p in &peers {
                    let (q, pp) = (p.q, &p.pages);
                    if q == self.me || pp.is_empty() {
                        continue;
                    }
                    let known = match subscribed.iter_mut().find(|(oq, _)| *oq == q) {
                        Some((_, known)) => known,
                        None => {
                            subscribed.push((q, Vec::new()));
                            &mut subscribed.last_mut().unwrap().1
                        }
                    };
                    // `known` stays sorted: membership is a binary search
                    // even when a phase's cumulative schedule grows large.
                    let mut fresh = 0usize;
                    for &pg in pp {
                        if let Err(pos) = known.binary_search(&pg) {
                            known.insert(pos, pg);
                            fresh += 1;
                        }
                    }
                    if fresh > 0 {
                        newly.push((q, fresh));
                    }
                }
                if !newly.is_empty() {
                    let net = self.cl.net();
                    for &(q, npages) in &newly {
                        // One-way teach message: the consumer pays the
                        // injection (inside push), the writer absorbs
                        // it asynchronously for one interrupt-handler
                        // cost. Only commutative clock updates here —
                        // folding the arrival time in with a max would
                        // make simulated time depend on OS interleaving
                        // (several consumers subscribe concurrently).
                        let _arrival = net.push(self.me, MsgKind::AdaptSub, 16 + 4 * npages);
                        net.advance_remote(q, net.cost().handler());
                        net.trace(
                            self.me,
                            TraceEvent::Msg {
                                kind: MsgKind::AdaptSub,
                                peer: q as u32,
                                bytes: (16 + 4 * npages) as u32,
                                out: true,
                            },
                        );
                    }
                    net.policy().record_subscribe(self.me, phase, newly.len());
                }
            }
            let legs: Vec<(ProcId, MsgKind, usize)> = peers
                .iter()
                .filter(|p| p.q != self.me && p.req_pages > 0)
                .map(|p| (p.q, MsgKind::AdaptPush, p.resp_bytes))
                .collect();
            self.cl.net().push_round(self.me, &legs);
            self.cl.net().trace(
                self.me,
                TraceEvent::Fetch {
                    class: FetchKind::Push,
                    pages: needs.len() as u32,
                    peers: legs.len() as u32,
                    bytes: legs.iter().map(|&(_, _, b)| b as u64).sum(),
                },
            );
        } else {
            let (kreq, kresp) = match class {
                FetchClass::Demand => (MsgKind::DiffRequest, MsgKind::DiffReply),
                FetchClass::Aggregated => (MsgKind::AggRequest, MsgKind::AggReply),
                FetchClass::Prefetch => (MsgKind::AdaptRequest, MsgKind::AdaptReply),
                FetchClass::Push => unreachable!("handled by the push_round branch above"),
            };
            let legs: Vec<(ProcId, MsgKind, usize, MsgKind, usize)> = peers
                .iter()
                .filter(|p| p.q != self.me && p.req_pages > 0)
                .map(|p| {
                    (
                        p.q,
                        kreq,
                        REQ_FIXED + REQ_PER_PAGE * p.req_pages,
                        kresp,
                        p.resp_bytes,
                    )
                })
                .collect();
            // One parallel exchange round: a demand fault covers one page;
            // the aggregated classes cover a whole schedule's worth per
            // peer.
            self.cl.net().parallel_round(self.me, &legs);
            self.cl.net().trace(
                self.me,
                TraceEvent::Fetch {
                    class: match class {
                        FetchClass::Demand => FetchKind::Demand,
                        FetchClass::Aggregated => FetchKind::Aggregated,
                        _ => FetchKind::Prefetch,
                    },
                    pages: needs.len() as u32,
                    peers: legs.len() as u32,
                    bytes: legs.iter().map(|&(_, _, _, _, b)| b as u64).sum(),
                },
            );
        }

        // Phase 3: apply, master copies first, then records causally.
        let cost = self.cl.net().cost();
        let mut apply_time = SimTime::ZERO;
        for n in needs {
            let f = &mut self.inner.frames[n.page as usize];
            if f.data.is_none() {
                f.data = Some(self.cl.take_page_zeroed());
            }
            if n.master {
                let (mdata, horizon) = self.cl.store().master_fetch(n.page);
                // Uncommitted local writes (open interval) live only in
                // the data-vs-twin delta; preserve them across the
                // whole-page overwrite.
                let own_delta = f
                    .twin
                    .as_ref()
                    .map(|t| crate::diff::Diff::create(t, f.data.as_ref().unwrap()));
                let data = f.data.as_mut().unwrap();
                data.copy_from_slice(&mdata);
                if let Some(t) = f.twin.as_mut() {
                    t.copy_from_slice(&mdata);
                }
                if let Some(d) = own_delta {
                    d.apply(f.data.as_mut().unwrap());
                }
                self.cl.recycle_page(mdata);
                // The master is a snapshot *at the horizon*: the page
                // regresses to exactly that knowledge; newer records
                // (re-collected above) are applied on top.
                f.reset_applied_to(&horizon);
                apply_time += cost.diff_apply(self.page_size);
                self.inner.counters.master_fetches += 1;
            }
            for r in &n.records {
                if r.seq <= f.applied_of(r.proc) {
                    continue; // subsumed by the master copy
                }
                r.payload.apply(f.data.as_mut().unwrap());
                // Multiple-writer merge: keep our in-progress twin in sync
                // so our eventual diff contains only our own writes.
                if let Some(t) = f.twin.as_mut() {
                    r.payload.apply(t);
                }
                f.set_applied(r.proc, r.seq);
                apply_time += cost.diff_apply(r.payload.wire_bytes());
                self.inner.counters.records_applied += 1;
            }
            f.state = if f.dirty() {
                PageState::Write
            } else {
                PageState::Read
            };
            self.inner.counters.pages_fetched += 1;
        }
        self.cl.net().advance(self.me, apply_time);
    }

    // ------------------------------------------------------------------
    // Interval close + notice application (called by barrier/lock code).
    // ------------------------------------------------------------------

    /// Close the current interval: diff every dirty page, publish the
    /// records and the write notices. No-op if nothing was written.
    pub(crate) fn close_interval(&mut self) {
        if self.inner.dirty.is_empty() {
            return;
        }
        let cost = self.cl.net().cost();
        let mut dirty = std::mem::take(&mut self.inner.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        self.inner.policy.note_interval_close(&dirty);

        // Build payloads first; only non-empty ones publish.
        let mut payloads: Vec<(u32, Payload)> = Vec::new();
        let mut scan_time = SimTime::ZERO;
        for &page in &dirty {
            let f = &mut self.inner.frames[page as usize];
            debug_assert!(f.dirty(), "page {page} on dirty list but clean");
            if f.full_write {
                payloads.push((page, Payload::Full(f.data.as_ref().unwrap().clone())));
                scan_time += cost.twin(self.page_size); // one copy
                self.inner.counters.fulls_published += 1;
            } else {
                let d = Diff::create(f.twin.as_ref().unwrap(), f.data.as_ref().unwrap());
                scan_time += cost.diff_create(self.page_size);
                if !d.is_empty() {
                    self.cl.net().trace(
                        self.me,
                        TraceEvent::DiffCreate {
                            page,
                            bytes: d.wire_bytes() as u32,
                        },
                    );
                    payloads.push((page, Payload::Diff(d)));
                    self.inner.counters.diffs_created += 1;
                }
            }
            if let Some(t) = f.twin.take() {
                self.cl.recycle_page(t);
            }
            f.full_write = false;
            // Re-protect: the next write in the new interval faults again.
            if f.state == PageState::Write {
                f.state = PageState::Read;
            }
        }
        self.cl.net().advance(self.me, scan_time);
        if payloads.is_empty() {
            return;
        }

        let seq = self.inner.vc[self.me] + 1;
        self.inner.vc[self.me] = seq;
        let vc: Arc<[u32]> = self.inner.vc.clone().into();
        let pages: Arc<[u32]> = payloads.iter().map(|&(p, _)| p).collect();
        for (page, payload) in payloads {
            self.inner.frames[page as usize].set_applied(self.me, seq);
            self.cl
                .store()
                .publish(self.me, page, seq, Arc::clone(&vc), payload);
        }
        // The record's clock ships as a delta against the last barrier
        // target — both ends of any later exchange know that base.
        let rec = IntervalRec::new(vc, pages, &self.inner.last_barrier_seen);
        self.cl.board().publish(self.me, rec);
        self.inner.counters.intervals_closed += 1;
    }

    /// Merge knowledge up to `target` (an acquire): apply write notices of
    /// every newly covered interval, invalidating local copies. With
    /// `collect_invalidated`, returns the pages invalidated by this
    /// acquire (sorted, deduplicated) for the protocol policy's epoch
    /// bookkeeping — barriers pass `true`; the lock path passes `false`
    /// and keeps its old zero-allocation acquire.
    pub(crate) fn apply_notices(&mut self, target: &[u32], collect_invalidated: bool) -> Vec<u32> {
        let me = self.me;
        let mut invalidated: Vec<u32> = Vec::new();
        for (q, &to) in target.iter().enumerate() {
            if q == me || to <= self.inner.vc[q] {
                continue;
            }
            let from = self.inner.vc[q];
            // Collect first (board lock), then mutate frames.
            let mut hits: Vec<(u32, u32)> = Vec::new(); // (page, seq)
            self.cl.board().for_range(q, from, to, |seq, rec| {
                for &page in rec.pages.iter() {
                    hits.push((page, seq));
                }
            });
            for (page, seq) in hits {
                let f = &mut self.inner.frames[page as usize];
                f.pending.push((q, seq));
                f.state = PageState::Invalid;
                if collect_invalidated {
                    invalidated.push(page);
                }
                if f.watched {
                    self.fire_watch(page);
                }
            }
            self.inner.vc[q] = to;
        }
        invalidated.sort_unstable();
        invalidated.dedup();
        invalidated
    }

    /// Barrier-path acquire: consume the leader's flat notice digest —
    /// `(page, proc, seq)` entries covering `(previous target, target]`
    /// across *all* processors, built once per barrier — instead of
    /// re-walking every peer's board per processor. Entries already
    /// merged through lock acquires (`seq ≤ vc[q]`) are skipped, so this
    /// applies exactly the intervals `apply_notices(target)` would:
    /// `vc[q] ≥ prev_target[q]` always holds after the previous barrier.
    pub(crate) fn apply_digest(&mut self, digest: &[(u32, u32, u32)], target: &[u32]) -> Vec<u32> {
        let me = self.me;
        let mut invalidated: Vec<u32> = Vec::new();
        for &(page, q, seq) in digest {
            let q = q as usize;
            if q == me || seq <= self.inner.vc[q] {
                continue;
            }
            let f = &mut self.inner.frames[page as usize];
            f.pending.push((q, seq));
            f.state = PageState::Invalid;
            invalidated.push(page);
            if f.watched {
                self.fire_watch(page);
            }
        }
        for (q, &to) in target.iter().enumerate() {
            if self.inner.vc[q] < to {
                self.inner.vc[q] = to;
            }
        }
        invalidated.sort_unstable();
        invalidated.dedup();
        invalidated
    }

    pub(crate) fn vc(&self) -> &[u32] {
        &self.inner.vc
    }

    // ------------------------------------------------------------------
    // Protocol policy (the adaptive decision layer).
    // ------------------------------------------------------------------

    /// Install a protocol policy on this processor. The policy persists
    /// across [`Cluster::run`] calls (like the page table); installing
    /// replaces any previous policy and its learned state — including
    /// the protocol layer's own per-policy state: armed deferred plans
    /// are dropped (the old engine that predicted them is gone) and the
    /// push-subscription schedules are forgotten, so a fresh push-mode
    /// policy is billed for teaching its writers from scratch.
    pub fn set_policy(&mut self, policy: Box<dyn ProtocolPolicy>) {
        self.inner.policy = policy;
        self.inner.deferred.clear();
        self.inner.push_scheds.clear();
    }

    /// The installed protocol policy (diagnostics).
    pub fn policy(&self) -> &dyn ProtocolPolicy {
        self.inner.policy.as_ref()
    }

    // ------------------------------------------------------------------
    // Watches (used by Validate to detect indirection-array changes).
    // ------------------------------------------------------------------

    /// Allocate a watch flag; `take_modified` reads-and-clears it.
    pub fn new_watch(&mut self) -> usize {
        self.inner.watch_flags.push(true); // born dirty: first Validate computes
        self.inner.watch_dirty.push(Vec::new());
        self.inner.watch_flags.len() - 1
    }

    /// Arm watch `key` on `pages`: local writes (via protection fault) and
    /// incoming write notices on these pages set the flag.
    pub fn watch_pages(&mut self, key: usize, pages: impl Iterator<Item = u32>) {
        for page in pages {
            let f = &mut self.inner.frames[page as usize];
            f.watched = true;
            f.watch_protect = true;
            let idx = page as usize;
            if self.inner.watchers.len() <= idx {
                self.inner.watchers.resize_with(idx + 1, Vec::new);
            }
            let w = &mut self.inner.watchers[idx];
            if !w.contains(&key) {
                w.push(key);
            }
        }
    }

    /// True if anything under `key`'s watch changed since the last call.
    pub fn take_modified(&mut self, key: usize) -> bool {
        self.inner.watch_dirty[key].clear();
        std::mem::replace(&mut self.inner.watch_flags[key], false)
    }

    /// Like [`TmkProc::take_modified`], but also reports *which* watched
    /// pages changed: `None` if nothing changed; `Some(pages)` with the
    /// dirtied pages (empty right after `new_watch`, meaning "everything"
    /// — no pages were being watched yet). This enables the incremental
    /// `Read_indices` the paper sketches as an extension (§3.2: "a more
    /// sophisticated version of this approach could ... incrementally
    /// recompute the page sets").
    pub fn take_modified_pages(&mut self, key: usize) -> Option<Vec<u32>> {
        if !std::mem::replace(&mut self.inner.watch_flags[key], false) {
            return None;
        }
        let mut pages = std::mem::take(&mut self.inner.watch_dirty[key]);
        pages.sort_unstable();
        pages.dedup();
        Some(pages)
    }

    fn fire_watch(&mut self, page: u32) {
        if let Some(keys) = self.inner.watchers.get(page as usize) {
            for &k in keys {
                self.inner.watch_flags[k] = true;
                self.inner.watch_dirty[k].push(page);
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests.
    // ------------------------------------------------------------------

    /// Page state (test/diagnostic hook).
    pub fn page_state(&self, page: u32) -> PageState {
        self.inner.frames[page as usize].state
    }

    /// Is this page currently invalid (a fetch would move data)?
    #[inline]
    pub fn page_invalid(&self, page: u32) -> bool {
        self.inner.frames[page as usize].state == PageState::Invalid
    }

    /// The cluster's cost model (for charging modeled library work).
    pub fn cost(&self) -> &simnet::CostModel {
        self.cl.net().cost()
    }

    /// Pages currently invalid within a region (what a fetch would bring).
    pub fn invalid_pages_in<T: Pod>(&self, s: &SharedSlice<T>) -> Vec<u32> {
        s.pages(self.page_size)
            .filter(|&p| self.inner.frames[p as usize].state == PageState::Invalid)
            .collect()
    }
}
