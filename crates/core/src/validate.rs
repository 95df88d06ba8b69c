//! The `Validate` entry point — the run-time half of the paper's
//! compile-time/run-time pair (paper §3.2, Figure 3).

use std::collections::HashMap;
use std::ops::Range;

use dsm::{FetchClass, Pod, SharedSlice, SimTime, TmkProc};
use rsd::PageSet;

use crate::descriptor::{flat_indices, flat_range, AccessType, Desc, RegionRef};

/// Cached state for one schedule number: the page set computed by
/// `Read_indices` (or from a direct section) and, for indirect schedules,
/// the watch that detects indirection-array modification.
#[derive(Debug)]
struct Sched {
    pages: Vec<u32>,
    /// Pages entirely covered by the section (candidates for whole-page
    /// treatment under `WRITE_ALL`); always empty for indirect schedules.
    full_pages: Vec<u32>,
    /// Boundary pages only partially covered — the false-sharing frontier.
    partial_pages: Vec<u32>,
    watch: Option<usize>,
    recomputes: u64,
    /// Data pages contributed by each *indirection* page, sorted by
    /// indirection page, so an incremental rescan can replace just the
    /// dirty pages' share.
    by_ind_page: Vec<(u32, Vec<u32>)>,
    /// Entries rescanned by partial recomputes (diagnostics).
    partial_scans: u64,
}

/// Diagnostic snapshot of a schedule (tests, reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleInfo {
    pub pages: Vec<u32>,
    pub full_pages: Vec<u32>,
    pub partial_pages: Vec<u32>,
    pub recomputes: u64,
    /// Indirection entries rescanned by *partial* (incremental)
    /// recomputes.
    pub partial_scans: u64,
}

/// Per-processor `Validate` state: the schedule cache.
///
/// One `Validator` lives next to each [`TmkProc`] for the duration of the
/// SPMD body (the paper keeps this state in the run-time library).
#[derive(Debug, Default)]
pub struct Validator {
    schedules: HashMap<u32, Sched>,
    /// Simulated time spent scanning indirection arrays (`Read_indices`)
    /// — the number the paper quotes against the CHAOS inspector.
    scan_time: SimTime,
    /// Incremental `Read_indices` (the paper's §3.2 future-work
    /// extension): when the write-watch reports *which* indirection
    /// pages changed, rescan only the section entries on those pages.
    /// Off by default, matching the paper's implementation.
    incremental: bool,
}

impl Validator {
    pub fn new() -> Self {
        Validator::default()
    }

    /// A validator that recomputes page sets *incrementally* — the
    /// extension the paper sketches: "A more sophisticated version of
    /// this approach could use diffing ... to incrementally recompute
    /// the page sets, but our current implementation does not do so."
    pub fn incremental() -> Self {
        Validator {
            incremental: true,
            ..Default::default()
        }
    }

    pub fn schedule(&self, sched: u32) -> Option<ScheduleInfo> {
        self.schedules.get(&sched).map(|s| ScheduleInfo {
            pages: s.pages.clone(),
            full_pages: s.full_pages.clone(),
            partial_pages: s.partial_pages.clone(),
            recomputes: s.recomputes,
            partial_scans: s.partial_scans,
        })
    }

    /// Total `Read_indices` executions.
    pub fn total_recomputes(&self) -> u64 {
        self.schedules.values().map(|s| s.recomputes).sum()
    }

    /// Simulated seconds spent scanning indirection arrays.
    pub fn scan_seconds(&self) -> f64 {
        self.scan_time.as_secs_f64()
    }

    /// Is incremental recompute enabled?
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }
}

/// The `Validate` call of Figure 3.
///
/// * recomputes page sets for indirect descriptors whose indirection
///   section changed (`modified()` via page write-watch);
/// * aggregates the fetch of every invalid page into one exchange per
///   peer (`Fetch_diffs`/`Apply_diffs`);
/// * pre-creates twins (`Create_twins`) or marks whole-page writes.
///
/// `WRITE_ALL` / `READ&WRITE_ALL` apply whole-page treatment only to
/// pages *entirely inside* the section; boundary pages shared with a
/// neighbouring section fall back to the ordinary twin/diff protocol
/// (they are exactly where the paper's false-sharing overhead lives).
/// The `*_ALL` types are only meaningful for `DIRECT` descriptors
/// (paper §3.2) — indirect descriptors reject them.
pub fn validate(p: &mut TmkProc, v: &mut Validator, descs: &[Desc]) {
    let page_size = p.page_size();
    let cost = p.cost().clone();

    // Pass 1: determine pages[sch] for every descriptor.
    for d in descs {
        match d {
            Desc::Indirect {
                data,
                ind,
                ind_dims,
                section,
                sched,
                access,
            } => {
                assert!(
                    !access.whole_pages(),
                    "WRITE_ALL is a direct-access refinement (paper §3.2)"
                );
                let entry = v.schedules.entry(*sched).or_insert_with(Sched::empty);
                let watch = match entry.watch {
                    Some(w) => w,
                    None => {
                        let w = p.new_watch();
                        entry.watch = Some(w);
                        w
                    }
                };
                // modified()? — set by local protection faults and by
                // incoming write notices on the watched pages; born true.
                let dirty = if v.incremental {
                    p.take_modified_pages(watch)
                } else {
                    p.take_modified(watch).then(Vec::new)
                };
                if let Some(dirty_pages) = dirty {
                    // Read_indices: scan the indirection section and map
                    // each target element to its page(s). The scan reads
                    // the indirection array through the DSM, so its pages
                    // are fetched like any shared data. In incremental
                    // mode, a non-empty dirty list restricts the rescan
                    // to entries living on the dirtied indirection pages.
                    let partial = v.incremental
                        && !dirty_pages.is_empty()
                        && v.schedules[sched].recomputes > 0;
                    let only = partial.then_some(&dirty_pages[..]);
                    let shift = p.page_shift();
                    let scan = match flat_range(section, ind_dims) {
                        Some(flats) => {
                            read_indices(p, data, ind, range_runs(ind, flats, shift), only)
                        }
                        None => {
                            let flats = flat_indices(section, ind_dims);
                            let page = |fi: usize| (ind.byte_at(fi) >> shift) as u32;
                            let runs = flats
                                .chunk_by(|&a, &b| page(a) == page(b))
                                .map(|run| (page(run[0]), run.iter().copied()));
                            read_indices(p, data, ind, runs, only)
                        }
                    };
                    let dt = cost.index_scan(scan.entries);
                    p.compute(dt);
                    v.scan_time += dt;

                    let sch = v.schedules.get_mut(sched).unwrap();
                    if partial {
                        sch.partial_scans += scan.entries as u64;
                        for (ip, pages) in scan.groups {
                            match sch.by_ind_page.binary_search_by_key(&ip, |g| g.0) {
                                Ok(i) => sch.by_ind_page[i].1 = pages,
                                Err(i) => sch.by_ind_page.insert(i, (ip, pages)),
                            }
                        }
                    } else {
                        sch.by_ind_page = scan.groups;
                    }
                    // Union of all groups = pages[sch].
                    let mut union = PageSet::with_capacity(64);
                    for (_, pages) in &sch.by_ind_page {
                        for &pg in pages {
                            union.insert(pg);
                        }
                    }
                    union.finish();
                    sch.pages = union.as_slice().to_vec();
                    sch.full_pages.clear();
                    sch.partial_pages = sch.pages.clone();
                    sch.recomputes += 1;

                    // Write_protect(section): arm the watch on the pages
                    // holding the indirection section.
                    p.watch_pages(watch, scan.ind_pages.into_iter());
                }
            }
            Desc::Direct {
                data,
                section,
                sched,
                ..
            } => {
                // pages[sch] = pages in section (cheap arithmetic), split
                // into fully- and partially-covered.
                debug_assert_eq!(section.rank(), 1, "direct sections are 1-D");
                let dim = &section.dims[0];
                let pages = data.pages_of(dim.lo - 1, dim.hi - 1, dim.stride, page_size);
                let entry = v.schedules.entry(*sched).or_insert_with(Sched::empty);
                entry.pages = pages.iter().collect();
                entry.full_pages.clear();
                entry.partial_pages.clear();
                if dim.stride == 1 && !dim.is_empty() {
                    let lo_byte = data.base + (dim.lo - 1) as usize * data.elem;
                    let hi_byte = data.base + dim.hi as usize * data.elem; // exclusive
                    for pg in pages.iter() {
                        let ps = pg as usize * page_size;
                        let pe = ps + page_size;
                        if ps >= lo_byte && pe <= hi_byte {
                            entry.full_pages.push(pg);
                        } else {
                            entry.partial_pages.push(pg);
                        }
                    }
                } else {
                    entry.partial_pages = entry.pages.clone();
                }
            }
        }
    }

    // Pass 2: fetch_pages += pages[sch] that are invalid. Pure WRITE_ALL
    // sections skip the fetch for their fully-covered pages (nothing old
    // is needed); boundary pages still fetch — their other half belongs
    // to someone else.
    let mut fetch: Vec<u32> = Vec::new();
    for d in descs {
        let sch = &v.schedules[&d.sched()];
        let candidates: &[u32] = if d.access() == AccessType::WriteAll {
            &sch.partial_pages
        } else {
            &sch.pages
        };
        fetch.extend(candidates.iter().copied().filter(|&pg| p.page_invalid(pg)));
    }
    fetch.sort_unstable();
    fetch.dedup();

    // Fetch_diffs + Apply_diffs: one aggregated exchange per peer.
    if !fetch.is_empty() {
        p.fetch_pages(&fetch, FetchClass::Aggregated);
    }

    // Create_twins / whole-page marking.
    for d in descs {
        let sch = &v.schedules[&d.sched()];
        match d.access() {
            AccessType::Write | AccessType::ReadWrite => p.pre_twin(&sch.pages),
            AccessType::WriteAll | AccessType::ReadWriteAll => {
                p.mark_full_write(&sch.full_pages);
                p.pre_twin(&sch.partial_pages);
            }
            AccessType::Read => {}
        }
    }
}

impl Sched {
    fn empty() -> Self {
        Sched {
            pages: Vec::new(),
            full_pages: Vec::new(),
            partial_pages: Vec::new(),
            watch: None,
            recomputes: 0,
            by_ind_page: Vec::new(),
            partial_scans: 0,
        }
    }
}

/// What one `Read_indices` walk produced.
struct Scan {
    /// Indirection pages holding the section, ascending: the watch set.
    ind_pages: Vec<u32>,
    /// Per scanned indirection page (ascending), the sorted data pages
    /// its entries target.
    groups: Vec<(u32, Vec<u32>)>,
    /// Entries read (what `index_scan` bills).
    entries: usize,
}

/// `Read_indices` in one pass over the section, given as its runs of
/// flat indices that share an indirection page (ascending, as
/// column-major enumeration yields them): the watch set, the optional
/// dirty-page filter and the per-page grouping all come from the same
/// walk. With `only` set, just the runs on those (sorted) indirection
/// pages are read; the others are skipped whole.
///
/// Entries are read through the DSM in section order, so page faults
/// on the indirection array happen exactly where an entry-by-entry scan
/// would take them.
fn read_indices<I: Iterator<Item = usize>>(
    p: &mut TmkProc,
    data: &RegionRef,
    ind: &SharedSlice<i32>,
    runs: impl Iterator<Item = (u32, I)>,
    only: Option<&[u32]>,
) -> Scan {
    let shift = p.page_shift();
    let mut scan = Scan {
        ind_pages: Vec::new(),
        groups: Vec::new(),
        entries: 0,
    };
    for (ip, run) in runs {
        debug_assert!(
            scan.ind_pages.last().is_none_or(|&last| last < ip),
            "section flat indices ascend"
        );
        scan.ind_pages.push(ip);
        if only.is_some_and(|dirty| dirty.binary_search(&ip).is_err()) {
            continue;
        }
        let mut set = PageSet::with_capacity(run.size_hint().0);
        for fi in run {
            let target = p.read(ind, fi);
            debug_assert!(target >= 1, "indirection entries are 1-based");
            let t = (target - 1) as usize;
            debug_assert!(t < data.len, "indirection target out of range");
            let b = data.base + t * data.elem;
            let first = (b >> shift) as u32;
            let last = ((b + data.elem - 1) >> shift) as u32;
            set.insert(first);
            if last != first {
                set.insert(last);
            }
            scan.entries += 1;
        }
        set.finish();
        scan.groups.push((ip, set.as_slice().to_vec()));
    }
    scan
}

/// The indirection-page runs of a contiguous flat range, computed from
/// the page boundaries rather than entry by entry.
fn range_runs(
    ind: &SharedSlice<i32>,
    flats: Range<usize>,
    shift: u32,
) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
    let mut start = flats.start;
    std::iter::from_fn(move || {
        (start < flats.end).then(|| {
            let byte = ind.byte_at(start);
            let page = byte >> shift;
            let end = (start + (((page + 1) << shift) - byte) / i32::SIZE).min(flats.end);
            let run = (page as u32, start..end);
            start = end;
            run
        })
    })
}
