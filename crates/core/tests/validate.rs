//! Integration tests for `Validate`: schedule caching, modification
//! detection, aggregation, and the whole-page write path — the behaviours
//! paper §3.2 specifies.

use rsd::{Dim, Rsd};
use sdsm_core::{
    validate, AccessType, Cluster, Desc, DsmConfig, MsgKind, RegionRef, ScheduleInfo, SharedSlice,
    Validator,
};

fn indirect_desc(
    data: &SharedSlice<f64>,
    ind: &SharedSlice<i32>,
    n: usize,
    access: AccessType,
    sched: u32,
) -> Desc {
    Desc::Indirect {
        data: RegionRef::of(data),
        ind: *ind,
        ind_dims: vec![ind.len()],
        section: Rsd::new(vec![Dim::dense(1, n as i64)]),
        access,
        sched,
    }
}

#[test]
fn schedule_cached_until_indirection_changes() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(4096); // 8 pages
    let ind = cl.alloc::<i32>(16);
    cl.run(|p| {
        let mut v = Validator::new();
        if p.rank() == 0 {
            // indices are 1-based
            for k in 0..16 {
                p.write(&ind, k, (k * 256 + 1) as i32);
            }
        }
        p.barrier();

        let d = indirect_desc(&data, &ind, 16, AccessType::Read, 1);
        validate(p, &mut v, std::slice::from_ref(&d));
        let s1 = v.schedule(1).unwrap();
        assert_eq!(s1.recomputes, 1);
        assert_eq!(s1.pages.len(), 8, "16 targets spread over 8 data pages");

        // Unchanged indirection: Validate does NOT rescan.
        validate(p, &mut v, std::slice::from_ref(&d));
        assert_eq!(v.schedule(1).unwrap().recomputes, 1);
        p.barrier();

        // Processor 0 rewrites part of the indirection array.
        if p.rank() == 0 {
            p.write(&ind, 0, 2);
        }
        p.barrier();

        // Both the local writer and the remote observer must rescan
        // ("Both local and remote modifications cause the modified
        //  function to return true").
        validate(p, &mut v, &[d]);
        assert_eq!(v.schedule(1).unwrap().recomputes, 2);
        p.barrier();
    });
}

#[test]
fn aggregated_prefetch_one_exchange_per_peer() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(512 * 12); // 12 pages
    let ind = cl.alloc::<i32>(12);
    cl.run(|p| {
        let me = p.rank();
        let n = p.nprocs();
        // Each processor owns 3 pages and writes them.
        for pg in 0..12 {
            if pg % n == me {
                for w in 0..512 {
                    p.write(&data, pg * 512 + w, (pg * 1000 + w) as f64);
                }
            }
        }
        if me == 0 {
            for k in 0..12 {
                p.write(&ind, k, (k * 512 + 1) as i32); // one target per page
            }
        }
        p.barrier();

        if me == 0 {
            let before = p.now();
            let mut v = Validator::new();
            validate(
                p,
                &mut v,
                &[indirect_desc(&data, &ind, 12, AccessType::Read, 9)],
            );
            // All 9 remote pages arrive; every read below is fault-free.
            let faults = p.counters().read_faults;
            let mut sum = 0.0;
            for pg in 0..12 {
                sum += p.read(&data, pg * 512);
            }
            assert_eq!(p.counters().read_faults, faults);
            assert_eq!(sum, (0..12).map(|pg| (pg * 1000) as f64).sum::<f64>());
            assert!(p.now() > before);
        }
        p.barrier();
    });
    let rep = cl.report();
    // One aggregated request to each of the 3 peers (ind array fetch may
    // add demand faults, counted separately).
    assert_eq!(rep.messages_per_kind(MsgKind::AggRequest), 3);
    assert_eq!(rep.messages_per_kind(MsgKind::AggReply), 3);
}

#[test]
fn write_all_skips_fetch_and_ships_full_pages() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(512); // one page
    cl.run(|p| {
        let mut v = Validator::new();
        if p.rank() == 0 {
            p.write(&data, 0, -1.0); // make page dirty history
        }
        p.barrier();
        if p.rank() == 1 {
            // WRITE_ALL: page 0 is invalid here, but Validate must NOT
            // fetch it — every element will be overwritten.
            let agg_before = p.counters().pages_fetched;
            validate(
                p,
                &mut v,
                &[Desc::Direct {
                    data: RegionRef::of(&data),
                    section: Rsd::dense1(1, 512),
                    access: AccessType::WriteAll,
                    sched: 2,
                }],
            );
            assert_eq!(p.counters().pages_fetched, agg_before);
            assert_eq!(p.counters().twins_made, 0);
            for i in 0..512 {
                p.write(&data, i, i as f64);
            }
        }
        p.barrier();
        if p.rank() == 0 {
            assert_eq!(p.read(&data, 511), 511.0);
            assert_eq!(p.read(&data, 0), 0.0, "WRITE_ALL overwrote everything");
        }
        p.barrier();
        if p.rank() == 1 {
            assert_eq!(p.counters().fulls_published, 1);
        }
    });
}

#[test]
fn read_write_all_pipelined_reduction_fetches_last_full_only() {
    // The moldyn reduction pattern: procs take turns accumulating into a
    // chunk; with READ&WRITE_ALL each consumer fetches ONE full page from
    // the last writer instead of stacked diffs from every writer.
    let n = 4;
    let cl = Cluster::new(DsmConfig::with_nprocs(n));
    let forces = cl.alloc::<f64>(512); // one page/chunk
    cl.run(|p| {
        let me = p.rank();
        let mut v = Validator::new();
        let desc = || Desc::Direct {
            data: RegionRef::of(&forces),
            section: Rsd::dense1(1, 512),
            access: AccessType::ReadWriteAll,
            sched: 3,
        };
        // Pipelined: step s has proc (s) add 1.0 to every element.
        for s in 0..n {
            if s == me {
                validate(p, &mut v, &[desc()]);
                for i in 0..512 {
                    let cur = p.read(&forces, i);
                    p.write(&forces, i, cur + 1.0);
                }
            }
            p.barrier();
        }
        assert_eq!(p.read(&forces, 100), n as f64);
        p.barrier();
    });
    let rep = cl.report();
    // Each step after the first fetched exactly one Full page from the
    // previous writer: total aggregated exchanges = n-1 (plus the final
    // read faults as demand fetches).
    assert_eq!(rep.messages_per_kind(MsgKind::AggRequest), (n - 1) as u64);
    let full_bytes = rep.bytes_per_kind(MsgKind::AggReply);
    assert!(
        full_bytes >= ((n - 1) * 4096) as u64 && full_bytes < ((n - 1) * 4200) as u64,
        "each exchange carries exactly one full page, got {full_bytes}"
    );
}

#[test]
fn two_level_indirection_composes() {
    // The paper (§3.3) notes the approach "naturally extends to multiple
    // levels of indirection": validate the inner level first, then the
    // outer — no extra mechanism.
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(1024);
    let mid = cl.alloc::<i32>(64);
    let outer = cl.alloc::<i32>(16);
    cl.run(|p| {
        if p.rank() == 0 {
            for k in 0..64 {
                p.write(&mid, k, (k * 16 + 1) as i32);
            }
            for k in 0..16 {
                p.write(&outer, k, (k * 4 + 1) as i32);
            }
            for i in 0..1024 {
                p.write(&data, i, i as f64);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            let mut v = Validator::new();
            // Level 1: mid[outer[j]] — treat mid as data.
            let mid_as_data = RegionRef {
                base: mid.base_byte(),
                len: mid.len(),
                elem: 4,
            };
            validate(
                p,
                &mut v,
                &[Desc::Indirect {
                    data: mid_as_data,
                    ind: outer,
                    ind_dims: vec![outer.len()],
                    section: Rsd::dense1(1, 16),
                    access: AccessType::Read,
                    sched: 10,
                }],
            );
            // Level 2: data[mid[outer[j]]] — now mid is the indirection.
            validate(
                p,
                &mut v,
                &[indirect_desc(&data, &mid, 64, AccessType::Read, 11)],
            );
            // All reads below are prefetched.
            let faults = p.counters().read_faults;
            let mut acc = 0.0;
            for j in 0..16 {
                let m = p.read(&outer, j) as usize; // 1-based
                let t = p.read(&mid, m - 1) as usize; // 1-based
                acc += p.read(&data, t - 1);
            }
            assert_eq!(p.counters().read_faults, faults);
            assert_eq!(acc, (0..16).map(|j| (j * 4 * 16) as f64).sum::<f64>());
        }
        p.barrier();
    });
}

#[test]
fn incremental_recompute_rescans_only_dirty_pages() {
    // The §3.2 extension: after a localized change to the indirection
    // array, an incremental Validator rescans only the entries on the
    // dirtied indirection pages; the full Validator rescans everything.
    let cfg = DsmConfig {
        nprocs: 2,
        page_size: 1024, // 256 i32 entries per indirection page
        ..Default::default()
    };
    let cl = Cluster::new(cfg);
    let data = cl.alloc::<f64>(8192);
    let ind = cl.alloc::<i32>(1024); // 4 indirection pages
    cl.run(|p| {
        let mut v_full = Validator::new();
        let mut v_inc = Validator::incremental();
        assert!(v_inc.is_incremental());
        if p.rank() == 0 {
            for k in 0..1024 {
                p.write(&ind, k, (k * 8 + 1) as i32);
            }
        }
        p.barrier();

        let d = |sched| indirect_desc(&data, &ind, 1024, AccessType::Read, sched);
        validate(p, &mut v_full, &[d(1)]);
        validate(p, &mut v_inc, &[d(2)]);
        let full0 = v_full.schedule(1).unwrap();
        let inc0 = v_inc.schedule(2).unwrap();
        assert_eq!(full0.pages, inc0.pages, "same initial schedule");
        p.barrier();

        // One entry on ONE indirection page changes.
        if p.rank() == 0 {
            p.write(&ind, 700, 1); // page 2 of the indirection array
        }
        p.barrier();

        let t_full = p.now();
        validate(p, &mut v_full, &[d(1)]);
        let full_cost = p.now() - t_full;
        let t_inc = p.now();
        validate(p, &mut v_inc, &[d(2)]);
        let inc_cost = p.now() - t_inc;

        let full1 = v_full.schedule(1).unwrap();
        let inc1 = v_inc.schedule(2).unwrap();
        assert_eq!(full1.pages, inc1.pages, "identical page sets either way");
        assert_eq!(inc1.partial_scans, 256, "one ind page = 256 entries rescanned");
        assert_eq!(full1.partial_scans, 0);
        // The incremental rescan is ~4x cheaper (256 vs 1024 entries).
        assert!(
            inc_cost.as_ns() < full_cost.as_ns(),
            "incremental {inc_cost:?} !< full {full_cost:?}"
        );
        p.barrier();
    });
}

#[test]
fn incremental_and_full_agree_under_repeated_mutation() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(4096);
    let ind = cl.alloc::<i32>(512);
    cl.run(|p| {
        let mut v_full = Validator::new();
        let mut v_inc = Validator::incremental();
        if p.rank() == 0 {
            for k in 0..512 {
                p.write(&ind, k, (k * 4 + 1) as i32);
            }
        }
        p.barrier();
        for round in 0..5 {
            if p.rank() == 0 {
                // Rewire a moving window of entries each round.
                for k in (round * 37)..(round * 37 + 21) {
                    p.write(&ind, k % 512, ((k * 13) % 4096 + 1) as i32);
                }
            }
            p.barrier();
            validate(p, &mut v_full, &[indirect_desc(&data, &ind, 512, AccessType::Read, 1)]);
            validate(p, &mut v_inc, &[indirect_desc(&data, &ind, 512, AccessType::Read, 2)]);
            assert_eq!(
                v_full.schedule(1).unwrap().pages,
                v_inc.schedule(2).unwrap().pages,
                "round {round}: incremental schedule must equal full"
            );
            p.barrier();
        }
    });
}

// ---------------------------------------------------------------------
// Equivalence of the single-pass `Read_indices` with the entry-by-entry
// scan it replaced.
// ---------------------------------------------------------------------

/// The reference `Read_indices`: materialise `flat_indices`, group every
/// entry's data pages under its indirection page in a map, then take
/// the union — followed by the same fetch and `Create_twins` steps as
/// `validate`. Handles indirect `READ` / `READ&WRITE` descriptors.
mod oracle {
    use std::collections::HashMap;

    use rsd::PageSet;
    use sdsm_core::{flat_indices, AccessType, Desc, FetchClass, ScheduleInfo, SimTime, TmkProc};

    #[derive(Default)]
    struct Sched {
        pages: Vec<u32>,
        watch: Option<usize>,
        recomputes: u64,
        by_ind_page: HashMap<u32, Vec<u32>>,
        partial_scans: u64,
    }

    #[derive(Default)]
    pub struct Oracle {
        schedules: HashMap<u32, Sched>,
        pub scan_time: SimTime,
        pub incremental: bool,
    }

    impl Oracle {
        pub fn schedule(&self, sched: u32) -> Option<ScheduleInfo> {
            self.schedules.get(&sched).map(|s| ScheduleInfo {
                pages: s.pages.clone(),
                full_pages: Vec::new(),
                partial_pages: s.pages.clone(),
                recomputes: s.recomputes,
                partial_scans: s.partial_scans,
            })
        }
    }

    pub fn validate(p: &mut TmkProc, v: &mut Oracle, descs: &[Desc]) {
        let page_size = p.page_size();
        let cost = p.cost().clone();
        for d in descs {
            let Desc::Indirect {
                data,
                ind,
                ind_dims,
                section,
                sched,
                ..
            } = d
            else {
                unreachable!("the oracle covers indirect descriptors only")
            };
            let entry = v.schedules.entry(*sched).or_default();
            let watch = *entry.watch.get_or_insert_with(|| p.new_watch());
            let dirty = if v.incremental {
                p.take_modified_pages(watch)
            } else {
                p.take_modified(watch).then(Vec::new)
            };
            let Some(dirty_pages) = dirty else { continue };
            let flats = flat_indices(section, ind_dims);
            let partial =
                v.incremental && !dirty_pages.is_empty() && v.schedules[sched].recomputes > 0;
            let scan: Vec<usize> = if partial {
                flats
                    .iter()
                    .copied()
                    .filter(|&fi| {
                        dirty_pages
                            .binary_search(&ind.page_of(fi, page_size))
                            .is_ok()
                    })
                    .collect()
            } else {
                flats.clone()
            };
            let mut groups: HashMap<u32, PageSet> = HashMap::new();
            for &fi in &scan {
                let t = (p.read(ind, fi) - 1) as usize;
                let b = data.base + t * data.elem;
                let set = groups.entry(ind.page_of(fi, page_size)).or_default();
                set.insert((b / page_size) as u32);
                let last = ((b + data.elem - 1) / page_size) as u32;
                if last != (b / page_size) as u32 {
                    set.insert(last);
                }
            }
            let dt = cost.index_scan(scan.len());
            p.compute(dt);
            v.scan_time += dt;
            let sch = v.schedules.get_mut(sched).unwrap();
            if !partial {
                sch.by_ind_page.clear();
            } else {
                sch.partial_scans += scan.len() as u64;
            }
            for (ip, mut set) in groups {
                set.finish();
                sch.by_ind_page.insert(ip, set.iter().collect());
            }
            let mut union = PageSet::new();
            for pages in sch.by_ind_page.values() {
                for &pg in pages {
                    union.insert(pg);
                }
            }
            union.finish();
            sch.pages = union.iter().collect();
            sch.recomputes += 1;
            let ind_pages: PageSet = flats.iter().map(|&fi| ind.page_of(fi, page_size)).collect();
            p.watch_pages(watch, ind_pages.iter().collect::<Vec<_>>().into_iter());
        }
        let mut fetch: Vec<u32> = Vec::new();
        for d in descs {
            let sch = &v.schedules[&d.sched()];
            fetch.extend(sch.pages.iter().copied().filter(|&pg| p.page_invalid(pg)));
        }
        fetch.sort_unstable();
        fetch.dedup();
        if !fetch.is_empty() {
            p.fetch_pages(&fetch, FetchClass::Aggregated);
        }
        for d in descs {
            if d.access() == AccessType::ReadWrite {
                p.pre_twin(&v.schedules[&d.sched()].pages);
            }
        }
    }
}

/// One randomly generated `Validate` program: a cluster shape, an
/// indirection array, and per round the entries rank 0 rewrites and
/// each rank's section.
#[derive(Debug, Clone)]
struct ScanProgram {
    nprocs: usize,
    page_size: usize,
    ind_dims: Vec<usize>,
    /// Data elements and element size (12 B elements straddle pages).
    data_len: usize,
    data_elem: usize,
    access: AccessType,
    init: Vec<i32>,
    rounds: Vec<Round>,
}

/// One round of a [`ScanProgram`]: rank 0's `(flat index, new 1-based
/// target)` writes, then one section per rank to validate.
#[derive(Debug, Clone)]
struct Round {
    writes: Vec<(usize, i32)>,
    sections: Vec<Rsd>,
}

fn random_dim(rng: &mut proptest::TestRng, n: usize, whole: bool) -> Dim {
    if whole {
        return Dim::dense(1, n as i64);
    }
    let lo = 1 + rng.below(n as u64) as i64;
    // Occasionally empty (hi = lo - 1).
    let hi = lo - 1 + rng.below((n as i64 - lo + 2) as u64) as i64;
    let stride = 1 + rng.below(3) as i64;
    Dim::new(lo, hi, stride)
}

fn random_section(rng: &mut proptest::TestRng, dims: &[usize]) -> Rsd {
    let whole_lead = dims.len() > 1 && rng.below(2) == 0;
    Rsd::new(
        dims.iter()
            .enumerate()
            .map(|(k, &n)| random_dim(rng, n, k == 0 && whole_lead))
            .collect(),
    )
}

fn random_program(rng: &mut proptest::TestRng) -> ScanProgram {
    let nprocs = 1 + rng.below(2) as usize;
    let page_size = 64 << rng.below(3);
    let ind_dims = if rng.below(2) == 0 {
        vec![16 + rng.below(160) as usize]
    } else {
        vec![2 + rng.below(2) as usize, 8 + rng.below(60) as usize]
    };
    let n: usize = ind_dims.iter().product();
    let data_len = 32 + rng.below(400) as usize;
    let data_elem = [8, 12][rng.below(2) as usize];
    let target = |rng: &mut proptest::TestRng| 1 + rng.below(data_len as u64) as i32;
    let init = (0..n).map(|_| target(rng)).collect();
    let mut sections: Vec<Rsd> = (0..nprocs)
        .map(|_| random_section(rng, &ind_dims))
        .collect();
    let rounds = (0..2 + rng.below(4))
        .map(|_| {
            let writes = (0..rng.below(12))
                .map(|_| (rng.below(n as u64) as usize, target(rng)))
                .collect();
            for s in &mut sections {
                if rng.below(2) == 0 {
                    *s = random_section(rng, &ind_dims);
                }
            }
            Round {
                writes,
                sections: sections.clone(),
            }
        })
        .collect();
    let access = [AccessType::Read, AccessType::ReadWrite][rng.below(2) as usize];
    ScanProgram {
        nprocs,
        page_size,
        ind_dims,
        data_len,
        data_elem,
        access,
        init,
        rounds,
    }
}

/// What one rank sees after one round: the plain and incremental
/// schedules and each validator's accumulated scan seconds.
#[derive(Debug, PartialEq)]
struct Seen {
    rank: usize,
    round: usize,
    plain: ScheduleInfo,
    inc: ScheduleInfo,
    plain_scan_s: f64,
    inc_scan_s: f64,
}

/// Everything a run of [`ScanProgram`] observes: per (rank, round) what
/// the validators hold, each rank's final clock, and the message totals.
#[derive(Debug, PartialEq)]
struct ScanOutcome {
    seen: Vec<Seen>,
    clocks: Vec<(usize, u64)>,
    messages: u64,
    bytes: u64,
    per_kind: Vec<(MsgKind, u64, u64)>,
}

fn run_program(prog: &ScanProgram, reference: bool) -> ScanOutcome {
    let cl = Cluster::new(DsmConfig {
        nprocs: prog.nprocs,
        page_size: prog.page_size,
        ..Default::default()
    });
    let n: usize = prog.ind_dims.iter().product();
    let ind = cl.alloc::<i32>(n);
    let bytes = prog.data_len * prog.data_elem;
    let backing = cl.alloc::<f64>(bytes.div_ceil(8));
    let data = RegionRef {
        base: backing.base_byte(),
        len: prog.data_len,
        elem: prog.data_elem,
    };
    let seen = std::sync::Mutex::new(Vec::new());
    let clocks = std::sync::Mutex::new(Vec::new());
    cl.run(|p| {
        let me = p.rank();
        let (mut plain, mut inc) = (Validator::new(), Validator::incremental());
        let (mut o_plain, mut o_inc) = (oracle::Oracle::default(), oracle::Oracle::default());
        o_inc.incremental = true;
        if me == 0 {
            for (k, &t) in prog.init.iter().enumerate() {
                p.write(&ind, k, t);
            }
        }
        p.barrier();
        for (round, Round { writes, sections }) in prog.rounds.iter().enumerate() {
            if me == 0 {
                for &(k, t) in writes {
                    p.write(&ind, k, t);
                }
            }
            p.barrier();
            let desc = |sched| Desc::Indirect {
                data,
                ind,
                ind_dims: prog.ind_dims.clone(),
                section: sections[me].clone(),
                access: prog.access,
                sched,
            };
            let rec = if reference {
                oracle::validate(p, &mut o_plain, &[desc(1)]);
                oracle::validate(p, &mut o_inc, &[desc(2)]);
                Seen {
                    rank: me,
                    round,
                    plain: o_plain.schedule(1).unwrap(),
                    inc: o_inc.schedule(2).unwrap(),
                    plain_scan_s: o_plain.scan_time.as_secs_f64(),
                    inc_scan_s: o_inc.scan_time.as_secs_f64(),
                }
            } else {
                validate(p, &mut plain, &[desc(1)]);
                validate(p, &mut inc, &[desc(2)]);
                Seen {
                    rank: me,
                    round,
                    plain: plain.schedule(1).unwrap(),
                    inc: inc.schedule(2).unwrap(),
                    plain_scan_s: plain.scan_seconds(),
                    inc_scan_s: inc.scan_seconds(),
                }
            };
            seen.lock().unwrap().push(rec);
            p.barrier();
        }
        clocks.lock().unwrap().push((me, p.now().as_ns()));
    });
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|s| (s.rank, s.round));
    let mut clocks = clocks.into_inner().unwrap();
    clocks.sort_unstable();
    let rep = cl.report();
    ScanOutcome {
        seen,
        clocks,
        messages: rep.messages,
        bytes: rep.bytes,
        per_kind: rep.per_kind,
    }
}

#[test]
fn single_pass_read_indices_matches_reference_scan() {
    proptest::run_cases("validate::single_pass_read_indices", |rng| {
        let prog = random_program(rng);
        let got = run_program(&prog, false);
        let want = run_program(&prog, true);
        assert_eq!(got, want, "program: {prog:?}");
    });
}

#[test]
fn changed_section_extent_matches_reference_scan() {
    // A section that grows between calls: the plain validator rescans
    // all 48 entries; the incremental one rescans only the watched
    // (first) indirection page, exactly as the reference scan does —
    // a known limitation of incremental mode, recorded in ROADMAP.
    let mut init = vec![1; 48];
    for (k, t) in init.iter_mut().enumerate().take(16) {
        *t = (8 * (k + 4) + 1) as i32;
    }
    let sec = |hi| Rsd::dense1(1, hi);
    let prog = ScanProgram {
        nprocs: 1,
        page_size: 64,
        ind_dims: vec![48],
        data_len: 8 * 52,
        data_elem: 8,
        access: AccessType::Read,
        init,
        rounds: vec![
            Round {
                writes: Vec::new(),
                sections: vec![sec(16)],
            },
            Round {
                writes: (0..48).map(|k| (k, (8 * (k + 4) + 1) as i32)).collect(),
                sections: vec![sec(48)],
            },
        ],
    };
    let got = run_program(&prog, false);
    assert_eq!(got, run_program(&prog, true));
    let last = &got.seen[1];
    assert_eq!(last.plain.pages, (7..=54).collect::<Vec<u32>>());
    assert_eq!(last.inc.pages, (7..=22).collect::<Vec<u32>>());
}
