//! The generic gather–compute–scatter reduction kernel, in all six
//! system variants.
//!
//! Each iteration walks the effective interaction list: a *flux* is
//! computed from the two endpoint values and accumulated into both
//! (`+` into the higher endpoint, `-` into the lower, like umesh's edge
//! relaxation), then every element absorbs its accumulator. The flux
//! weight `kappa` is sized from the hottest element's degree so the
//! relaxation is a contraction for every generated structure.
//!
//! All parallel builds use the fixed-order **owner-side** reduction
//! (the owner of element `i` recomputes each of `i`'s incident fluxes
//! from the coherent start-of-iteration values, in global list order),
//! so seq, the four Tmk builds, and CHAOS agree
//! **bitwise** on every scenario — the contract `table_synth` asserts
//! across the whole grid.

use std::collections::HashMap;

use parking_lot::Mutex;
use rsd::{Dim, Rsd};
use sdsm_core::{
    validate, AccessType, Cluster, ClusterPool, Desc, DsmConfig, RegionRef, Validator,
};
use simnet::{MsgKind, SimTime};

use apps::harness::Capture;
use apps::report::RunReport;
use apps::work;
use apps::workload::Variant;
use chaos::{
    block_partition, gather, inspector, ChaosWorld, Ghosted, Partition, TTable, TTableCache,
    TTableKind,
};

use crate::{Dynamics, SynthConfig, SynthWorld};

/// Barrier-site phase tag of the end-of-iteration barrier (see
/// `apps::phases` for the idea). Under [`Dynamics::Alternating`] the
/// tag is split by iteration parity — the two interleaved lists are two
/// distinct sites, exactly like a classic app's alternating barriers.
pub const PHASE_ITER: u32 = 2;

/// Barrier-site phase tag of the post-rebuild barrier (parity-split
/// under [`Dynamics::Alternating`], like [`PHASE_ITER`]).
pub const PHASE_REMAP: u32 = 4;

/// Modeled cost of one incident-flux evaluation (per visit; cross-block
/// pairs are evaluated by both endpoint owners, as in umesh).
pub const REF_US: f64 = 20.0;

/// Modeled cost of scanning one raw candidate during a list rebuild
/// (divided evenly across processors in the parallel builds).
pub const REMAP_US: f64 = 2.0;

/// One element's contribution from one incident pair, exactly as the
/// sequential sweep applies it.
#[inline]
fn accumulate(acc: &mut f64, node: u32, a: u32, flux: f64) {
    if node == a {
        *acc -= flux;
    } else {
        *acc += flux;
    }
}

/// The sequential reference: real arithmetic, modeled time. In-loop
/// list rebuilds are timed (like moldyn's); the initial build is
/// initialization.
pub fn run_seq(cfg: &SynthConfig, world: &SynthWorld) -> (RunReport, Vec<f64>) {
    let n = cfg.n;
    let mut x = world.x0.clone();
    let mut acc = vec![0.0f64; n];
    let mut time = SimTime::ZERO;
    let mut cur_ver = world.version_of_iter[0];
    for it in 0..cfg.iters {
        let ver = world.version_of_iter[it];
        if ver != cur_ver {
            time += work::t(REMAP_US, cfg.refs);
            cur_ver = ver;
        }
        let list = &world.lists[ver];
        acc.iter_mut().for_each(|a| *a = 0.0);
        for &(a, b) in list {
            let flux = (x[a as usize] - x[b as usize]) * world.kappa;
            acc[a as usize] -= flux;
            acc[b as usize] += flux;
        }
        for (xi, a) in x.iter_mut().zip(&acc) {
            *xi += a;
        }
        time += work::t(REF_US, list.len()) + work::t(work::ZERO_US, 2 * n);
    }
    let checksum = x.iter().map(|v| v.abs()).sum();
    (
        RunReport {
            system: Variant::Seq,
            time,
            seq_time: time,
            messages: 0,
            bytes: 0,
            inspector_s: 0.0,
            untimed_inspector_s: 0.0,
            validate_scan_s: 0.0,
            checksum,
            policy: None,
            net: None,
        },
        x,
    )
}

/// Per-schedule-version, per-processor owner-side work plan,
/// precomputed once (untimed setup) and shared by the Tmk and CHAOS
/// builds.
///
/// A *schedule version* (`sv`) is one distinct (partition epoch, list
/// version) pair, enumerated in first-use order. For every regime
/// except [`Dynamics::Rebalance`] there is exactly one partition, so
/// schedule versions coincide with list versions and the plan is the
/// classic per-list one. A rebalance re-cuts the partition mid-run
/// without touching the list, producing a second schedule version over
/// the *same* list — the stale-schedule case CHAOS must detect and
/// re-inspect its way out of.
pub(crate) struct Plan {
    /// Distinct data partitions, in epoch order. All ascending-
    /// contiguous (identity remap), so `range_of` speaks original
    /// element ids — the kernels index the shared array with it.
    pub parts: Vec<Partition>,
    /// Per iteration: its schedule version.
    pub sv_of_iter: Vec<usize>,
    /// Per schedule version: index into [`Plan::parts`].
    pub sv_part: Vec<usize>,
    /// `flat[sv][q]`: proc `q`'s owned incident pairs under schedule
    /// version `sv`, concatenated in global list order.
    pub flat: Vec<Vec<Vec<(u32, u32)>>>,
    /// `deg[sv][q][li]`: incident count of `q`'s `li`-th owned element.
    pub deg: Vec<Vec<Vec<usize>>>,
    /// Capacity of one processor's shared-list section, in pairs.
    pub cap_pp: usize,
}

/// The re-cut partition a [`Dynamics::Rebalance`] switches to: every
/// interior block boundary slides forward by half a block, so roughly
/// half of each processor's elements change owner while ownership stays
/// ascending-contiguous (identity remap — the kernels' indexing
/// contract, see [`Plan::parts`]).
fn rebalanced_partition(n: usize, nprocs: usize) -> Partition {
    let base = block_partition(n, nprocs);
    let shift = ((n / nprocs) / 2).max(1);
    let mut starts = base.starts.clone();
    for (s, &b) in starts[1..nprocs].iter_mut().zip(&base.starts[1..nprocs]) {
        *s = (b + shift).min(n);
    }
    for p in 1..=nprocs {
        starts[p] = starts[p].max(starts[p - 1]);
    }
    let mut owner = vec![0usize; n];
    for p in 0..nprocs {
        owner[starts[p]..starts[p + 1]].fill(p);
    }
    Partition::from_owners(owner, nprocs)
}

pub(crate) fn plan(cfg: &SynthConfig, world: &SynthWorld) -> Plan {
    let n = cfg.n;
    let nprocs = cfg.nprocs;
    let mut parts = vec![block_partition(n, nprocs)];
    if cfg.dynamics.partition_epochs(cfg.iters) == 2 {
        parts.push(rebalanced_partition(n, nprocs));
    }

    // Schedule versions: distinct (partition epoch, list version)
    // pairs in first-use order.
    let mut sv_of_iter = Vec::with_capacity(cfg.iters);
    let mut sv_part: Vec<usize> = Vec::new();
    let mut sv_list: Vec<usize> = Vec::new();
    let mut seen: HashMap<(usize, usize), usize> = HashMap::new();
    for it in 0..cfg.iters {
        let pe = cfg.dynamics.partition_epoch(it);
        let lv = world.version_of_iter[it];
        let sv = *seen.entry((pe, lv)).or_insert_with(|| {
            sv_part.push(pe);
            sv_list.push(lv);
            sv_part.len() - 1
        });
        sv_of_iter.push(sv);
    }

    let mut incidents: Vec<Vec<Vec<(u32, u32)>>> = Vec::with_capacity(world.lists.len());
    for list in &world.lists {
        let mut incident: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &(a, b) in list {
            incident[a as usize].push((a, b));
            incident[b as usize].push((a, b));
        }
        incidents.push(incident);
    }
    let mut flat = Vec::with_capacity(sv_part.len());
    let mut deg = Vec::with_capacity(sv_part.len());
    for sv in 0..sv_part.len() {
        let part = &parts[sv_part[sv]];
        let incident = &incidents[sv_list[sv]];
        let mut vflat = Vec::with_capacity(nprocs);
        let mut vdeg = Vec::with_capacity(nprocs);
        for q in 0..nprocs {
            let r = part.range_of(q);
            let mut f = Vec::new();
            let mut d = Vec::with_capacity(r.len());
            for i in r {
                d.push(incident[i].len());
                f.extend_from_slice(&incident[i]);
            }
            vflat.push(f);
            vdeg.push(d);
        }
        flat.push(vflat);
        deg.push(vdeg);
    }
    let cap_pp = flat
        .iter()
        .flat_map(|v| v.iter().map(Vec::len))
        .max()
        .unwrap_or(0)
        + 1;
    Plan {
        parts,
        sv_of_iter,
        sv_part,
        flat,
        deg,
        cap_pp,
    }
}

/// The kernel on the DSM as `variant` (one of [`Variant::TMK`]), exactly
/// as in the three classic apps; the adaptive builds take their knobs
/// from `cfg.adapt`.
pub fn run_tmk(
    cfg: &SynthConfig,
    world: &SynthWorld,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    let (report, x, _) = run_tmk_counted(cfg, world, variant, seq_time);
    (report, x)
}

/// Barrier-metadata scaling probe: run the plain-Tmk kernel and report
/// the leader-counted write-notice payload bytes of the timed region
/// (`simnet::Net::notice_meta_bytes`, billed once per barrier, not per
/// fan-in/fan-out copy). `table_synth` runs the same fixed-size
/// workload at two cluster sizes and asserts the figure stays
/// ~linear in nprocs — the flat-digest + sparse-clock contract.
pub fn notice_meta_probe(cfg: &SynthConfig, world: &SynthWorld) -> u64 {
    run_tmk_counted(cfg, world, Variant::TmkBase, SimTime::ZERO).2
}

thread_local! {
    /// Recycled clusters for the reusable-scratch path (one pool per
    /// executor thread, so serving workers never contend on it). Only
    /// [`run_tmk_prepared`] with `reuse = true` touches it; every other
    /// entry point builds a cold cluster, exactly as before.
    static CLUSTERS: ClusterPool = const { ClusterPool::new() };
}

fn run_tmk_counted(
    cfg: &SynthConfig,
    world: &SynthWorld,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>, u64) {
    run_tmk_prepared(cfg, world, &plan(cfg, world), variant, seq_time, false)
}

/// The Tmk kernel against a prebuilt [`Plan`] — the shared-setup entry
/// the serve driver uses via [`crate::Prepared`]. With `reuse`, the
/// cluster is checked out of (and recycled back into) a thread-local
/// [`ClusterPool`] instead of being built and dropped per run.
pub(crate) fn run_tmk_prepared(
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    variant: Variant,
    seq_time: SimTime,
    reuse: bool,
) -> (RunReport, Vec<f64>, u64) {
    assert!(Variant::TMK.contains(&variant), "run_tmk: {variant:?} is not a Tmk variant");
    let n = cfg.n;
    let nprocs = cfg.nprocs;
    let cap_pp = pl.cap_pp;

    let dsm_cfg = DsmConfig {
        nprocs,
        page_size: cfg.page_size,
        cost: cfg.cost.clone(),
    };
    let cl = if reuse {
        CLUSTERS.with(|p| p.checkout(&dsm_cfg))
    } else {
        Cluster::new(dsm_cfg)
    };
    cl.net().set_label(&cfg.label());
    let x = cl.alloc::<f64>(n);
    let ilist = cl.alloc::<i32>(2 * cap_pp * nprocs);

    let cap = Capture::new(nprocs);

    // Phase identity of the kernel's two barrier sites: constant tags
    // normally; split by iteration parity for the alternating cell so
    // its two interleaved lists register as two plans.
    let alternating = cfg.dynamics == Dynamics::Alternating;
    let site = move |base: u32, it: usize| {
        if alternating {
            base + (it % 2) as u32
        } else {
            base
        }
    };

    cl.run(|p| {
        if let Some(policy) = variant.policy(&cfg.adapt) {
            p.set_policy(policy);
        }
        let me = p.rank();
        let mut cur_sv = pl.sv_of_iter[0];
        let mut my = pl.parts[pl.sv_part[cur_sv]].range_of(me);
        let my_start = me * cap_pp;
        let mut v = if variant == Variant::TmkOpt {
            Validator::incremental()
        } else {
            Validator::new()
        };
        let mut acc = vec![0.0f64; my.len()];

        // Writes this processor's current incident section into the
        // shared list (1-based entries, Fortran-style like the apps).
        let write_section = |p: &mut sdsm_core::TmkProc, sec: &[(u32, u32)]| {
            for (k, &(a, b)) in sec.iter().enumerate() {
                let flat = 2 * (my_start + k);
                p.write(&ilist, flat, a as i32 + 1);
                p.write(&ilist, flat + 1, b as i32 + 1);
            }
        };

        // --- untimed init: own x block + version-0 incident section ---
        for i in my.clone() {
            p.write(&x, i, world.x0[i]);
        }
        write_section(p, &pl.flat[cur_sv][me]);
        // The init barrier covers iteration 0's reads, i.e. it stands
        // where the end-of-iteration barrier of a (virtual) iteration
        // −1 would: same site, so that phase's event axis starts here.
        p.barrier_tagged(site(PHASE_ITER, 1));
        p.start_timed_region();
        p.reset_counters();

        for it in 0..cfg.iters {
            let sv = pl.sv_of_iter[it];
            if sv != cur_sv {
                // Rebuild: regenerate (balanced candidate scan) and
                // rewrite this processor's section of the shared list.
                // A partition re-cut (rebalance) lands here too: the
                // owned ranges move, but the DSM keeps the value array
                // coherent, so only the local views change hands.
                write_section(p, &pl.flat[sv][me]);
                p.compute(work::t(REMAP_US, cfg.refs / nprocs));
                p.barrier_tagged(site(PHASE_REMAP, it));
                if pl.sv_part[sv] != pl.sv_part[cur_sv] {
                    my = pl.parts[pl.sv_part[sv]].range_of(me);
                    acc = vec![0.0f64; my.len()];
                }
                cur_sv = sv;
            }
            let my_flat = pl.flat[sv][me].len();
            if variant == Variant::TmkOpt && my_flat > 0 {
                validate(
                    p,
                    &mut v,
                    &[
                        // Endpoint reads through the current list section.
                        Desc::Indirect {
                            data: RegionRef::of(&x),
                            ind: ilist,
                            ind_dims: vec![2, cap_pp * nprocs],
                            section: Rsd::new(vec![
                                Dim::dense(1, 2),
                                Dim::dense(my_start as i64 + 1, (my_start + my_flat) as i64),
                            ]),
                            access: AccessType::Read,
                            sched: 1,
                        },
                        // The owner-side x update over my block.
                        Desc::Direct {
                            data: RegionRef::of(&x),
                            section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                            access: AccessType::ReadWriteAll,
                            sched: 2,
                        },
                    ],
                );
            }
            // Fixed-order owner-side accumulation.
            acc.iter_mut().for_each(|a| *a = 0.0);
            let mut k = my_start;
            for (li, i) in my.clone().enumerate() {
                for _ in 0..pl.deg[sv][me][li] {
                    let a = p.read(&ilist, 2 * k) as u32 - 1;
                    let b = p.read(&ilist, 2 * k + 1) as u32 - 1;
                    let flux = (p.read(&x, a as usize) - p.read(&x, b as usize)) * world.kappa;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            p.compute(work::t(REF_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));

            // Owner-only update from coherent start-of-iteration values.
            for (li, i) in my.clone().enumerate() {
                let cur = p.read(&x, i);
                p.write(&x, i, cur + acc[li]);
            }
            p.barrier_tagged(site(PHASE_ITER, it));
        }

        cap.freeze_tmk(me, &cl);
        cap.set_scan(me, v.scan_seconds());
        p.barrier();
    });

    let policy = variant.is_adaptive().then(|| cl.net().policy_report());

    let final_x: Mutex<Vec<f64>> = Mutex::new(vec![0.0; n]);
    cl.run(|p| {
        if p.rank() == 0 {
            let mut out = final_x.lock();
            for i in 0..n {
                out[i] = p.read(&x, i);
            }
        }
    });
    let final_x = final_x.into_inner();
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    let notice_bytes = cl.net().notice_meta_bytes();
    if reuse {
        CLUSTERS.with(|p| p.checkin(cl));
    }
    (
        cap.report(variant, seq_time, checksum, policy),
        final_x,
        notice_bytes,
    )
}

/// The kernel under CHAOS: inspector at start (untimed) and again after
/// every list change (timed, like moldyn's rebuilds); gather endpoint
/// values per iteration; owner-side accumulation needs no scatter.
pub fn run_chaos(
    cfg: &SynthConfig,
    world: &SynthWorld,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    let pl = plan(cfg, world);
    let tts: Vec<TTable> = pl
        .parts
        .iter()
        .map(|part| TTable::new(TTableKind::Replicated, part))
        .collect();
    run_chaos_prepared(cfg, world, &pl, &tts, seq_time)
}

/// The CHAOS kernel against a prebuilt [`Plan`] and its translation
/// tables (one per partition epoch) — the shared-setup entry
/// [`crate::Prepared`] uses (the replicated `TTable`s are immutable, so
/// every instance of a scenario shares them).
pub(crate) fn run_chaos_prepared(
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    tts: &[TTable],
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    let n = cfg.n;
    let nprocs = cfg.nprocs;

    let w = ChaosWorld::new(nprocs, cfg.cost.clone());
    w.net().set_label(&cfg.label());
    let cap = Capture::new(nprocs);
    let finals: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());

    w.run(|cp| {
        let me = cp.rank();
        let mut cur_sv = pl.sv_of_iter[0];
        let mut pe = pl.sv_part[cur_sv];
        let mut my = pl.parts[pe].range_of(me);
        let mut cache = TTableCache::new();
        let mut x_own: Vec<f64> = world.x0[my.clone()].to_vec();

        let resolve = |sec: &[(u32, u32)], sched: &chaos::CommSchedule, tt: &TTable| {
            sec.iter()
                .map(|&(a, b)| {
                    let (oa, fa) = tt.translate_free(a);
                    let (ob, fb) = tt.translate_free(b);
                    (sched.locate(me, oa, fa), sched.locate(me, ob, fb))
                })
                .collect::<Vec<_>>()
        };

        // --- untimed: the inspector for the initial list ---
        let t0 = cp.now();
        let mut sched = inspector(
            cp,
            &tts[pe],
            &mut cache,
            pl.flat[cur_sv][me].iter().flat_map(|&(a, b)| [a, b]),
        );
        cap.set_untimed_inspector(me, (cp.now() - t0).as_secs_f64());
        let mut locs = resolve(&pl.flat[cur_sv][me], &sched, &tts[pe]);

        cp.start_timed_region();
        let mut insp_in_region = 0.0f64;

        for it in 0..cfg.iters {
            let sv = pl.sv_of_iter[it];
            if sv != cur_sv {
                // The schedule went stale: either the list changed, or
                // (rebalance) the partition was re-cut under an
                // unchanged list. Either way CHAOS regenerates
                // (balanced candidate scan) and pays inspection inside
                // the timed region.
                cp.compute(work::t(REMAP_US, cfg.refs / nprocs));
                let new_pe = pl.sv_part[sv];
                if new_pe != pe {
                    // Partition re-cut: first migrate owned values to
                    // their new homes (bulk exchange, ascending global
                    // element id per pair — deterministic, and the f64
                    // payloads move verbatim, so results stay bitwise).
                    let old_part = &pl.parts[pe];
                    let new_part = &pl.parts[new_pe];
                    let new_my = new_part.range_of(me);
                    let out: Vec<(usize, Vec<f64>)> = (0..nprocs)
                        .filter(|&q| q != me)
                        .map(|q| {
                            let vals: Vec<f64> = my
                                .clone()
                                .filter(|&e| new_part.owner[e] == q)
                                .map(|e| x_own[e - my.start])
                                .collect();
                            (q, vals)
                        })
                        .filter(|(_, vals)| !vals.is_empty())
                        .collect();
                    let incoming = cp.exchange_f64(MsgKind::Scatter, out);
                    let mut new_x = vec![0.0f64; new_my.len()];
                    for e in new_my.clone() {
                        if old_part.owner[e] == me {
                            new_x[e - new_my.start] = x_own[e - my.start];
                        }
                    }
                    for (from, vals) in incoming {
                        let mut vi = 0;
                        for e in new_my.clone() {
                            if old_part.owner[e] == from {
                                new_x[e - new_my.start] = vals[vi];
                                vi += 1;
                            }
                        }
                        debug_assert_eq!(vi, vals.len());
                    }
                    x_own = new_x;
                    my = new_my;
                    // Then pay inspection again, auditable as such.
                    let t0 = cp.now();
                    sched = chaos::reinspect(
                        cp,
                        &tts[new_pe],
                        &mut cache,
                        pl.flat[sv][me].iter().flat_map(|&(a, b)| [a, b]),
                    );
                    insp_in_region += (cp.now() - t0).as_secs_f64();
                    pe = new_pe;
                } else {
                    let t0 = cp.now();
                    sched = inspector(
                        cp,
                        &tts[pe],
                        &mut cache,
                        pl.flat[sv][me].iter().flat_map(|&(a, b)| [a, b]),
                    );
                    insp_in_region += (cp.now() - t0).as_secs_f64();
                }
                locs = resolve(&pl.flat[sv][me], &sched, &tts[pe]);
                cur_sv = sv;
            }
            let my_flat = pl.flat[sv][me].len();

            let mut xg = Ghosted::new(x_own.clone(), &sched);
            gather(cp, &sched, &mut xg);

            let mut acc = vec![0.0f64; my.len()];
            let mut k = 0usize;
            for (li, i) in my.clone().enumerate() {
                for _ in 0..pl.deg[sv][me][li] {
                    let (la, lb) = locs[k];
                    let (a, _) = pl.flat[sv][me][k];
                    let flux = (xg.get(la) - xg.get(lb)) * world.kappa;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            cp.compute(work::t(REF_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));
            for (xi, a) in x_own.iter_mut().zip(&acc) {
                *xi += a;
            }
            cp.sync();
        }

        cap.freeze_chaos(cp);
        cap.set_inspector(me, insp_in_region);
        finals.lock().push((me, x_own));
    });

    // Assemble under the partition the run *ended* on — after a
    // rebalance each processor's final block is its re-cut range.
    let last_part = &pl.parts[pl.sv_part[pl.sv_of_iter[cfg.iters - 1]]];
    let mut final_x = vec![0.0f64; n];
    for (me, block) in finals.into_inner() {
        final_x[last_part.range_of(me)].copy_from_slice(&block);
    }
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (
        cap.report(Variant::Chaos, seq_time, checksum, None),
        final_x,
    )
}
