//! Criterion microbenchmarks of the protocol substrate: diff creation
//! and application, section algebra and page-set construction, the
//! inspector's dedup+translate, `Read_indices`, warm shared reads and
//! barrier rounds. These are the per-operation costs the paper's
//! run-time systems are built from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use std::sync::Mutex;

use dsm::{Cluster, Diff, DsmConfig};
use rsd::{pages_of_section, Dim, PageSet, Rsd};
use sdsm_core::{validate, AccessType, Desc, RegionRef, Validator};

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    let page = 4096usize;
    let twin = vec![0u8; page];

    // Sparse modification: 16 scattered words.
    let mut sparse = twin.clone();
    for k in 0..16 {
        sparse[k * 256] = 0xAB;
    }
    g.bench_function("create_sparse_16w", |b| {
        b.iter(|| Diff::create(black_box(&twin), black_box(&sparse)))
    });

    // Dense modification: the whole page (a rewritten force chunk).
    let dense = vec![0xCDu8; page];
    g.bench_function("create_dense_full", |b| {
        b.iter(|| Diff::create(black_box(&twin), black_box(&dense)))
    });

    let d = Diff::create(&twin, &dense);
    g.bench_function("apply_dense_full", |b| {
        let mut dst = twin.clone();
        b.iter(|| d.apply(black_box(&mut dst)))
    });
    g.finish();
}

fn bench_rsd(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsd");
    g.bench_function("pages_of_dense_section", |b| {
        b.iter(|| pages_of_section(black_box(0), 8, 0, 99_999, 1, 4096))
    });
    g.bench_function("pages_of_strided_section", |b| {
        b.iter(|| pages_of_section(black_box(0), 8, 0, 99_999, 512, 4096))
    });
    let a = Rsd::new(vec![Dim::new(0, 100_000, 3)]);
    let b2 = Rsd::new(vec![Dim::new(0, 100_000, 5)]);
    g.bench_function("intersect_strided", |b| {
        b.iter(|| a.intersect(black_box(&b2)))
    });
    // Before/after the dense-bitmap `finish` (PR 3): 105.8 µs with the
    // sort-based build → 31.8 µs bitmap (~10.6 → ~3.2 ns/insert).
    g.bench_function("pageset_build_10k", |b| {
        b.iter(|| {
            let mut s = PageSet::with_capacity(10_000);
            for k in 0..10_000u32 {
                s.insert(k % 700);
            }
            s.finish();
            s
        })
    });
    g.finish();
}

fn bench_dsm_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsm");
    g.sample_size(20);

    g.bench_function("barrier_round_4p", |b| {
        let cl = Cluster::new(DsmConfig::with_nprocs(4));
        b.iter(|| {
            cl.run(|p| {
                for _ in 0..8 {
                    p.barrier();
                }
            })
        })
    });

    // A warm-page `TmkProc::read`: the software MMU's hit path.
    g.bench_function("read_hit", |b| {
        let cl = Cluster::new(DsmConfig::with_nprocs(1));
        let s = cl.alloc::<f64>(4096);
        let b = Mutex::new(b);
        cl.run(|p| {
            for i in 0..s.len() {
                p.write(&s, i, i as f64);
            }
            let mut i = 0;
            b.lock().unwrap().iter(|| {
                i = (i + 97) & (s.len() - 1);
                p.read(&s, black_box(i))
            });
        })
    });

    g.bench_function("producer_consumer_page", |b| {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(512);
        b.iter(|| {
            cl.run(|p| {
                if p.rank() == 0 {
                    for i in 0..512 {
                        p.write(&s, i, i as f64);
                    }
                }
                p.barrier();
                if p.rank() == 1 {
                    let mut acc = 0.0;
                    for i in 0..512 {
                        acc += p.read(&s, i);
                    }
                    black_box(acc);
                }
                p.barrier();
            })
        })
    });
    g.finish();
}

fn bench_inspector(c: &mut Criterion) {
    use chaos::{block_partition, inspector, ChaosWorld, TTable, TTableCache, TTableKind};
    let mut g = c.benchmark_group("inspector");
    g.sample_size(20);
    let n = 16384usize;
    let part = block_partition(n, 4);
    let tt = TTable::new(TTableKind::Replicated, &part);
    g.bench_function("dedup_translate_schedule_64k_refs", |b| {
        b.iter(|| {
            let w = ChaosWorld::new(4, Default::default());
            w.run(|cp| {
                let me = cp.rank();
                let mut cache = TTableCache::new();
                let refs = (0..65_536).map(|k| ((me * 131 + k * 97) % n) as u32);
                black_box(inspector(cp, &tt, &mut cache, refs));
            });
        })
    });
    g.finish();
}

/// `Read_indices` over a 16 Ki-entry indirection section (16 pages of
/// `i32`) targeting 128 pages of `f64`, on one processor. Each iteration
/// rewrites one indirection entry, so `validate` rescans: all 16 Ki
/// entries for the plain validator (`cold`), the 1 Ki entries of the one
/// dirtied page for the incremental one.
fn bench_validate(c: &mut Criterion) {
    let mut g = c.benchmark_group("validate");
    g.sample_size(20);
    let n = 16 * 1024;
    let data_len = 128 * 512;
    let target = |k: usize| ((k * 7919) % data_len + 1) as i32;
    for (name, incremental) in [
        ("read_indices_16k_cold", false),
        ("read_indices_16k_incremental_1page", true),
    ] {
        g.bench_function(name, |b| {
            let cl = Cluster::new(DsmConfig::with_nprocs(1));
            let data = cl.alloc::<f64>(data_len);
            let ind = cl.alloc::<i32>(n);
            let desc = Desc::Indirect {
                data: RegionRef::of(&data),
                ind,
                ind_dims: vec![n],
                section: Rsd::dense1(1, n as i64),
                access: AccessType::Read,
                sched: 1,
            };
            let b = Mutex::new(b);
            cl.run(|p| {
                for k in 0..n {
                    p.write(&ind, k, target(k));
                }
                let mut v = if incremental {
                    Validator::incremental()
                } else {
                    Validator::new()
                };
                validate(p, &mut v, std::slice::from_ref(&desc));
                let mut k = 0;
                b.lock().unwrap().iter(|| {
                    k = (k + 1) % n;
                    p.write(&ind, k, target(k));
                    validate(p, &mut v, std::slice::from_ref(&desc));
                });
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_diff,
    bench_rsd,
    bench_dsm_rounds,
    bench_inspector,
    bench_validate
);
criterion_main!(benches);
