//! End-to-end application benchmarks at reduced scale: the Table-1 and
//! Table-2 pipelines (workload generation → three systems → verified
//! results), measured as wall-clock of the whole simulation. These keep
//! `cargo bench` fast while exercising exactly the code paths the table
//! harnesses use at paper scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use apps::moldyn::{self, MoldynConfig};
use apps::nbf::{self, NbfConfig};
use apps::workload::Variant;

fn tiny_moldyn() -> MoldynConfig {
    let mut cfg = MoldynConfig::small();
    cfg.n = 1024;
    cfg.steps = 4;
    cfg.update_interval = 3;
    cfg
}

fn bench_moldyn(c: &mut Criterion) {
    let mut g = c.benchmark_group("moldyn_small");
    g.sample_size(10);
    let cfg = tiny_moldyn();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);

    g.bench_function("seq", |b| b.iter(|| black_box(moldyn::run_seq(&cfg, &world).report.time)));
    g.bench_function("tmk_base", |b| {
        b.iter(|| black_box(moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time).0.time))
    });
    g.bench_function("tmk_opt", |b| {
        b.iter(|| {
            black_box(moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time).0.time)
        })
    });
    g.bench_function("chaos", |b| {
        b.iter(|| black_box(moldyn::run_chaos(&cfg, &world, seq.report.time).0.time))
    });
    g.finish();
}

fn bench_nbf(c: &mut Criterion) {
    let mut g = c.benchmark_group("nbf_small");
    g.sample_size(10);
    let mut cfg = NbfConfig::small();
    cfg.n = 2048;
    cfg.partners = 16;
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);

    g.bench_function("seq", |b| b.iter(|| black_box(nbf::run_seq(&cfg, &world).report.time)));
    g.bench_function("tmk_base", |b| {
        b.iter(|| black_box(nbf::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time).0.time))
    });
    g.bench_function("tmk_opt", |b| {
        b.iter(|| {
            black_box(nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time).0.time)
        })
    });
    g.bench_function("chaos", |b| {
        b.iter(|| black_box(nbf::run_chaos(&cfg, &world, seq.report.time).0.time))
    });
    g.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    g.bench_function("compile_moldyn_figure1", |b| {
        b.iter(|| black_box(fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap().sites.len()))
    });
    g.bench_function("compile_nbf", |b| {
        b.iter(|| black_box(fcc::compile(fcc::fixtures::NBF_SOURCE).unwrap().sites.len()))
    });
    g.finish();
}

criterion_group!(benches, bench_moldyn, bench_nbf, bench_compiler);
criterion_main!(benches);
