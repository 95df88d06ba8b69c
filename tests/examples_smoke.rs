//! Smoke tests mirroring the runnable examples at quick scale, so an
//! example-level regression fails `cargo test` instead of rotting until
//! someone happens to `cargo run` it. Each test follows the corresponding
//! example's code path (`examples/*.rs`) with its printout replaced by
//! assertions; scales are cut to keep the whole suite in seconds.

use sdsm_repro::apps::umesh::{self, UmeshConfig};
use sdsm_repro::apps::{moldyn, nbf, Variant};
use sdsm_repro::core_rt::{Cluster, DsmConfig};
use sdsm_repro::{apps, fcc};

/// `examples/quickstart.rs`: barriers, locks, multiple-writer sharing, and
/// the traffic report on 4 simulated processors.
#[test]
fn quickstart_path() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(4096);
    let total = cl.alloc::<f64>(8);

    cl.run(|p| {
        let me = p.rank();
        let n = data.len();
        let chunk = n / p.nprocs();
        for i in me * chunk..(me + 1) * chunk {
            p.write(&data, i, (i % 7) as f64);
        }
        p.barrier();

        let nb = (me + 1) % p.nprocs();
        let mut sum = 0.0;
        for i in nb * chunk..(nb + 1) * chunk {
            sum += p.read(&data, i);
        }

        p.lock(1);
        let cur = p.read(&total, 0);
        p.write(&total, 0, cur + sum);
        p.unlock(1);
        p.barrier();

        if me == 0 {
            let grand = p.read(&total, 0);
            assert_eq!(grand, (0..data.len()).map(|i| (i % 7) as f64).sum());
        }
    });

    let rep = cl.report();
    assert!(rep.messages > 0, "sharing must generate protocol traffic");
    assert!(rep.bytes > 0);
    assert!(cl.elapsed().as_secs_f64() > 0.0);
}

/// `examples/moldyn.rs` at quick scale: all four builds run and the
/// optimized DSM beats base on messages.
#[test]
fn moldyn_example_path() {
    let mut cfg = moldyn::MoldynConfig::small();
    cfg.n = 512;
    cfg.steps = 4;
    cfg.update_interval = 2;
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let (base, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (opt, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    let (chaos, _) = moldyn::run_chaos(&cfg, &world, seq.report.time);
    assert!(opt.messages < base.messages);
    assert!(chaos.time.as_secs_f64() > 0.0);
}

/// `examples/nbf.rs` at quick scale.
#[test]
fn nbf_example_path() {
    let mut cfg = nbf::NbfConfig::small();
    cfg.n = 1024;
    cfg.partners = 8;
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);
    let (base, _) = nbf::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (opt, _) = nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    assert!(opt.messages < base.messages);
}

/// `examples/umesh.rs` at small scale: the third workload's three systems
/// agree and the cached Validate schedule is reused on the static mesh.
#[test]
fn umesh_example_path() {
    let cfg = UmeshConfig::small();
    let mesh = umesh::gen_mesh(&cfg);
    let seq = umesh::run_seq(&cfg, &mesh);
    let (chaos, xc) = umesh::run_chaos(&cfg, &mesh, seq.report.time);
    let (opt, xo) = umesh::run_tmk(&cfg, &mesh, Variant::TmkOpt, seq.report.time);
    // Fixed-order owner-side accumulation: every build replays the
    // sequential flux order, so agreement is bitwise (same contract as
    // the `all_variants_agree` test in `apps::umesh`).
    for (label, got) in [("chaos", &xc), ("tmk-opt", &xo)] {
        assert_eq!(got, &seq.x, "{label} must be bitwise identical to seq");
    }
    assert!(chaos.untimed_inspector_s > 0.0);
    assert!(opt.time < seq.report.time);
}

/// `examples/adaptive.rs`: the fourth variant learns a stable irregular
/// pattern and cuts messages without compiler hints.
#[test]
fn adaptive_example_path() {
    use sdsm_repro::adapt::{AdaptConfig, AdaptivePolicy};
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(8 * 512);
    cl.run(|p| p.set_policy(Box::new(AdaptivePolicy::new(AdaptConfig::default()))));
    cl.run(|p| {
        let me = p.rank();
        let n = data.len();
        let chunk = n / p.nprocs();
        for e in 0..6 {
            for i in me * chunk..(me + 1) * chunk {
                p.write(&data, i, (e + i) as f64);
            }
            p.barrier();
            // Fixed irregular read set: the same remote elements each epoch.
            let mut acc = 0.0;
            for k in 0..32 {
                acc += p.read(&data, (me * 97 + k * 131) % n);
            }
            assert!(acc >= 0.0);
            p.barrier();
        }
    });
    let pol = cl.net().policy_report();
    assert!(pol.promotions > 0, "the stable pattern must be learned");
    assert!(pol.prefetch_rounds > 0);
    let rep = cl.report();
    assert!(rep.messages_per_kind(sdsm_repro::simnet::MsgKind::AdaptRequest) > 0);
}

/// `examples/synth.rs` at reduced scale: one synthetic scenario through
/// the generic `Workload` runner — five variants, bitwise agreement
/// asserted inside `run_matrix`, adaptive within base's message count.
#[test]
fn synth_example_path() {
    use sdsm_repro::apps::workload::{run_matrix, Variant};
    use sdsm_repro::synth::{Dynamics, Scenario, Structure, SynthConfig};
    let mut cfg = SynthConfig::quick(
        Structure::PowerLaw { alpha: 2.0 },
        Dynamics::PeriodicRemap { period: 3 },
    );
    cfg.n = 512;
    cfg.refs = 1536;
    cfg.iters = 6;
    cfg.page_size = 256;
    let matrix = run_matrix(&Scenario::new(cfg));
    let base = &matrix.get(Variant::TmkBase).report;
    assert!(matrix.get(Variant::TmkAdaptive).report.messages <= base.messages);
    assert!(matrix.get(Variant::Chaos).report.inspector_s > 0.0);
}

/// `examples/compiler_pipeline.rs`: Figure 1 compiles and the Validate
/// call of Figure 2 is regenerated.
#[test]
fn compiler_pipeline_path() {
    let r = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap();
    assert!(!r.sites.is_empty());
    assert!(r.source.contains("call Validate"));
}

/// The report/table plumbing every example's printout goes through.
#[test]
fn report_table_plumbing() {
    let header = apps::report::table_header();
    assert!(header.contains("Time"));
}
