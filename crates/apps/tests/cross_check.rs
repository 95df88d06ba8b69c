//! Cross-variant verification: all builds of each application must
//! compute the same physics — to floating-point reordering tolerance
//! against the sequential reference (whose accumulation order the
//! pipelined reduction reassociates), and **bitwise** among the DSM
//! builds (base / optimized / adaptive run the same program; the
//! protocol layers only move data earlier or later). The protocol-level
//! shape of the paper's comparison must hold even at test scale:
//! aggregation cuts messages, demand paging inflates them.

use apps::moldyn::{self, MoldynConfig};
use apps::nbf::{self, NbfConfig};
use apps::umesh::{self, UmeshConfig};
use apps::workload::{run_matrix, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload};
use simnet::SimTime;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 + 1e-9 * a.abs().max(b.abs())
}

fn assert_positions_match(label: &str, got: &[[f64; 3]], want: &[[f64; 3]]) {
    let mut worst = 0.0f64;
    for (g, w) in got.iter().zip(want) {
        for d in 0..3 {
            worst = worst.max((g[d] - w[d]).abs());
            assert!(
                close(g[d], w[d]),
                "{label}: position diverged: {} vs {} (worst {worst:e})",
                g[d],
                w[d]
            );
        }
    }
}

#[test]
fn moldyn_all_variants_agree_with_sequential() {
    let cfg = MoldynConfig::small();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);

    let (rep_base, x_base) = moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    assert_positions_match("tmk-base", &x_base, &seq.x);

    let (rep_opt, x_opt) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    assert_positions_match("tmk-opt", &x_opt, &seq.x);

    let (rep_chaos, x_chaos) = moldyn::run_chaos(&cfg, &world, seq.report.time);
    assert_positions_match("chaos", &x_chaos, &seq.x);

    // Paper shape: aggregation cuts DSM messages well below demand paging.
    assert!(
        rep_opt.messages < rep_base.messages,
        "opt {} !< base {}",
        rep_opt.messages,
        rep_base.messages
    );
    // Everyone actually communicated.
    assert!(rep_base.messages > 0 && rep_chaos.messages > 0);
}

#[test]
fn nbf_all_variants_agree_with_sequential() {
    let cfg = NbfConfig::small();
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);

    let (rep_base, x_base) = nbf::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (rep_opt, x_opt) = nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    let (rep_chaos, x_chaos) = nbf::run_chaos(&cfg, &world, seq.report.time);

    for (label, got) in [("base", &x_base), ("opt", &x_opt), ("chaos", &x_chaos)] {
        for (g, w) in got.iter().zip(&seq.x) {
            assert!(close(*g, *w), "nbf-{label}: {g} vs {w}");
        }
    }

    assert!(rep_opt.messages < rep_base.messages);
    assert!(rep_opt.time < rep_base.time);
    assert!(rep_chaos.messages < rep_base.messages);
}

#[test]
fn moldyn_adaptive_agrees_bitwise_and_cuts_messages() {
    let cfg = MoldynConfig::small();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);

    let (rep_base, x_base) = moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (rep_opt, x_opt) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    let (rep_ad, x_ad) = moldyn::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time);

    // The adaptive engine only moves fetches to the barrier; every DSM
    // build computes in the identical order, so agreement across them
    // is bitwise — and still within tolerance of the sequential
    // reference like every other build.
    assert_eq!(x_ad, x_base, "adaptive must be bitwise identical to Tmk base");
    assert_eq!(x_ad, x_opt, "adaptive must be bitwise identical to Tmk optimized");
    assert_positions_match("tmk-adaptive", &x_ad, &seq.x);

    // The learned aggregation must pay off, and must never cost more
    // than demand paging.
    assert!(
        rep_ad.messages < rep_base.messages,
        "adaptive {} !< base {}",
        rep_ad.messages,
        rep_base.messages
    );
    assert!(rep_ad.time < rep_base.time);
    let pol = rep_ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.promotions > 0 && pol.prefetch_rounds > 0);
    // The compiler path still knows more than the runtime can learn.
    assert!(rep_opt.messages <= rep_ad.messages);
}

#[test]
fn nbf_adaptive_agrees_bitwise_and_cuts_messages() {
    let cfg = NbfConfig::small();
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);

    let (rep_base, x_base) = nbf::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (_rep_opt, x_opt) = nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    let (rep_ad, x_ad) = nbf::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time);

    assert_eq!(x_ad, x_base, "adaptive must be bitwise identical to Tmk base");
    assert_eq!(x_ad, x_opt, "adaptive must be bitwise identical to Tmk optimized");
    for (g, w) in x_ad.iter().zip(&seq.x) {
        assert!(close(*g, *w), "nbf-adaptive: {g} vs {w}");
    }

    assert!(rep_ad.messages < rep_base.messages);
    assert!(rep_ad.time < rep_base.time);
    let pol = rep_ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.promotions > 0 && pol.prefetch_pages > 0);
    assert_eq!(pol.demotions, 0, "a static partner list never demotes");
}

#[test]
fn nbf_one_processor_never_prefetches() {
    let mut cfg = NbfConfig::small();
    cfg.nprocs = 1;
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);
    let (rep, _) = nbf::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time);
    assert_eq!(rep.messages, 0);
    let pol = rep.policy.expect("policy report");
    assert_eq!(pol.prefetch_rounds, 0, "nothing is ever invalidated");
}

#[test]
fn umesh_adaptive_agrees_bitwise_with_sequential() {
    // With the fixed-order owner-side reduction, umesh's contract is
    // the strongest: the adaptive build is bitwise-equal to the
    // sequential program itself, not just to the other DSM builds.
    let cfg = UmeshConfig::small();
    let mesh = umesh::gen_mesh(&cfg);
    let seq = umesh::run_seq(&cfg, &mesh);
    let (rep_base, x_base) = umesh::run_tmk(&cfg, &mesh, Variant::TmkBase, seq.report.time);
    let (rep_ad, x_ad) = umesh::run_tmk(&cfg, &mesh, Variant::TmkAdaptive, seq.report.time);
    assert_eq!(x_ad, seq.x, "adaptive must be bitwise identical to seq");
    assert_eq!(x_ad, x_base);
    assert!(rep_ad.messages <= rep_base.messages);
    assert!(rep_ad.policy.expect("adaptive policy report").epochs > 0);
}

#[test]
fn adaptive_never_sends_more_than_base_on_any_app() {
    // The ISSUE-level guarantee, at test scale, across all three apps.
    let mcfg = MoldynConfig::small();
    let mworld = moldyn::gen_positions(&mcfg);
    let mseq = moldyn::run_seq(&mcfg, &mworld);
    let (mb, _) = moldyn::run_tmk(&mcfg, &mworld, Variant::TmkBase, mseq.report.time);
    let (ma, _) = moldyn::run_tmk(&mcfg, &mworld, Variant::TmkAdaptive, mseq.report.time);
    assert!(ma.messages <= mb.messages, "moldyn: {} > {}", ma.messages, mb.messages);

    let ncfg = NbfConfig::small();
    let nworld = nbf::gen_world(&ncfg);
    let nseq = nbf::run_seq(&ncfg, &nworld);
    let (nb, _) = nbf::run_tmk(&ncfg, &nworld, Variant::TmkBase, nseq.report.time);
    let (na, _) = nbf::run_tmk(&ncfg, &nworld, Variant::TmkAdaptive, nseq.report.time);
    assert!(na.messages <= nb.messages, "nbf: {} > {}", na.messages, nb.messages);

    let ucfg = UmeshConfig::small();
    let umesh_mesh = umesh::gen_mesh(&ucfg);
    let useq = umesh::run_seq(&ucfg, &umesh_mesh);
    let (ub, _) = umesh::run_tmk(&ucfg, &umesh_mesh, Variant::TmkBase, useq.report.time);
    let (ua, _) = umesh::run_tmk(&ucfg, &umesh_mesh, Variant::TmkAdaptive, useq.report.time);
    assert!(ua.messages <= ub.messages, "umesh: {} > {}", ua.messages, ub.messages);
}

#[test]
fn moldyn_results_deterministic_across_runs() {
    let cfg = MoldynConfig::small();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let (r1, x1) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    let (r2, x2) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    assert_eq!(x1, x2, "bitwise-identical results");
    assert_eq!(r1.messages, r2.messages);
    assert_eq!(r1.bytes, r2.bytes);
    assert_eq!(r1.time, r2.time);
}

#[test]
fn moldyn_adaptive_deterministic_across_runs() {
    let cfg = MoldynConfig::small();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let (r1, x1) = moldyn::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time);
    let (r2, x2) = moldyn::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time);
    assert_eq!(x1, x2);
    assert_eq!((r1.messages, r1.bytes, r1.time), (r2.messages, r2.bytes, r2.time));
    assert_eq!(r1.policy, r2.policy, "decision stream is deterministic");
}

#[test]
fn nbf_deterministic_across_runs() {
    let cfg = NbfConfig::small();
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);
    let (r1, x1) = nbf::run_chaos(&cfg, &world, seq.report.time);
    let (r2, x2) = nbf::run_chaos(&cfg, &world, seq.report.time);
    assert_eq!(x1, x2);
    assert_eq!((r1.messages, r1.bytes, r1.time), (r2.messages, r2.bytes, r2.time));
}

#[test]
fn moldyn_update_frequency_hurts_chaos_more() {
    // The paper's headline: as the list changes more often, the DSM
    // approach gains on CHAOS because the inspector re-runs (in the
    // timed region) while Validate merely rescans.
    let world = moldyn::gen_positions(&MoldynConfig::small());
    let mut rare = MoldynConfig::small();
    rare.update_interval = 5; // 1 rebuild over 6 steps
    let mut often = MoldynConfig::small();
    often.update_interval = 2; // 2 rebuilds

    let seq_rare = moldyn::run_seq(&rare, &world);
    let seq_often = moldyn::run_seq(&often, &world);

    let (c_rare, _) = moldyn::run_chaos(&rare, &world, seq_rare.report.time);
    let (c_often, _) = moldyn::run_chaos(&often, &world, seq_often.report.time);
    let (o_rare, _) = moldyn::run_tmk(&rare, &world, Variant::TmkOpt, seq_rare.report.time);
    let (o_often, _) = moldyn::run_tmk(&often, &world, Variant::TmkOpt, seq_often.report.time);

    // CHAOS pays the inspector inside the loop; Validate pays a rescan.
    assert!(c_often.inspector_s > c_rare.inspector_s);
    let chaos_delta = c_often.time.as_secs_f64() - c_rare.time.as_secs_f64();
    let opt_delta = o_often.time.as_secs_f64() - o_rare.time.as_secs_f64();
    assert!(
        chaos_delta > opt_delta,
        "chaos Δ {chaos_delta} must exceed opt Δ {opt_delta}"
    );
}

#[test]
fn nbf_one_processor_matches_sequential_closely() {
    // Paper §5: "The single-processor TreadMarks execution time is almost
    // identical to that of the sequential program."
    let mut cfg = NbfConfig::small();
    cfg.nprocs = 1;
    let world = nbf::gen_world(&cfg);
    let seq = nbf::run_seq(&cfg, &world);
    let (rep, x) = nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    for (g, w) in x.iter().zip(&seq.x) {
        assert!(close(*g, *w));
    }
    assert_eq!(rep.messages, 0, "one processor never communicates");
    let ratio = rep.time.as_secs_f64() / seq.report.time.as_secs_f64();
    assert!(
        (0.95..1.15).contains(&ratio),
        "1-proc DSM ≈ sequential, ratio {ratio}"
    );
}

#[test]
fn validate_scan_time_is_reported() {
    let cfg = MoldynConfig::small();
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let (rep, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);
    assert!(rep.validate_scan_s > 0.0);
    let (rep_c, _) = moldyn::run_chaos(&cfg, &world, seq.report.time);
    assert!(rep_c.untimed_inspector_s > 0.0);
    // The paper's asymmetry: inspector work dwarfs the Validate scan.
    assert!(rep_c.untimed_inspector_s + rep_c.inspector_s > rep.validate_scan_s);
}

#[test]
fn every_runner_stamps_its_own_variant() {
    // synth's `Prepared` runners get the same check in synth's
    // scenario tests (synth depends on apps, not the other way round).
    let cells: [Box<dyn Workload>; 3] = [
        Box::new(MoldynWorkload::new(MoldynConfig::small())),
        Box::new(NbfWorkload::new(NbfConfig::small())),
        Box::new(UmeshWorkload::new(UmeshConfig::small())),
    ];
    for w in &cells {
        let m = run_matrix(w.as_ref());
        for v in Variant::ALL {
            assert_eq!(m.get(v).report.system, v, "{}: runner mislabels {v:?}", m.label);
        }
    }
}

#[test]
#[should_panic(expected = "not a Tmk variant")]
fn run_tmk_rejects_chaos() {
    let cfg = UmeshConfig::small();
    let mesh = umesh::gen_mesh(&cfg);
    let _ = umesh::run_tmk(&cfg, &mesh, Variant::Chaos, SimTime::ZERO);
}
