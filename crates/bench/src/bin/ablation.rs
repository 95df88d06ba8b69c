//! Ablations beyond the paper's tables — the design choices behind the
//! variants ARCHITECTURE.md ("The six system variants") describes. Run
//! one (or all) studies; every point is cross-checked against the
//! sequential reference by `run_variants`:
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- [study] [--quick]
//!   update-freq   moldyn time vs rebuild interval (paper's headline
//!                 claim as a curve, not three points)
//!   page-size     nbf 64×1000 vs consistency-unit size (false sharing)
//!   ttable        CHAOS inspector vs translation-table organization
//!   scaling       all three systems at 1..=8 processors
//!   opt-levels    base vs aggregation-only vs full optimization
//! ```

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::workload::{run_variants, MoldynWorkload, NbfWorkload, Variant};
use apps::RunReport;
use bench::Scale;
use chaos::{block_partition, inspector, ChaosWorld, TTable, TTableCache, TTableKind};

fn main() {
    let study = std::env::args()
        .nth(1)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or_else(|| "all".into());
    let scale = Scale::from_args();
    match study.as_str() {
        "update-freq" => update_freq(scale),
        "page-size" => page_size(scale),
        "ttable" => ttable_study(scale),
        "scaling" => scaling(scale),
        "opt-levels" => opt_levels(scale),
        "all" => {
            update_freq(scale);
            page_size(scale);
            ttable_study(scale);
            scaling(scale);
            opt_levels(scale);
        }
        other => eprintln!("unknown study '{other}'"),
    }
}

/// Run `variants` of moldyn at `cfg`, returning their reports in order.
fn moldyn_runs<const N: usize>(cfg: MoldynConfig, variants: [Variant; N]) -> [RunReport; N] {
    let m = run_variants(&MoldynWorkload::new(cfg), &variants);
    variants.map(|v| m.get(v).report.clone())
}

fn moldyn_cfg(scale: Scale, interval: usize) -> MoldynConfig {
    let mut cfg = MoldynConfig::paper(interval);
    if scale == Scale::Quick {
        cfg.n = 2048;
        cfg.cutoff_frac = 0.2;
    } else {
        cfg.n = 8192; // ablations run many points; half scale
        cfg.cutoff_frac = 0.15;
    }
    cfg
}

/// The paper's claim as a curve: "The advantage of this approach
/// increases as the frequency of changes to the indirection array
/// increases."
fn update_freq(scale: Scale) {
    println!("\n=== Ablation: update frequency (moldyn) ===");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>14}",
        "interval", "CHAOS(s)", "TmkOpt(s)", "opt/chaos", "chaos+inspect"
    );
    for interval in [40usize, 20, 10, 5, 3] {
        let [c, o] = moldyn_runs(moldyn_cfg(scale, interval), [Variant::Chaos, Variant::TmkOpt]);
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>12.2} {:>14.1}",
            interval,
            c.time.as_secs_f64(),
            o.time.as_secs_f64(),
            o.time.as_secs_f64() / c.time.as_secs_f64(),
            c.time.as_secs_f64() + c.untimed_inspector_s
        );
    }
}

/// False sharing vs consistency unit: nbf 64×1000 with different pages.
fn page_size(scale: Scale) {
    println!("\n=== Ablation: page size (nbf 64x1000, Tmk optimized) ===");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "page", "time(s)", "messages", "MB"
    );
    for page in [1024usize, 2048, 4096, 8192, 16384] {
        let mut cfg = NbfConfig::paper(64000);
        cfg.page_size = page;
        if scale == Scale::Quick {
            cfg.n = 8000;
            cfg.partners = 50;
        }
        let m = run_variants(&NbfWorkload::new(cfg), &[Variant::TmkOpt]);
        let o = &m.get(Variant::TmkOpt).report;
        println!(
            "{:<10} {:>10.1} {:>10} {:>10.1}",
            page,
            o.time.as_secs_f64(),
            o.messages,
            o.megabytes()
        );
    }
}

/// Inspector cost under the three translation-table organizations.
fn ttable_study(scale: Scale) {
    println!("\n=== Ablation: translation-table organization (inspector) ===");
    let n = if scale == Scale::Quick { 8192 } else { 65536 };
    let nprocs = 8;
    let part = block_partition(n, nprocs);
    let refs_per_proc = 64 * n / nprocs; // dense irregular access
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "organization", "msgs", "bytes", "inspect(s)", "mem/proc"
    );
    for (label, kind) in [
        ("replicated", TTableKind::Replicated),
        ("distributed", TTableKind::Distributed),
        ("paged(512)", TTableKind::Paged { entries_per_page: 512 }),
    ] {
        let tt = TTable::new(kind, &part);
        let w = ChaosWorld::new(nprocs, Default::default());
        let secs = parking_lot::Mutex::new(0.0f64);
        w.run(|cp| {
            let me = cp.rank();
            let mut cache = TTableCache::new();
            let refs = (0..refs_per_proc).map(|k| ((me * 97 + k * 131) % n) as u32);
            let t0 = cp.now();
            let _ = inspector(cp, &tt, &mut cache, refs);
            if me == 0 {
                *secs.lock() = (cp.now() - t0).as_secs_f64();
            }
        });
        let rep = w.report();
        println!(
            "{:<14} {:>10} {:>12} {:>12.2} {:>10}",
            label,
            rep.messages,
            rep.bytes,
            secs.into_inner(),
            tt.bytes_per_proc()
        );
    }
}

/// Processor scaling for the three systems on moldyn.
fn scaling(scale: Scale) {
    println!("\n=== Ablation: processor scaling (moldyn, update every 20) ===");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "nprocs", "CHAOS", "Tmk base", "Tmk opt"
    );
    for nprocs in [1usize, 2, 4, 8] {
        let mut cfg = moldyn_cfg(scale, 20);
        cfg.nprocs = nprocs;
        let [c, b, o] = moldyn_runs(cfg, bench::PAPER_VARIANTS);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>10.1}",
            nprocs,
            c.time.as_secs_f64(),
            b.time.as_secs_f64(),
            o.time.as_secs_f64()
        );
    }
}

/// Where the optimized build's win comes from: the paper attributes 7 of
/// moldyn's 11 percentage points to the regular-access support and 4 to
/// the indirect aggregation. Here: base, then only the indirect Validate
/// (no *_ALL epilogue), then full.
fn opt_levels(scale: Scale) {
    println!("\n=== Ablation: optimization levels (moldyn) ===");
    let [b, o] = moldyn_runs(moldyn_cfg(scale, 20), [Variant::TmkBase, Variant::TmkOpt]);
    println!("base:      {:>8.1} s  {:>9} msgs  {:>7.1} MB", b.time.as_secs_f64(), b.messages, b.megabytes());
    println!("optimized: {:>8.1} s  {:>9} msgs  {:>7.1} MB", o.time.as_secs_f64(), o.messages, o.megabytes());
    println!(
        "improvement: {:.0}% time, {:.1}x fewer messages",
        100.0 * (1.0 - o.time.as_secs_f64() / b.time.as_secs_f64()),
        b.messages as f64 / o.messages.max(1) as f64
    );
}
