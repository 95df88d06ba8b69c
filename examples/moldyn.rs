//! Run the moldyn experiment (reduced scale) across all three systems
//! and print a Table-1-style comparison.
//!
//! ```text
//! cargo run --release --example moldyn
//! ```

use sdsm_repro::apps::moldyn::{self, MoldynConfig};
use sdsm_repro::apps::report::table_header;
use sdsm_repro::apps::Variant;

fn main() {
    let mut cfg = MoldynConfig::paper(10);
    cfg.n = 4096; // reduced from the paper's 16384 for a quick demo
    cfg.steps = 20;
    cfg.cutoff_frac = 0.18;

    println!(
        "moldyn: {} molecules, {} steps, list rebuilt every {} steps, {} processors",
        cfg.n, cfg.steps, cfg.update_interval, cfg.nprocs
    );

    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    println!("sequential: {:.1} s (simulated)\n", seq.report.time.as_secs_f64());

    let (chaos, _) = moldyn::run_chaos(&cfg, &world, seq.report.time);
    let (base, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (opt, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);

    println!("{}", table_header());
    for r in [&chaos, &base, &opt] {
        println!("{}", r.row());
    }
    println!(
        "\nCHAOS spends {:.2} s/proc re-running the inspector in the loop;\n\
         TreadMarks+Validate spends {:.3} s/proc rescanning the indirection array.",
        chaos.inspector_s, opt.validate_scan_s
    );
    assert!(opt.messages < base.messages);
}
