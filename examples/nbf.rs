//! Run the nbf experiment (reduced scale), including the false-sharing
//! contrast the paper builds Table 2 around: a molecule count that tiles
//! pages exactly versus one that leaves partition boundaries mid-page.
//!
//! ```text
//! cargo run --release --example nbf
//! ```

use sdsm_repro::apps::nbf::{self, NbfConfig};
use sdsm_repro::apps::report::table_header;
use sdsm_repro::apps::Variant;

fn main() {
    // 8192 molecules × 8B = 16 pages exactly; 8000 molecules misalign.
    for (label, n) in [("aligned (8x1024)", 8192usize), ("misaligned (8x1000)", 8000)] {
        let mut cfg = NbfConfig::paper(n);
        cfg.partners = 60;
        println!("\nnbf {label}: {} molecules, {} partners each", cfg.n, cfg.partners);

        let world = nbf::gen_world(&cfg);
        let seq = nbf::run_seq(&cfg, &world);
        let (chaos, _) = nbf::run_chaos(&cfg, &world, seq.report.time);
        let (base, _) = nbf::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
        let (opt, _) = nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);

        println!("sequential {:.1} s", seq.report.time.as_secs_f64());
        println!("{}", table_header());
        for r in [&chaos, &base, &opt] {
            println!("{}", r.row());
        }
    }
    println!("\nThe misaligned size sends extra messages and data purely from");
    println!("false sharing at partition boundaries (paper §5.2.1).");
}
