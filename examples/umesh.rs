//! Unstructured-mesh relaxation on all three systems — the third
//! irregular workload, exercising the public API beyond the paper's two
//! benchmarks, including the *incremental* Read_indices extension.
//!
//! ```text
//! cargo run --release --example umesh
//! ```

use sdsm_repro::apps::report::table_header;
use sdsm_repro::apps::umesh::{self, UmeshConfig};
use sdsm_repro::apps::Variant;

fn main() {
    let cfg = UmeshConfig::medium();
    println!(
        "umesh: {}x{} grid ({} nodes), {} sweeps, {} processors",
        cfg.side,
        cfg.side,
        cfg.n(),
        cfg.sweeps,
        cfg.nprocs
    );
    let mesh = umesh::gen_mesh(&cfg);
    println!("{} edges ({} long-range)", mesh.edges.len(), {
        let grid = 2 * cfg.side * (cfg.side - 1);
        mesh.edges.len() - grid
    });

    let seq = umesh::run_seq(&cfg, &mesh);
    println!("sequential: {:.2} s (simulated)\n", seq.report.time.as_secs_f64());

    let (chaos, _) = umesh::run_chaos(&cfg, &mesh, seq.report.time);
    let (base, _) = umesh::run_tmk(&cfg, &mesh, Variant::TmkBase, seq.report.time);
    let (opt, _) = umesh::run_tmk(&cfg, &mesh, Variant::TmkOpt, seq.report.time);

    println!("{}", table_header());
    for r in [&chaos, &base, &opt] {
        println!("{}", r.row());
    }
    println!(
        "\nStatic mesh: CHAOS's inspector ran once ({:.2} s/proc, untimed);\n\
         Validate scanned the edge list once ({:.3} s/proc) and reused the\n\
         cached schedule for every later sweep.",
        chaos.untimed_inspector_s, opt.validate_scan_s
    );
}
