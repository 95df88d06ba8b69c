//! Regenerate **Table 2** of the paper: the NBF kernel at
//! {64×1024, 64×1000, 32×1024} molecules, 8 processors.
//!
//! 64×1000 is the false-sharing case: 64000/8 = 8000 doubles per
//! processor = 15.625 pages, so partition boundaries fall mid-page.
//!
//! ```text
//! cargo run --release -p bench --bin table2 [-- --quick]
//! ```

use apps::nbf::NbfConfig;
use bench::{nbf_rows, Scale, PAPER_VARIANTS};

fn main() {
    let scale = Scale::from_args();
    println!("=== Table 2: NBF kernel — 8 processor results ===");

    for (label, n) in [("64 x 1024", 65536usize), ("64 x 1000", 64000), ("32 x 1024", 32768)] {
        let m = nbf_rows(NbfConfig::paper(n), scale);
        m.print_titled(&format!("Problem size {label}"));
        let [chaos, _, opt] = PAPER_VARIANTS.map(|v| &m.get(v).report);
        println!(
            "  in-text: CHAOS inspector (untimed) {:.1}s/proc; \
             Tmk indirection scan {:.3}s/proc",
            chaos.untimed_inspector_s, opt.validate_scan_s
        );
        println!(
            "  shape: opt/chaos time = {:.2}, chaos+inspector = {:.1}s vs opt {:.1}s",
            opt.time.as_secs_f64() / chaos.time.as_secs_f64(),
            chaos.time.as_secs_f64() + chaos.untimed_inspector_s,
            opt.time.as_secs_f64()
        );
    }
}
