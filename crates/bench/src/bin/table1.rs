//! Regenerate **Table 1** of the paper: moldyn, 8 processors, interaction
//! list rebuilt every {20, 15, 11} steps.
//!
//! ```text
//! cargo run --release -p bench --bin table1            # paper scale
//! cargo run --release -p bench --bin table1 -- --quick # reduced scale
//! ```

use apps::moldyn::MoldynConfig;
use bench::{moldyn_rows, Scale, PAPER_VARIANTS};

fn main() {
    let scale = Scale::from_args();
    println!("=== Table 1: Moldyn — 8 processor results ===");
    println!("(interaction list updated at varying intervals; times are");
    println!(" simulated; the cost model is calibrated in crates/apps/src/work.rs)");

    for interval in [20usize, 15, 11] {
        let m = moldyn_rows(MoldynConfig::paper(interval), scale);
        m.print_titled(&format!("Update every {interval} iterations"));
        let [chaos, base, opt] = PAPER_VARIANTS.map(|v| &m.get(v).report);
        println!(
            "  in-text: CHAOS inspector {:.1}s/proc timed (+{:.1}s untimed); \
             Tmk Validate indirection scan {:.2}s/proc",
            chaos.inspector_s, chaos.untimed_inspector_s, opt.validate_scan_s
        );
        println!(
            "  shape: opt/chaos time = {:.2}, base/opt messages = {:.1}x, \
             chaos+inspector = {:.1}s",
            opt.time.as_secs_f64() / chaos.time.as_secs_f64(),
            base.messages as f64 / opt.messages.max(1) as f64,
            chaos.time.as_secs_f64() + chaos.untimed_inspector_s
        );
    }
}
