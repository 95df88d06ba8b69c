//! The fourth-system comparison: sequential vs plain TreadMarks vs
//! compiler-optimized (`Validate`) vs **runtime-adaptive** on all three
//! applications. This is the table the `adapt` crate exists for — how
//! much of the compiler's aggregation win does a purely runtime policy
//! recover, with no source analysis at all?
//!
//! ```text
//! cargo run --release -p bench --bin table_adapt            # paper scale
//! cargo run --release -p bench --bin table_adapt -- --quick # reduced scale
//! cargo run --release -p bench --bin table_adapt -- --quick --trace t.json
//! ```
//!
//! `--trace PATH` additionally runs the reduced-scale moldyn adaptive
//! build once more under the structured trace sink and writes a Chrome
//! trace (faults, barriers per phase tag, policy decisions, prefetch
//! rounds) viewable in Perfetto.
//!
//! The run doubles as the acceptance check for the adaptive engine: it
//! verifies (per the `simnet` counters) that on moldyn and nbf the
//! adaptive build sends ≥ 25% fewer messages than plain Tmk and the
//! update-push build sends strictly fewer than the pull-mode adaptive
//! build — *with the explicit push-subscription cost counted* — that
//! push ≤ prefetch ≤ base holds on every application, and that the
//! phase-keyed quiesce streaks actually fire on the multi-barrier apps
//! (quiesced plans > 0 on moldyn and nbf, which a globally-keyed
//! streak provably never achieves — their alternating barrier sites
//! reset it every epoch).

use std::sync::Arc;

use apps::moldyn::{self, MoldynConfig};
use apps::nbf::NbfConfig;
use apps::report::RunReport;
use apps::umesh::UmeshConfig;
use apps::workload::{
    run_variants, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload, WorkloadMatrix,
};
use bench::Scale;
use trace::{chrome_trace_json, json_well_formed, with_trace_sink, Tracer};

struct Group {
    app: &'static str,
    m: WorkloadMatrix,
}

impl Group {
    /// Run the four Tmk builds of `w`: `run_variants` checks them
    /// against the sequential reference and bitwise against each other.
    fn run(app: &'static str, w: &impl Workload) -> Group {
        Group {
            app,
            m: run_variants(w, &Variant::TMK),
        }
    }

    fn base(&self) -> &RunReport {
        &self.m.get(Variant::TmkBase).report
    }

    fn opt(&self) -> &RunReport {
        &self.m.get(Variant::TmkOpt).report
    }

    fn adaptive(&self) -> &RunReport {
        &self.m.get(Variant::TmkAdaptive).report
    }

    fn push(&self) -> &RunReport {
        &self.m.get(Variant::TmkPush).report
    }

    fn reduction_vs_base(&self) -> f64 {
        100.0 * (self.base().messages.saturating_sub(self.adaptive().messages)) as f64
            / self.base().messages.max(1) as f64
    }

    fn print(&self) {
        self.m.print_titled(self.app);
        let pol = self.adaptive().policy.clone().expect("adaptive policy report");
        println!(
            "  adaptive vs base: {:.1}% fewer messages (opt reaches {:.1}%)",
            self.reduction_vs_base(),
            100.0 * (self.base().messages.saturating_sub(self.opt().messages)) as f64
                / self.base().messages.max(1) as f64,
        );
        println!(
            "  policy decisions: {} epochs, {} promotions, {} demotions, {} probes; \
             {} prefetch rounds covering {} pages",
            pol.epochs,
            pol.promotions,
            pol.demotions,
            pol.probes,
            pol.prefetch_rounds,
            pol.prefetch_pages
        );
        println!(
            "  phase-keyed quiesce: {} plans deferred, {} quiesced untouched across {} phases",
            pol.deferred_plans,
            pol.quiesced_plans,
            pol.per_phase.len(),
        );
        for row in pol.per_phase.iter().filter(|r| r.quiesced_plans > 0) {
            println!(
                "    phase {:>2}: {} deferred, {} quiesced ({} pages saved)",
                row.phase, row.deferred_plans, row.quiesced_plans, row.quiesced_pages
            );
        }
        let pp = self.push().policy.clone().expect("push policy report");
        println!(
            "  update-push: {:.1}% fewer messages than pull-mode adaptive \
             ({} push rounds covering {} pages, {} one-way subscription msgs counted)",
            100.0 * (self.adaptive().messages.saturating_sub(self.push().messages)) as f64
                / self.adaptive().messages.max(1) as f64,
            pp.push_rounds,
            pp.push_pages,
            pp.subscriptions,
        );
    }
}

fn moldyn_group(scale: Scale) -> Group {
    let mut cfg = MoldynConfig::paper(15);
    if scale == Scale::Quick {
        // 1/8 the molecules with 1/4 the page size keeps the paper's
        // pages-per-array regime (~dozens of coordinate pages), which
        // is what both aggregation paths feed on.
        cfg.n = 2048;
        cfg.cutoff_frac = 0.2;
        cfg.page_size = 1024;
    }
    Group::run("moldyn (rebuild every 15 steps)", &MoldynWorkload::new(cfg))
}

fn nbf_group(scale: Scale) -> Group {
    let mut cfg = NbfConfig::paper(65536);
    if scale == Scale::Quick {
        cfg.n /= 8;
        cfg.partners = 50;
        cfg.page_size = 1024; // preserve the pages-per-array regime
    }
    Group::run("nbf (static partner list)", &NbfWorkload::new(cfg))
}

fn umesh_group(scale: Scale) -> Group {
    let cfg = if scale == Scale::Quick {
        let mut c = UmeshConfig::small();
        c.side = 64;
        c.sweeps = 8;
        c
    } else {
        UmeshConfig::medium()
    };
    Group::run("umesh (static mesh)", &UmeshWorkload::new(cfg))
}

fn main() {
    let scale = Scale::from_args();
    println!("=== table_adapt: the runtime-adaptive fourth and fifth systems ===");
    println!("(seq / Tmk base / Tmk+compiler / Tmk adaptive / Tmk push; times simulated;");
    println!(" the adaptive builds use NO compiler hints and NO inspector;");
    println!(" push = same predictor, writer-initiated one-way diffs)");

    let groups = [moldyn_group(scale), nbf_group(scale), umesh_group(scale)];
    for g in &groups {
        g.print();
    }

    // Acceptance checks, per the simnet counters.
    for g in &groups {
        assert!(
            g.adaptive().messages <= g.base().messages,
            "{}: adaptive sent MORE messages than plain Tmk ({} > {})",
            g.app,
            g.adaptive().messages,
            g.base().messages
        );
        assert!(
            g.push().messages <= g.adaptive().messages,
            "{}: push sent MORE messages than pull-mode adaptive ({} > {})",
            g.app,
            g.push().messages,
            g.adaptive().messages
        );
    }
    for g in &groups {
        let pp = g.push().policy.as_ref().expect("push policy report");
        assert!(
            pp.subscriptions > 0,
            "{}: push must pay its subscription traffic (0 AdaptSub billed)",
            g.app
        );
    }
    for g in &groups[..2] {
        assert!(
            g.reduction_vs_base() >= 25.0,
            "{}: adaptive reduction {:.1}% below the 25% bar",
            g.app,
            g.reduction_vs_base()
        );
        assert!(
            g.push().messages < g.adaptive().messages,
            "{}: update-push must be strictly cheaper than prefetch ({} !< {})",
            g.app,
            g.push().messages,
            g.adaptive().messages
        );
        // The phase-keyed quiesce win: the multi-barrier apps' plans
        // build per-site streaks and the final exchanges go untriggered
        // — a globally-keyed streak never fires here, because the
        // alternating barrier sites reset it every epoch.
        let pol = g.adaptive().policy.as_ref().expect("adaptive policy report");
        assert!(
            pol.deferred_plans > 0,
            "{}: phase-keyed streaks must defer steady plans",
            g.app
        );
        assert!(
            pol.quiesced_plans > 0,
            "{}: the final-barrier exchange must quiesce (0 plans quiesced)",
            g.app
        );
    }
    println!("\nacceptance: adaptive ≥25% fewer messages on moldyn and nbf,");
    println!("            push ≤ prefetch ≤ base everywhere (subscriptions counted),");
    println!("            push strictly beats prefetch on moldyn and nbf, and the");
    println!("            phase-keyed streaks quiesce plans on both  ✓");

    if let Some(path) = arg_value("--trace") {
        write_trace(&path);
    }
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// One reduced-scale moldyn adaptive run under the structured trace
/// sink, exported as Chrome trace JSON — the phase-tagged barriers and
/// the policy's promote/demote/prefetch decisions, on a timeline.
fn write_trace(path: &str) {
    let mut cfg = MoldynConfig::paper(15);
    cfg.n = 2048;
    cfg.cutoff_frac = 0.2;
    cfg.page_size = 1024;
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let tracer = Arc::new(Tracer::new(cfg.nprocs, 1 << 16));
    let _ = with_trace_sink(tracer.clone(), || {
        moldyn::run_tmk(&cfg, &world, Variant::TmkAdaptive, seq.report.time)
    });
    let trace = tracer.capture();
    let json = chrome_trace_json(&trace);
    assert!(json_well_formed(&json), "trace JSON malformed");
    std::fs::write(path, &json).expect("write --trace output");
    println!(
        "\nwrote {path}: {} events over {} lanes from one moldyn adaptive run",
        trace.len(),
        cfg.nprocs
    );
}
