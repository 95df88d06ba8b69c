//! Sequential nbf reference.

use simnet::SimTime;

use super::{nbf_force, NbfConfig, NbfWorld, DT};
use crate::report::RunReport;
use crate::work;
use crate::workload::Variant;

pub struct SeqResult {
    pub report: RunReport,
    pub x: Vec<f64>,
}

/// Run nbf sequentially. Warm-up steps run but are not timed, exactly
/// like the paper's "last 10 of 11 iterations are timed".
pub fn run_seq(cfg: &NbfConfig, world: &NbfWorld) -> SeqResult {
    let mut x = world.x0.clone();
    let mut forces = vec![0.0f64; cfg.n];
    let mut time = SimTime::ZERO;

    for step in 1..=(cfg.warmup + cfg.steps) {
        let timed = step > cfg.warmup;
        forces.iter_mut().for_each(|f| *f = 0.0);
        for i in 0..cfg.n {
            let (lo, hi) = (world.last[i] as usize, world.last[i + 1] as usize);
            for k in lo..hi {
                let j = world.partners[k] as usize - 1;
                let f = nbf_force(x[i], x[j]);
                forces[i] += f;
                forces[j] -= f;
            }
        }
        for i in 0..cfg.n {
            x[i] += DT * forces[i];
        }
        if timed {
            time += work::t(work::ZERO_US, cfg.n)
                + work::t(work::NBF_PAIR_US, world.partners.len())
                + work::t(work::NBF_UPDATE_US, cfg.n);
        }
    }

    let checksum = x.iter().map(|v| v.abs()).sum();
    SeqResult {
        report: RunReport {
            system: Variant::Seq,
            time,
            seq_time: time,
            messages: 0,
            bytes: 0,
            inspector_s: 0.0,
            untimed_inspector_s: 0.0,
            validate_scan_s: 0.0,
            checksum,
            policy: None,
            net: None,
        },
        x,
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen_world;
    use super::*;

    #[test]
    fn deterministic_and_moving() {
        let cfg = NbfConfig::small();
        let w = gen_world(&cfg);
        let a = run_seq(&cfg, &w);
        let b = run_seq(&cfg, &w);
        assert_eq!(a.x, b.x);
        let moved = a.x.iter().zip(&w.x0).filter(|(p, q)| p != q).count();
        assert!(moved > cfg.n / 2);
    }

    #[test]
    fn paper_scale_time_formula() {
        // 64×1024: 10 × 6.55M pairs × 1.19 µs ≈ 78 s (paper: 78.3 s) —
        // verified on the formula, not by running the full size.
        let t = work::t(work::NBF_PAIR_US, 65536 * 100 * 10);
        assert!((70.0..90.0).contains(&t.as_secs_f64()));
    }
}
