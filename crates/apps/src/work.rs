//! Modeled per-operation compute costs (microseconds), calibrated against
//! the paper's *sequential* timings — each constant's doc gives its
//! derivation. These model the 1997 thin-node SP2 (66 MHz POWER2); the
//! real Rust arithmetic runs at native speed and only these charges enter
//! the simulated clocks.

use simnet::SimTime;

/// moldyn: one interaction-list entry (load pair, distance, force,
/// two accumulations). Calibration: paper sequential times are
/// 267.2/365.8/467.3 s for 1/2/3 list rebuilds over 40 steps, so the
/// force phase is ≈ (267.2 − rebuild)/40 ≈ 4.15 s/step over ≈ 1.1 M
/// interactions → ≈ 3.8 µs each.
pub const MOLDYN_PAIR_US: f64 = 3.8;

/// moldyn: testing one candidate pair during the O(N²/2) interaction-list
/// rebuild. Calibration: the per-rebuild delta in the sequential times is
/// ≈ 100 s over 16384²/2 pair tests → 0.75 µs.
pub const MOLDYN_PAIRTEST_US: f64 = 0.75;

/// moldyn: integrating one molecule's position from its force.
pub const MOLDYN_UPDATE_US: f64 = 0.4;

/// nbf: one partner interaction. Calibration: 78.3 s / 10 steps /
/// (65536×100) pairs ≈ 1.19 µs (and 32×1024 then gives 39 s ≈ the
/// paper's 39.1 s).
pub const NBF_PAIR_US: f64 = 1.19;

/// nbf: per-molecule position update.
pub const NBF_UPDATE_US: f64 = 0.15;

/// Zeroing one f64 of a private accumulation array.
pub const ZERO_US: f64 = 0.008;

#[inline]
pub fn t(us_per: f64, count: usize) -> SimTime {
    SimTime::from_us(us_per * count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moldyn_seq_calibration_reproduces_paper_scale() {
        // 40 steps × 1.09M pairs × 3.8µs + one rebuild ≈ 267 s.
        let force_phase = t(MOLDYN_PAIR_US, 1_090_000 * 40);
        let rebuild = t(MOLDYN_PAIRTEST_US, 16384 * 16384 / 2);
        let total = (force_phase + rebuild).as_secs_f64();
        assert!((230.0..300.0).contains(&total), "{total}");
        // Extra rebuilds move it by ~100 s, as in Table 1's seq column.
        assert!((90.0..115.0).contains(&rebuild.as_secs_f64()));
    }

    #[test]
    fn nbf_seq_calibration_reproduces_paper_scale() {
        let t64 = t(NBF_PAIR_US, 65536 * 100 * 10).as_secs_f64();
        let t32 = t(NBF_PAIR_US, 32768 * 100 * 10).as_secs_f64();
        assert!((70.0..90.0).contains(&t64), "{t64}");
        assert!((35.0..45.0).contains(&t32), "{t32}");
    }
}
