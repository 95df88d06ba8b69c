//! Run reports: the numbers that become the rows of Tables 1 and 2.

use simnet::{NetReport, PolicyReport, SimTime};

use crate::workload::Variant;

/// One table row (plus the in-text extras the paper quotes).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The variant that produced this row.
    pub system: Variant,
    /// Simulated execution time of the timed region.
    pub time: SimTime,
    /// Matching sequential time (for the speedup column).
    pub seq_time: SimTime,
    pub messages: u64,
    pub bytes: u64,
    /// Total per-processor-average seconds spent in the CHAOS inspector
    /// *within the timed region* (the paper's tables exclude the initial
    /// inspector; this field captures re-runs after list rebuilds).
    pub inspector_s: f64,
    /// Per-processor-average seconds the inspector cost *outside* the
    /// timed region (the paper quotes these in the text).
    pub untimed_inspector_s: f64,
    /// Per-processor-average seconds Validate spent scanning the
    /// indirection array (both regions).
    pub validate_scan_s: f64,
    /// Physics checksum (Σ|x| at the end), for cross-variant comparison.
    pub checksum: f64,
    /// Policy-decision counters of the timed region — present only for
    /// the adaptive build (`None` everywhere else).
    pub policy: Option<PolicyReport>,
    /// Full per-kind message/byte breakdown of the timed region, when
    /// the runner captured one (parallel variants via [`crate::harness::Capture`];
    /// `None` for sequential runs, which exchange nothing). The serve
    /// driver folds these with [`NetReport::merge`] so concurrent cells
    /// accumulate per-variant totals without a global lock.
    pub net: Option<NetReport>,
}

impl RunReport {
    pub fn speedup(&self) -> f64 {
        self.seq_time.as_secs_f64() / self.time.as_secs_f64().max(1e-12)
    }

    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    /// Paper-style table row: `label  time  speedup  messages  MB`.
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:>9.1} {:>8.1} {:>10} {:>9.0}",
            self.system.label(),
            self.time.as_secs_f64(),
            self.speedup(),
            self.messages,
            self.megabytes()
        )
    }
}

/// Print a paper-style table header.
pub fn table_header() -> String {
    format!(
        "{:<14} {:>9} {:>8} {:>10} {:>9}",
        "System", "Time(s)", "Speedup", "Messages", "Data(MB)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_row_format() {
        let r = RunReport {
            system: Variant::Chaos,
            time: SimTime::from_us(10e6),
            seq_time: SimTime::from_us(60e6),
            messages: 1234,
            bytes: 5_000_000,
            inspector_s: 0.0,
            untimed_inspector_s: 1.0,
            validate_scan_s: 0.0,
            checksum: 1.0,
            policy: None,
            net: None,
        };
        assert!((r.speedup() - 6.0).abs() < 1e-9);
        assert!((r.megabytes() - 5.0).abs() < 1e-12);
        let row = r.row();
        assert!(row.contains("CHAOS"));
        assert!(row.contains("1234"));
    }
}
