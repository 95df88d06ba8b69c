//! Diff the per-variant message totals between two committed bench
//! snapshots — the golden-count regression gate for `make bench` / CI.
//!
//! ```text
//! cargo run --release -p bench --bin bench_diff              # the two newest snapshots
//! cargo run --release -p bench --bin bench_diff -- OLD NEW   # explicit files
//! ```
//!
//! With no arguments it diffs the two highest-numbered `BENCH_<N>.json`
//! files in the current directory, older first.
//!
//! Message totals are counted in-simulation, so they are exactly
//! reproducible: any drift between snapshots means a protocol change.
//! That is allowed — but only *deliberately*, with `golden_counts.rs`
//! and the committed snapshot updated in the same change. This tool
//! exits non-zero when the totals moved, so an accidental protocol
//! regression cannot hide inside a benchmark refresh.
//!
//! One wall-clock number is additionally gated, one-sided:
//! `serve_quick_grid.cells_per_sec` (the end-to-end throughput the
//! parallel hot paths exist to serve) must not fall below the old
//! snapshot's median by more than a noise band — the larger of 6× the
//! old snapshot's recorded MAD and half the old median, so the gate
//! survives three-round jitter *and* a CI host slower than the machine
//! that committed the snapshot, while an actual hot-path regression
//! (serialized inspector, lost bitmap planner) still trips it.
//! Speedups always pass. Every other wall-clock section (`benches_ns`,
//! percentiles) stays machine-dependent and deliberately ignored.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `app -> variant -> messages`, scraped from a snapshot's
/// `"message_totals"` section (format written by `bench_json`).
type Totals = BTreeMap<String, BTreeMap<String, u64>>;

fn parse_totals(text: &str) -> Totals {
    let mut totals = Totals::new();
    let Some(start) = text.find("\"message_totals\"") else {
        return totals;
    };
    let Some(end) = text[start..].find('}').map(|_| {
        // The section closes at the first line that is exactly "  },"
        // or "  }" — every app row's braces sit on one line.
        let tail = &text[start..];
        let mut depth = 0usize;
        let mut idx = 0usize;
        for (i, c) in tail.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        idx = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        start + idx
    }) else {
        return totals;
    };
    for line in text[start..end].lines() {
        let line = line.trim();
        // `"label": { "tag": N, "tag": N, ... },`
        let Some((label, rest)) = line.split_once(": {") else {
            continue;
        };
        let label = label.trim_matches(|c| c == '"' || c == ' ');
        let mut row = BTreeMap::new();
        for cell in rest.trim_end_matches(['}', ',', ' ']).split(',') {
            if let Some((tag, n)) = cell.split_once(':') {
                let tag = tag.trim().trim_matches('"');
                if let Ok(n) = n.trim().parse::<u64>() {
                    row.insert(tag.to_string(), n);
                }
            }
        }
        if !row.is_empty() {
            totals.insert(label.to_string(), row);
        }
    }
    totals
}

/// Scrape one top-level-ish numeric field (first occurrence) from a
/// snapshot. Returns `None` when the key is absent — older snapshots
/// predate `cells_per_sec_mad`, and the gate degrades gracefully.
fn parse_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The one-sided throughput gate (see module docs). Returns an error
/// line when the new snapshot's serve throughput regressed beyond the
/// noise band, `Ok(None)` when either snapshot lacks the field.
fn check_cells_per_sec(old_text: &str, new_text: &str) -> Result<Option<String>, String> {
    let (Some(was), Some(now)) = (
        parse_number(old_text, "cells_per_sec"),
        parse_number(new_text, "cells_per_sec"),
    ) else {
        return Ok(None);
    };
    let mad = parse_number(old_text, "cells_per_sec_mad").unwrap_or(0.0);
    let band = (6.0 * mad).max(0.5 * was);
    if now + band < was {
        return Err(format!(
            "cells_per_sec regressed: {was:.2} -> {now:.2} (allowed noise band {band:.2})"
        ));
    }
    Ok(Some(format!(
        "cells_per_sec {was:.2} -> {now:.2} within band {band:.2}"
    )))
}

/// The two highest-numbered `BENCH_<N>.json` names among `names`,
/// older first. `N` compares as a number, so `BENCH_10` is newer than
/// `BENCH_9` (a lexicographic sort would say the opposite).
fn latest_pair(names: impl IntoIterator<Item = String>) -> Option<(String, String)> {
    let mut numbered: Vec<(u64, String)> = names
        .into_iter()
        .filter_map(|name| {
            let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()?;
            Some((n, name))
        })
        .collect();
    numbered.sort_unstable();
    let new = numbered.pop()?.1;
    let old = numbered.pop()?.1;
    Some((old, new))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (old_path, new_path) = match args.as_slice() {
        [] => {
            let names = std::fs::read_dir(".")
                .into_iter()
                .flatten()
                .flatten()
                .filter_map(|e| e.file_name().into_string().ok());
            match latest_pair(names) {
                Some(pair) => pair,
                None => {
                    eprintln!("bench_diff: fewer than two BENCH_<N>.json files here");
                    return ExitCode::FAILURE;
                }
            }
        }
        [old, new] => (old.clone(), new.clone()),
        _ => {
            eprintln!("usage: bench_diff [OLD.json NEW.json]");
            return ExitCode::FAILURE;
        }
    };
    let old_text = match std::fs::read_to_string(&old_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_diff: cannot read {old_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new_text = match std::fs::read_to_string(&new_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_diff: cannot read {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let old = parse_totals(&old_text);
    let new = parse_totals(&new_text);
    if old.is_empty() || new.is_empty() {
        eprintln!("bench_diff: no message_totals section in one of the snapshots");
        return ExitCode::FAILURE;
    }

    let mut drift = 0usize;
    for (app, old_row) in &old {
        let Some(new_row) = new.get(app) else {
            println!("bench_diff: {app}: present in {old_path}, missing from {new_path}");
            drift += 1;
            continue;
        };
        for (tag, &was) in old_row {
            let now = new_row.get(tag).copied();
            if now != Some(was) {
                println!(
                    "bench_diff: {app}/{tag}: {was} -> {}",
                    now.map_or("missing".to_string(), |n| n.to_string())
                );
                drift += 1;
            }
        }
    }

    match check_cells_per_sec(&old_text, &new_text) {
        Ok(Some(line)) => println!("bench_diff: {line}  ✓"),
        Ok(None) => println!("bench_diff: no cells_per_sec in both snapshots; throughput gate skipped"),
        Err(e) => {
            println!("bench_diff: {e}");
            drift += 1;
        }
    }

    if drift == 0 {
        println!(
            "bench_diff: message totals identical across {} apps ({old_path} vs {new_path})  ✓",
            old.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "\nbench_diff: {drift} per-variant totals drifted. Protocol counts are\n\
             exact simulation artifacts: if this change is deliberate, update\n\
             crates/apps/tests/golden_counts.rs and commit the refreshed snapshot\n\
             in the same change; if not, a protocol regression slipped in."
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::latest_pair;

    #[test]
    fn latest_pair_orders_snapshot_numbers_numerically() {
        let names = ["BENCH_9.json", "README.md", "BENCH_10.json", "BENCH_8.json", "BENCH_x.json"];
        assert_eq!(
            latest_pair(names.map(String::from)),
            Some(("BENCH_9.json".into(), "BENCH_10.json".into()))
        );
        assert_eq!(latest_pair(["BENCH_10.json".to_string()]), None);
    }
}
