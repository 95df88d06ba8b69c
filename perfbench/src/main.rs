//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-small --seed 2024 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `grid-small`, `grid-p64`, `apps` (see `README.md`). With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics and writes a layer table and spans
//! under `perfbench/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero when any job failed or any output check did not hold.

mod cells;
mod check;
mod endtoend;
mod layers;
mod stats;

use cells::{Kind, DEFAULT_SEED};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(bad("grid-small, grid-p64 or apps"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <grid-small|grid-p64|apps> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let (ledger, metrics) = if args.trace {
        layers::run(args.kind, args.seed, args.seconds)
    } else {
        endtoend::run(args.kind, args.seed, args.seconds)
    };
    println!("{}", check::result_line(&ledger, &metrics));
    if !check::correct(&ledger, &metrics) {
        eprintln!(
            "perfbench: {} of {} jobs failed, {} check(s) did not hold",
            ledger.failed,
            ledger.attempted,
            ledger.problems.len()
        );
        std::process::exit(1);
    }
}
