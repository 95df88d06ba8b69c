# Tier-1 verification and common entry points. CI (.github/workflows/ci.yml)
# runs the same commands; `make tier1` is the local equivalent.

.PHONY: tier1 build test clippy bench examples tables soak synth churn serve trace clean

tier1: build test

build:
	cargo build --release

test:
	cargo test -q

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Microbenchmarks + the committed machine-readable snapshot: the shim
# appends one JSON line per bench to CRITERION_JSON; bench_json merges
# those with the in-simulation message counts (plus three serve rounds
# over the quick grid — median cells/sec + MAD — and the fixed cells'
# stall attribution) into BENCH_10.json, and bench_diff then gates the
# per-variant message totals (exact) and the serve throughput
# (one-sided, MAD-banded) against the previous snapshot: with no
# arguments, bench_diff diffs the two highest-numbered BENCH_<N>.json
# files (N compared as a number). Protocol counts may only move
# together with golden_counts.rs.
bench:
	rm -f target/criterion.jsonl
	CRITERION_JSON=$(CURDIR)/target/criterion.jsonl cargo bench
	CRITERION_JSON=$(CURDIR)/target/criterion.jsonl cargo run --release -p bench --bin bench_json
	cargo run --release -p bench --bin bench_diff

examples:
	cargo run --release --example quickstart
	cargo run --release --example adaptive
	cargo run --release --example moldyn -- --quick
	cargo run --release --example nbf -- --quick
	cargo run --release --example synth
	cargo run --release --example umesh
	cargo run --release --example compiler_pipeline
	cargo run --release --example validate_interface

# Paper tables at quick scale (drop --quick for the paper's exact sizes).
tables:
	cargo run --release -p bench --bin table1 -- --quick
	cargo run --release -p bench --bin table2 -- --quick
	cargo run --release -p bench --bin table_adapt -- --quick
	cargo run --release -p bench --bin table_synth -- --quick
	cargo run --release -p bench --bin overhead1p -- --quick
	cargo run --release -p bench --bin figures
	cargo run --release -p bench --bin ablation -- --quick

# The full synthetic scenario grid at paper scale (minutes; the --quick
# form runs in seconds and is part of `make tables` and CI soak).
synth:
	cargo run --release -p bench --bin table_synth

# The churn harness at paper scale: the grid's six regime-break /
# rebalance cells plus the lossy-link section, each bounded by an
# in-binary assertion (probe budget, bitwise-under-loss, stall
# conservation with the Retry category). The --quick form is part of
# `make soak` and CI; nightly runs this full-scale form.
churn:
	cargo run --release -p bench --bin table_churn

# The throughput service at quick scale: 200 jobs over the 30-cell grid
# on a work-stealing pool, every job bitwise-checked against cold
# goldens (~20 s here). Drop --quick for the nightly 60 s window at
# paper scale.
serve:
	cargo run --release -p bench --bin table_serve -- --quick

# The deterministic-tracing acceptance harness: one synth cell's
# six-variant matrix traced twice, asserting in-binary that the trace
# JSON is byte-identical across passes, well-formed, and that every
# processor's stall categories sum exactly to its final simulated
# clock. Part of `make soak` and CI.
trace:
	cargo run --release -p bench --bin table_trace -- --quick

# Nightly-style depth: high-case-count property tests (failures print a
# PROPTEST_SEED for exact replay and a shrunk minimal input) + the
# adaptive, scenario-matrix, and serve acceptance smokes.
soak:
	PROPTEST_CASES=512 cargo test -q -p chaos -p dsm -p adapt
	PROPTEST_CASES=96 cargo test -q -p synth
	PROPTEST_CASES=256 cargo test -q -p serve
	cargo run --release -p bench --bin table_adapt -- --quick
	cargo run --release -p bench --bin table_synth -- --quick
	cargo run --release -p bench --bin table_churn -- --quick
	cargo run --release -p bench --bin table_serve -- --quick
	cargo run --release -p bench --bin table_trace -- --quick

clean:
	cargo clean
