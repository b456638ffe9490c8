#!/bin/sh
# bench.sh — serving-path performance tracking in one command: runs the
# streaming hot-path benchmarks (NodeSession submit throughput, router
# decide cost, autoscale tick overhead, end-to-end chaos-scenario
# replay, control-plane snapshot under load) and emits
# BENCH_serving.json so
# the perf trajectory is diffable from PR to PR. The derived
# "autoscale-tick-overhead" entry is the per-request ns delta between
# the autoscaled and the plain submit path; "trace-overhead" is the
# same delta (plus percentage) for the telemetry-attached path, which
# the telemetry layer budgets at no more than 15%. A "host" block
# records the CPU model, nproc and Go version the rows were measured on.
set -eu
cd "$(dirname "$0")"

out=BENCH_serving.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# No pipelines around go test: a pipe would launder its exit status
# through tee and set -e would let a failed benchmark run emit an
# empty-but-valid JSON file.
run_bench() {
	go test -run '^$' -bench "$1" -benchtime=1s "$2" >> "$raw" 2>&1 ||
		{ cat "$raw" >&2; echo "bench.sh: $2 benchmarks failed" >&2; exit 1; }
}
run_bench 'BenchmarkNodeSessionSubmit' ./internal/serving
run_bench 'BenchmarkRouterDecide|BenchmarkRouteLeastQueued/pruned-8000' ./internal/cluster
run_bench 'BenchmarkScenarioReplay' ./internal/scenario
run_bench 'BenchmarkPlaneSnapshotUnderLoad' ./internal/ctl
cat "$raw"

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" \
	-v cpu="${cpu:-unknown}" -v nproc="$(nproc)" '
/^Benchmark/ {
	name = $1
	iters = $2
	# Normalize away only the GOMAXPROCS suffix on the top-level submit
	# benchmarks (sub-benchmark names like pruned-8000 keep theirs) so
	# the derived overhead row finds them on any machine.
	norm = name
	if (norm ~ /^BenchmarkNodeSessionSubmit(Autoscale|Hetero|Traced)?(-[0-9]+)?$/)
		sub(/-[0-9]+$/, "", norm)
	metrics = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		v = $i; u = $(i + 1)
		metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), u, v)
		vals[norm "|" u] = v
	}
	rows[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, %s}", name, iters, metrics)
}
END {
	plain = vals["BenchmarkNodeSessionSubmit|ns/req"]
	scaled = vals["BenchmarkNodeSessionSubmitAutoscale|ns/req"]
	if (plain != "" && scaled != "")
		rows[n++] = sprintf("    {\"name\": \"autoscale-tick-overhead\", \"iterations\": 0, \"ns/req\": %.2f}",
			scaled - plain)
	traced = vals["BenchmarkNodeSessionSubmitTraced|ns/req"]
	if (plain != "" && traced != "")
		rows[n++] = sprintf("    {\"name\": \"trace-overhead\", \"iterations\": 0, \"ns/req\": %.2f, \"pct\": %.2f}",
			traced - plain, (traced - plain) / plain * 100)
	gsub(/["\\]/, "", cpu)
	printf "{\n  \"suite\": \"serving\",\n  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"cpu_model\": \"%s\", \"nproc\": %d, \"go_version\": \"%s\"},\n", cpu, nproc, gover
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
	printf "  ]\n}\n"
}' "$raw" > "$out"

echo "bench.sh: wrote $out"
