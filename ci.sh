#!/bin/sh
# ci.sh — tier-1 verification in one command: formatting, vet, build,
# the full test suite, and a smoke-run of every example and CLI so
# facade regressions that only break consumers fail here too. Exits
# non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

# Host fingerprint, so a slow or failing run can be read against the
# machine it ran on.
echo "host: nproc=$(nproc) $(go version)"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...

# Domain invariants (determinism, facade boundary, write-once
# registries, must-check errors, no-copy state): the repo must lint
# clean, and the tripwire itself must still trip — a premalint that
# stops flagging the seeded-violation fixture is a silent CI hole.
echo "premalint"
go run ./cmd/premalint ./...
if go run ./cmd/premalint ./internal/lint/testdata/broken >/dev/null 2>&1; then
	echo "premalint: seeded-violation fixture passed the lint — tripwire is broken" >&2
	exit 1
fi

# The streaming node-session paths (per-NPU session backends, the
# shared router, closed-loop injection, autoscaling) are
# concurrency-sensitive: race-check them on every run. The simulator
# core and the worker-pool experiment engine (the most
# concurrency-dense code in the repo) race-check in -short mode — the
# full experiment sweeps blow past go test's timeout under the race
# detector, and the engine/cache race coverage lives in the fast tests.
go test -race ./internal/serving/... ./internal/cluster/... ./internal/autoscale/... ./internal/scenario/... ./internal/ctl/...
go test -race -short ./internal/sim/... ./internal/exp/...

# Coverage-guided smoke: exercise the simulator fuzz target's seed
# corpus plus a short fuzz burst, so invariant regressions surface on
# every run, not only when someone remembers to fuzz. The loop-program
# cursor gets the same treatment against its per-tile reference.
go test -fuzz=FuzzSimInvariants -fuzztime=5s -run '^$' ./internal/sim/
go test -fuzz=FuzzLoopExecution -fuzztime=5s -run '^$' ./internal/npu/

# The examples are the public-API consumers: every one must build and
# run to completion against the current facade.
for ex in examples/*/; do
	echo "smoke: $ex"
	go run "./$ex" >/dev/null
done

# CLI smoke: one cheap invocation per command, exercising the typed
# flag-parsing paths.
echo "smoke: cmd/premasim"
go run ./cmd/premasim -policy PREMA -preemptive -tasks 4 -timeline=false >/dev/null
go run ./cmd/premasim -npus 2 -routing least-work -policy FCFS -tasks 6 >/dev/null
go run ./cmd/premasim -npus 2 -routing least-queued -policy PREMA -preemptive -clients 4 -think 2ms -serve-horizon 150ms >/dev/null
go run ./cmd/premasim -autoscale queue-depth -slo 8ms -min-npus 1 -max-npus 4 -policy FCFS -serve-horizon 150ms >/dev/null
# Scenario smoke: the corpus doubles as a regression suite — every file
# must parse, run and pass its assertions (non-zero exit otherwise).
# .txt is the homogeneous corpus, .scn the heterogeneous-fleet stress
# scenarios.
for scn in scenarios/*.txt scenarios/*.scn; do
	go run ./cmd/premasim -scenario "$scn" >/dev/null
done
go run ./cmd/premasim -scenario scenarios/baseline.txt \
	-report-json "$tmpdir/baseline.json" >/dev/null
grep -q '"source": "scenario"' "$tmpdir/baseline.json"
# Telemetry determinism: a traced run of the heterogeneous stress
# scenario must emit a byte-identical JSONL stream (per-request events
# interleaved with autoscale-tick metric samples) on every replay, even
# under the race detector — the observability layer reads the same
# virtual clock as the scheduler and may never perturb or race it.
trace_ctl() {
	go run -race ./cmd/premasim -scenario scenarios/hetero-stress.scn \
		-trace-jsonl "$tmpdir/trace-$1.jsonl" >/dev/null
}
trace_ctl a
trace_ctl b
cmp "$tmpdir/trace-a.jsonl" "$tmpdir/trace-b.jsonl"
grep -q '"kind":"tick"' "$tmpdir/trace-a.jsonl"
grep -q '"tier":"slow"' "$tmpdir/trace-a.jsonl"

# Control-plane replay: the checked-in command script must run clean at
# time-scale 0 and produce the same transcript and report digest on
# every replay — the live REPL's determinism contract, checked the same
# way the scenario corpus is.
echo "smoke: cmd/premactl"
replay_ctl() {
	go run ./cmd/premactl -script scenarios/cordon-compensate.ctl \
		-timescale 0 -seed 7 -segment 25ms -min-npus 2 -max-npus 4 \
		-load 2 -name cordon-compensate \
		-report-json "$tmpdir/ctl-$1.json" > "$tmpdir/ctl-$1.txt"
}
replay_ctl a
replay_ctl b
cmp "$tmpdir/ctl-a.txt" "$tmpdir/ctl-b.txt"
cmp "$tmpdir/ctl-a.json" "$tmpdir/ctl-b.json"
grep -q '"source": "premactl"' "$tmpdir/ctl-a.json"
echo "smoke: cmd/premazoo"
go run ./cmd/premazoo -config >/dev/null
echo "smoke: cmd/premapredict"
go run ./cmd/premapredict -model CNN-AN >/dev/null
echo "smoke: cmd/premabench"
go run ./cmd/premabench -exp fig7 -runs 2 >/dev/null

# Benchmark module smoke: benchmark/ is its own Go module, outside
# ./..., so nothing above builds it. A change to the exp or serving API
# that breaks it must fail here. Each workload runs for one second and
# exits non-zero on a build failure or an incorrect result.
for w in paper-mix serve-overload hetero-chaos; do
	echo "smoke: benchmark $w"
	bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done

echo "ci.sh: all green"
