// Command benchmark is the repository's end-to-end benchmark: one
// single-goroutine program that runs a named workload against the
// simulator's internal packages for a fixed host time and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from a separate run in which the benchmark times its calls into each
// layer (see trace.go). Run it through run.sh, which builds it from the
// checkout's sources; README.md describes the workloads and metrics.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// defaultSeed is the seed the golden digests were recorded with.
const defaultSeed = 1

// profileSeed builds every generator's sequence-length library, as the
// experiment suite's default does.
const profileSeed = 0xA11CE

// benchWorkload is one input set the benchmark runs. Its inputs are a fixed
// list of ops generated from the seed; the runner cycles through them
// until the run's host time is spent, so simulated results never depend
// on host speed.
type benchWorkload interface {
	// ops is the number of distinct ops in one pass over the inputs.
	ops() int
	// block is the number of consecutive ops that share one set-up.
	block() int
	// setup builds fresh state (generator, server) for the block that
	// starts at op k. Caches are never pre-warmed: each set-up pays what
	// a fresh invocation pays.
	setup(k int) error
	// run executes op k, the timed part, and returns how many simulated
	// requests it completed.
	run(k int, c opCtx) (int, error)
	// finish checks and records the op that run just executed, outside
	// the timing, and returns a digest of its simulated outcome; every
	// later pass over the same inputs must reproduce it.
	finish(k int, c opCtx) (uint64, error)
	// simulated returns the workload's simulated metrics over the
	// first pass.
	simulated() simMetrics
	// check runs the identity checks against the executors users run.
	check() error
	// layers adds the workload's own per-layer metrics.
	layers(m metricSet)
}

// simMetrics are the model's outputs. They are exact for a seed and
// serve as identity guards, not as accuracy claims: the model is not
// validated against hardware.
type simMetrics struct {
	antt, sla, latP50, latP99 float64
	// stp is PREMA's system throughput (paper-mix only) and slo the
	// 8 ms SLO-violation share (hetero-chaos only); zero elsewhere.
	stp, slo float64
}

// bench is one benchmark run's shared context.
type bench struct {
	seed uint64
	npu  npu.Config
	sch  sched.Config

	// submitNS holds the host time of every NodeSession.Submit call.
	submitNS []float64
	// lc gathers the per-layer counts of a traced run.
	lc layerCounters
}

func newBench(seed uint64) *bench {
	return &bench{seed: seed, npu: npu.DefaultConfig(), sch: sched.DefaultConfig()}
}

func (b *bench) newGenerator() (*workload.Generator, error) {
	return workload.NewGenerator(b.npu, profileSeed)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric. A value that could not be computed (no samples,
// a zero denominator) reads 0, so the result line always encodes.
func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper-mix, serve-overload or hetero-chaos")
	seed := flag.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := flag.Int("seconds", 30, "host seconds the timed phase runs for")
	traceFlag := flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end run")
	root := flag.String("root", ".", "checkout root: span dumps go under its .bench_build directory")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	b := newBench(*seed)
	w, err := newWorkload(*name, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	host := fingerprint(*root)
	if line, err := json.Marshal(map[string]any{"host": host}); err == nil {
		fmt.Println(string(line))
	}

	r := &runner{b: b, w: w, seconds: time.Duration(*seconds) * time.Second, traced: traced}
	r.loop()
	rssMB := peakRSSMB()

	correct := r.failed == 0
	fail := func(format string, args ...any) {
		correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
	if err := w.check(); err != nil {
		fail("%s identity check: %v", *name, err)
	}
	if *seed == defaultSeed {
		if got, want := r.passDigest(), goldenDigest[*name]; got != want {
			fail("%s: digest %#x of the simulated results, golden digest %#x", *name, got, want)
		}
	}

	sim := w.simulated()
	opMS := make([]float64, len(r.opNS))
	for i, ns := range r.opNS {
		opMS[i] = ns / 1e6
	}
	submitP50, submitP99 := 0.0, 0.0
	if len(b.submitNS) > 0 {
		submitP50 = stats.Percentile(b.submitNS, 50) / 1e3
		submitP99 = stats.Percentile(b.submitNS, 99) / 1e3
	}
	e2e := metricSet{}
	e2e.set("setup_s", "s", stats.Percentile(r.setupNS, 50)/1e9)
	e2e.set("req_per_s", "req/s", ratio(float64(r.requests), r.wall.Seconds()))
	e2e.set("run_ms_p50", "ms", stats.Percentile(opMS, 50))
	e2e.set("run_ms_p90", "ms", stats.Percentile(opMS, 90))
	e2e.set("peak_rss_mb", "MB", rssMB)
	e2e.set("alloc_kb_per_req", "KB/req", float64(r.allocBytes)/1024/float64(max(r.requests, 1)))
	e2e.set("antt", "ratio", sim.antt)
	e2e.set("sla_viol_frac", "fraction", sim.sla)
	e2e.set("lat_ms_p50", "ms", sim.latP50)
	e2e.set("lat_ms_p99", "ms", sim.latP99)
	// Metrics that do not exist on every workload, or that read zero
	// on a healthy run, are reported with the per-layer ones.
	extra := metricSet{}
	extra.set("submit_us_p50", "us", submitP50)
	extra.set("submit_us_p99", "us", submitP99)
	extra.set("stp", "ratio", sim.stp)
	extra.set("slo_viol_frac", "fraction", sim.slo)
	extra.set("error_rate", "fraction", float64(r.failed)/float64(max(r.attempted, 1)))

	fmt.Printf("workload %s seed %d: sent %d, succeeded %d, failed %d ops; %d full passes of %d ops; %d set-ups\n",
		*name, *seed, r.attempted, r.attempted-r.failed, r.failed, r.passes, w.ops(), len(r.setupNS))
	printMetrics(e2e)
	printMetrics(extra)

	out := e2e
	if traced {
		out = metricSet{}
		for _, d := range perLayer {
			out.set(d.name, d.unit, 0)
		}
		for n, m := range extra {
			out[n] = m
		}
		if err := r.traceMetrics(out); err != nil {
			fail("trace: %v", err)
		}
		w.layers(out)
		path := filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fail("writing spans: %v", err)
		} else if err := trc.dump(path, map[string]any{"host": host, "workload": *name, "seed": *seed}); err != nil {
			fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %s (%d spans)\n", path, len(trc.spans))
		}
		printMetrics(out)
	}

	line, err := json.Marshal(result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func newWorkload(name string, b *bench) (benchWorkload, error) {
	switch name {
	case "paper-mix":
		return newPaperMix(b), nil
	case "serve-overload":
		return newServeOverload(b), nil
	case "hetero-chaos":
		return newHeteroChaos(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: paper-mix, serve-overload, hetero-chaos)", name)
}

// runner drives the closed host loop: each op starts as soon as the
// previous one returns.
type runner struct {
	b       *bench
	w       benchWorkload
	seconds time.Duration
	traced  bool

	attempted, failed int
	requests          int
	passes            int
	wall              time.Duration
	allocBytes        uint64
	opNS, setupNS     []float64
	// first holds each op's digest from the first pass.
	first []uint64

	// A traced run alternates untraced and traced passes (see loop):
	// baseNS holds each input's latest untraced op time, and overhead
	// each traced op's time over it, minus one.
	baseNS     []float64
	overhead   []float64
	tracedOps  int
	tracedWall int64
	// gc sums the GC's cycles and CPU time over the traced ops.
	gc gcSample
}

// loop runs ops until the host time is spent and at least one full pass
// (two in a traced run) is done. A traced run alternates untraced and
// traced passes: the first pass is the untraced reference for the
// simulated results, and each traced op's overhead is taken against the
// same input's latest untraced time.
func (r *runner) loop() {
	n := r.w.ops()
	r.first = make([]uint64, n)
	minOps := n
	if r.traced {
		minOps = 2 * n
		r.baseNS = make([]float64, n)
	}
	var setupErr error
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < r.seconds; i++ {
		k, pass := i%n, i/n
		c := opCtx{first: pass == 0, traced: r.traced && pass%2 == 1, count: r.traced && pass == 1}
		trc.on = c.traced
		if k == n-1 {
			r.passes++
		}
		r.attempted++
		if k%r.w.block() == 0 || setupErr != nil {
			// Collect the previous block's garbage first, so the
			// process's peak RSS is one block's working set and not an
			// accident of when the collector last ran.
			runtime.GC()
			s0 := time.Now()
			setupErr = r.w.setup(k)
			r.setupNS = append(r.setupNS, float64(time.Since(s0)))
		}
		if setupErr != nil {
			r.failed++
			fmt.Printf("op %d: set-up: %v\n", i, setupErr)
			continue
		}

		var gc0 gcSample
		if c.traced {
			gc0 = readGC()
		}
		a0 := allocBytes()
		root := trc.beginOp(i)

		t0 := time.Now()
		reqs, err := r.w.run(k, c)
		d := time.Since(t0)
		trc.end(root)
		r.allocBytes += allocBytes() - a0
		r.wall += d
		r.opNS = append(r.opNS, float64(d))
		switch {
		case c.traced:
			gc := readGC()
			r.gc.cycles += gc.cycles - gc0.cycles
			r.gc.cpu += gc.cpu - gc0.cpu
			r.tracedOps++
			r.tracedWall += int64(d)
			if base := r.baseNS[k]; base > 0 {
				r.overhead = append(r.overhead, float64(d)/base-1)
			}
		case r.traced:
			r.baseNS[k] = float64(d)
		}
		if err != nil {
			r.failed++
			fmt.Printf("op %d: %v\n", i, err)
			continue
		}
		r.requests += reqs

		digest, err := r.w.finish(k, c)
		switch {
		case err != nil:
			r.failed++
			fmt.Printf("CHECK FAILED: op %d: %v\n", i, err)
		case pass == 0:
			r.first[k] = digest
		case digest != r.first[k]:
			r.failed++
			fmt.Printf("CHECK FAILED: op %d (input %d, pass %d): simulated digest %#x, first pass %#x\n",
				i, k, pass, digest, r.first[k])
		}
		if c.count && k == n-1 {
			r.b.lc.picks = trc.picks // the count pass is the first traced pass
		}
	}
	trc.on = false
}

// passDigest folds the first pass's op digests into one.
func (r *runner) passDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range r.first {
		binary.LittleEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// traceMetrics derives the span-timed per-layer metrics. Times and
// allocations are per pass over the inputs (their totals over the traced
// ops, scaled by ops per pass over traced ops), so runs of different
// lengths compare; counts are taken over exactly one traced pass.
func (r *runner) traceMetrics(m metricSet) error {
	if err := trc.checkSums(); err != nil {
		return err
	}
	self := trc.selfTimes()
	fmt.Printf("per-layer self time over %d traced ops (%.3f s):\n", r.tracedOps, float64(r.tracedWall)/1e9)
	fmt.Print(layerTable(self, r.tracedWall))
	total := make(map[string]int64)
	for _, s := range trc.spans {
		total[s.Name] += s.Dur
	}
	perPass := float64(r.w.ops()) / float64(max(r.tracedOps, 1))
	sec := func(ns int64) float64 { return float64(ns) / 1e9 * perPass }
	mb := func(bytes uint64) float64 { return float64(bytes) / (1 << 20) * perPass }
	lc := &r.b.lc

	m.set("workload.generate_s", "s", sec(total["workload.generate"]))
	m.set("workload.generate_alloc_mb", "MB", mb(lc.generateAlloc))
	m.set("compiler.programs_new", "count", float64(lc.programsNew))
	m.set("compiler.instrs_new", "count", float64(lc.instrsNew))
	m.set("compiler.program_mb_new", "MB", float64(lc.instrsNew)*instrBytes/(1<<20))
	m.set("compiler.cache_hit_frac", "fraction", ratio(float64(lc.tasksGenerated-lc.programsNew), float64(lc.tasksGenerated)))

	// paper-mix calls sim.Run directly; the serving workloads reach it
	// through NodeSession.Drain, whose span is the simulator's time
	// there (see README.md).
	simRun := total["sim.run"] + total["serving.drain"]
	wakes := lc.wakes
	if wakes == 0 {
		wakes = lc.picks // the serving layer does not expose sim.Result.Wakes
	}
	m.set("sim.run_s", "s", sec(simRun))
	m.set("sim.self_s", "s", sec(simRun-total["sched.pick"]))
	m.set("sim.wakes", "count", float64(wakes))
	m.set("sim.ns_per_wake", "ns", sec(simRun)*1e9/float64(max(wakes, 1)))
	m.set("sim.alloc_mb", "MB", mb(lc.simAlloc+lc.drainAlloc))

	m.set("sched.picks", "count", float64(lc.picks))
	m.set("sched.pick_s", "s", sec(total["sched.pick"]))
	m.set("sched.pick_ns_mean", "ns", ratio(float64(total["sched.pick"]), float64(trc.picks)))
	m.set("sched.ready_mean", "tasks", ratio(float64(trc.readySum), float64(trc.picks)))
	m.set("sched.ready_max", "tasks", float64(trc.readyMax))

	m.set("serving.open_s", "s", sec(total["serving.open"]))
	m.set("serving.submit_s", "s", sec(total["serving.submit"]))
	m.set("serving.submit_alloc_mb", "MB", mb(lc.submitAlloc))
	m.set("serving.advance_s", "s", sec(total["serving.advance"]))
	m.set("serving.drain_s", "s", sec(total["serving.drain"]))
	m.set("serving.drain_alloc_mb", "MB", mb(lc.drainAlloc))
	m.set("telemetry.export_s", "s", sec(total["telemetry.export"]))

	m.set("go.gc_cycles", "count", float64(r.gc.cycles)*perPass)
	m.set("go.gc_cpu_s", "s", r.gc.cpu*perPass)
	m.set("bench.unattributed_s", "s", sec(self[rootSpan]))
	m.set("bench.trace_overhead_frac", "fraction", stats.Percentile(r.overhead, 50))
	fmt.Printf("bench.trace_overhead_frac %.4f (median over %d traced ops against the same inputs untraced)\n",
		stats.Percentile(r.overhead, 50), len(r.overhead))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type gcSample struct {
	cycles uint64
	cpu    float64
}

// readGC reads the completed GC cycles and the GC's estimated CPU time.
func readGC() gcSample {
	s := [2]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s[:])
	return gcSample{s[0].Value.Uint64(), s[1].Value.Float64()}
}

// allocBytes reads the cumulative Go heap allocation.
func allocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}
