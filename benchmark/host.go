package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// goldenDigest is each workload's simulated-result digest at the default
// seed. A change that alters any simulated result under the default
// seed fails the run; a host-only optimisation must leave these alone.
var goldenDigest = map[string]uint64{
	"paper-mix":      0x5f5d453953ccf070,
	"serve-overload": 0x57accb7e05ac484f,
	"hetero-chaos":   0x208a42a107b920a8,
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports. A metric
// whose layer a workload does not reach reads 0.
var perLayer = []layerMetric{
	{"workload.generate_s", "s"}, {"workload.generate_alloc_mb", "MB"},
	{"compiler.programs_new", "count"}, {"compiler.instrs_new", "count"},
	{"compiler.program_mb_new", "MB"}, {"compiler.cache_hit_frac", "fraction"},
	{"sim.run_s", "s"}, {"sim.self_s", "s"}, {"sim.wakes", "count"},
	{"sim.ns_per_wake", "ns"}, {"sim.alloc_mb", "MB"},
	{"sched.picks", "count"}, {"sched.pick_s", "s"}, {"sched.pick_ns_mean", "ns"},
	{"sched.ready_mean", "tasks"}, {"sched.ready_max", "tasks"},
	{"sched.wait_ms_mean", "ms"},
	{"preempt.checkpoints", "count"}, {"preempt.kills", "count"}, {"preempt.drains", "count"},
	{"preempt.saved_mb", "MB"}, {"preempt.latency_us_mean", "us"}, {"npu.wasted_ms", "ms"},
	{"serving.open_s", "s"}, {"serving.submit_s", "s"}, {"serving.submit_alloc_mb", "MB"},
	{"serving.advance_s", "s"}, {"serving.drain_s", "s"}, {"serving.drain_alloc_mb", "MB"},
	{"serving.backends", "count"}, {"serving.stretched", "count"}, {"serving.reclaimed", "count"},
	{"cluster.decides", "count"}, {"cluster.decide_ns_mean", "ns"},
	{"autoscale.ticks", "count"}, {"autoscale.scale_events", "count"},
	{"telemetry.events", "count"}, {"telemetry.export_s", "s"}, {"telemetry.jsonl_mb", "MB"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"},
	{"bench.unattributed_s", "s"}, {"bench.trace_overhead_frac", "fraction"},
	{"submit_us_p50", "us"}, {"submit_us_p99", "us"}, {"stp", "ratio"},
	{"slo_viol_frac", "fraction"}, {"error_rate", "fraction"},
}

// hostInfo fingerprints the machine and the sources a result came from,
// so results from different hosts or trees are not compared blindly.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checkout's git HEAD when it is a git repository,
	// "unknown" otherwise; SourceSHA256 hashes every .go file of the
	// module either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint(root string) hostInfo {
	return hostInfo{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitHead(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves HEAD by reading .git directly, so no git process is
// needed and a checkout without .git reads "unknown".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go file under
// root, skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if _, err := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
