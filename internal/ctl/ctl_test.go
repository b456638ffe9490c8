package ctl

// ctl_test.go locks in the control plane's determinism contract under
// the race detector: the same script replays byte-identically
// (transcript and report both), a scripted chaos session is
// stat-identical to the equivalent declarative scenario run, and
// snapshots taken concurrently with a running clock loop never tear.

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/workload"
)

// newServer builds a serving server on the default hardware with the
// suite's fixed workload seed.
func newServer(t testing.TB) *serving.Server {
	t.Helper()
	cfg := npu.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	return serving.NewServer(cfg, sched.DefaultConfig(), gen)
}

// newPlane opens a control plane with a small autoscaled fleet, ready
// for scripted runs at time-scale 0 (no wall-clock dependence).
func newPlane(t testing.TB) *Plane {
	t.Helper()
	p, err := New(newServer(t), Config{
		Node: serving.NodeConfig{
			NPUs:    2,
			Routing: cluster.LeastWork,
			Session: serving.SessionConfig{Policy: "PREMA", Preemptive: true},
			Autoscale: &serving.AutoscaleConfig{
				Scaler: "queue-depth", SLO: 8 * time.Millisecond,
				MinNPUs: 2, MaxNPUs: 4,
			},
		},
		Seed:    7,
		Segment: 25 * time.Millisecond,
		Load:    2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// replayScript exercises most of the vocabulary at fixed virtual
// timestamps; byte-identical replay of everything it prints is the
// property under test.
const replayScript = `
# warm the fleet, disturb it, watch the scaler compensate
@5ms  list
@10ms snapshot
@25ms load 3
@30ms cordon npu1
@40ms snapshot
@60ms uncordon npu1
@70ms get npu0
@80ms report
@90ms time
@100ms quit
`

func TestScriptReplayByteIdentical(t *testing.T) {
	run := func() (string, []byte) {
		p := newPlane(t)
		transcript, err := p.RunScript(replayScript)
		if err != nil {
			t.Fatalf("RunScript: %v", err)
		}
		if !p.Done() {
			t.Fatalf("script with quit left the plane open")
		}
		js, err := p.Report().JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return transcript, js
	}
	t1, j1 := run()
	t2, j2 := run()
	if t1 != t2 {
		t.Errorf("transcripts differ between identical runs:\n--- first\n%s\n--- second\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("report JSON differs between identical runs:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	if !strings.Contains(t1, "cordon npu1 scheduled") {
		t.Errorf("transcript missing cordon acknowledgement:\n%s", t1)
	}
}

// equivScenario and equivScript drive the same virtual timeline: a
// four-segment load ramp with a cordon/uncordon window, on identical
// fleets, scalers and seeds. The scripted session must land on
// statistics identical to the scenario run's.
const equivScenario = `
scenario equivalence
fleet initial=2 min=2 max=4
routing least-work
policy PREMA preemptive
scaler queue-depth slo=8ms
seed 7
segment 25ms
load 2 3 3 1
at 30ms cordon npu1
at 60ms uncordon npu1
`

const equivScript = `
@25ms load 3
@30ms cordon npu1
@60ms uncordon npu1
@75ms load 1
@100ms quit
`

func TestScriptMatchesScenario(t *testing.T) {
	sc, err := scenario.Parse(equivScenario)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rep, err := scenario.Run(newServer(t), sc)
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}
	want := FromScenario(rep)

	p, err := New(newServer(t), Config{
		Node: serving.NodeConfig{
			NPUs:    2,
			Routing: cluster.LeastWork,
			Session: serving.SessionConfig{
				Policy: "PREMA", Preemptive: true,
				Horizon: sc.Horizon(),
			},
			Autoscale: &serving.AutoscaleConfig{
				Scaler: "queue-depth", SLO: 8 * time.Millisecond,
				MinNPUs: 2, MaxNPUs: 4,
			},
		},
		Models:  sc.Models,
		Seed:    7,
		Segment: 25 * time.Millisecond,
		Load:    2,
		Name:    "equivalence",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if _, err := p.RunScript(equivScript); err != nil {
		t.Fatalf("RunScript: %v", err)
	}
	got := p.Report()

	if got.Requests != want.Requests {
		t.Errorf("requests: script %d, scenario %d", got.Requests, want.Requests)
	}
	if got.SpanMS != want.SpanMS {
		t.Errorf("span: script %.4fms, scenario %.4fms", got.SpanMS, want.SpanMS)
	}
	if got.Fleet != want.Fleet {
		t.Errorf("fleet summary: script %+v, scenario %+v", got.Fleet, want.Fleet)
	}
	if got.Latency != want.Latency {
		t.Errorf("latency: script %+v, scenario %+v", got.Latency, want.Latency)
	}
	switch {
	case (got.SLO == nil) != (want.SLO == nil):
		t.Errorf("slo presence: script %v, scenario %v", got.SLO, want.SLO)
	case got.SLO != nil && *got.SLO != *want.SLO:
		t.Errorf("slo: script %+v, scenario %+v", *got.SLO, *want.SLO)
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("timeline length: script %d, scenario %d\nscript:  %+v\nscenario: %+v",
			len(got.Timeline), len(want.Timeline), got.Timeline, want.Timeline)
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Errorf("timeline[%d]: script %+v, scenario %+v", i, got.Timeline[i], want.Timeline[i])
		}
	}
	// The run must actually have exercised the cordon window and traffic.
	if got.Requests == 0 {
		t.Fatalf("equivalence run offered no traffic")
	}
	sawCordon := false
	for _, e := range got.Timeline {
		sawCordon = sawCordon || e.Kind == "cordon"
	}
	if !sawCordon {
		t.Errorf("timeline never recorded the cordon: %+v", got.Timeline)
	}
}

// TestConcurrentSnapshot hammers snapshots and read commands from many
// goroutines while another goroutine advances the clock — the -race
// suite's core case. Every snapshot must be internally consistent
// (taken between virtual steps, never mid-step).
func TestConcurrentSnapshot(t *testing.T) {
	p := newPlane(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Snapshot()
				if len(s.Fleet) == 0 {
					t.Error("snapshot with empty fleet")
					return
				}
				active := 0
				for _, v := range s.Fleet {
					if v.State == "active" {
						active++
					}
				}
				if active != s.Active {
					t.Errorf("snapshot tore: Active %d but %d active rows", s.Active, active)
					return
				}
				if _, err := p.Exec("list"); err != nil && err != errClosed {
					t.Errorf("list: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if _, err := p.Exec("step 2ms"); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := p.Exec("quit"); err != nil {
		t.Fatalf("quit: %v", err)
	}
	if p.Report().Requests == 0 {
		t.Fatalf("stepped run offered no traffic")
	}
}

// TestPaceQuits proves the paced loop serializes with concurrent
// commands and exits cleanly on quit.
func TestPaceQuits(t *testing.T) {
	p, err := New(newServer(t), Config{
		Node: serving.NodeConfig{
			NPUs:    2,
			Routing: cluster.LeastWork,
			Session: serving.SessionConfig{Policy: "PREMA", Preemptive: true},
		},
		Load:      1,
		TimeScale: 500, // 500 virtual seconds per wall second: effectively flat out
		Step:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	done := make(chan error, 1)
	go func() { done <- p.Pace() }()
	for p.NowMS() < 10 {
		p.Snapshot()
	}
	if _, err := p.Exec("quit"); err != nil {
		t.Fatalf("quit: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Pace: %v", err)
	}
	if ms := p.NowMS(); ms < 10 {
		t.Fatalf("paced clock only reached %.2fms", ms)
	}
}

func TestParseScriptErrors(t *testing.T) {
	p := newPlane(t)
	cases := []struct {
		name, src, want string
	}{
		{"empty", "# only comments\n", "empty script"},
		{"no-at", "list\n", "expected \"@<time> <command>\""},
		{"no-command", "@5ms\n", "timestamp without a command"},
		{"bad-stamp", "@later list\n", "bad timestamp"},
		{"rewind", "@10ms list\n@5ms list\n", "rewinds the clock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := p.RunScript(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunScript(%q) error %v, want %q", tc.src, err, tc.want)
			}
		})
	}
}

func TestCommandErrors(t *testing.T) {
	p := newPlane(t)
	cases := []struct {
		cmd, want string
	}{
		{"frobnicate", "unknown command"},
		{"get", "expected one npu<i> argument"},
		{"get gpu0", "expected npu<i>"},
		{"get npu9", "unknown NPU 9"},
		{"cordon npu-1", "bad NPU index"},
		{"slow npu0", "usage: slow"},
		{"slow npu0 x-fast", "bad slow factor"},
		{"slow npu0 xNaN", "slowdown factor"},
		{"slow npu0 xInf", "slowdown factor"},
		{"slow npu0 x1e12", "slowdown factor"},
		{"scale", "usage: scale"},
		{"scale 9", "outside"},
		{"load -1", "bad offered load"},
		{"step backwards extra", "usage: step"},
		{"step -1ms", "bad step duration"},
	}
	for _, tc := range cases {
		if _, err := p.Exec(tc.cmd); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Exec(%q) error %v, want substring %q", tc.cmd, err, tc.want)
		}
	}
	// Errors are recorded on the command log alongside successes.
	recs := p.Commands()
	if len(recs) != len(cases) {
		t.Fatalf("command log has %d records, want %d", len(recs), len(cases))
	}
	for i, rec := range recs {
		if rec.Err == "" {
			t.Errorf("record %d (%q) lost its error", i, rec.Cmd)
		}
	}
	if _, err := p.Exec("quit"); err != nil {
		t.Fatalf("quit: %v", err)
	}
	if _, err := p.Exec("list"); err != errClosed {
		t.Fatalf("command after quit: %v, want errClosed", err)
	}
}

func TestScheduledPastCommandRefused(t *testing.T) {
	p := newPlane(t)
	if _, err := p.Exec("step 20ms"); err != nil {
		t.Fatalf("step: %v", err)
	}
	// Interactive commands execute at the current instant; the stream's
	// own guard still refuses anything that would rewind it.
	if _, err := p.Exec("cordon npu0"); err != nil {
		t.Fatalf("cordon at the current instant: %v", err)
	}
}

func TestHelpListsEveryVerb(t *testing.T) {
	for _, verb := range sortedVerbs() {
		if verb == "help" {
			continue // help does not list itself
		}
		if !strings.Contains(helpText, "\n  "+verb) && !strings.Contains(helpText, "| "+verb) {
			t.Errorf("help text does not document %q", verb)
		}
	}
	p := newPlane(t)
	out, err := p.Exec("help")
	if err != nil || out != helpText {
		t.Fatalf("help: %v (output %d bytes)", err, len(out))
	}
}

func TestManualScaleAndDrain(t *testing.T) {
	p := newPlane(t)
	if _, err := p.Exec("step 10ms"); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := p.Exec("scale 4"); err != nil {
		t.Fatalf("scale up: %v", err)
	}
	s := p.Snapshot()
	if s.Active != 4 {
		t.Fatalf("active after scale 4: %d (fleet %+v)", s.Active, s.Fleet)
	}
	// Drain the newest backend (always active: just added or scaled to).
	last := len(s.Fleet) - 1
	if _, err := p.Exec("drain npu" + strconv.Itoa(last)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s = p.Snapshot()
	if got := s.Fleet[last].State; got != "draining" {
		t.Fatalf("npu%d state after drain: %q", last, got)
	}
	// The manual actions are on the timeline with their notes.
	var kinds []string
	for _, e := range p.Report().Timeline {
		kinds = append(kinds, e.Kind)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "scale") || !strings.Contains(joined, "drain") {
		t.Fatalf("timeline missing manual events: %v", kinds)
	}
}

func TestConfigValidation(t *testing.T) {
	srv := newServer(t)
	node := serving.NodeConfig{
		NPUs: 1, Routing: cluster.LeastWork,
		Session: serving.SessionConfig{Policy: "FCFS"},
	}
	bad := []Config{
		{Node: node, Segment: -time.Millisecond},
		{Node: node, Step: -time.Millisecond},
		{Node: node, TimeScale: -1},
		{Node: node, Load: -0.5},
		{Node: node, Step: time.Nanosecond}, // under one 700MHz cycle
	}
	for i, cfg := range bad {
		if _, err := New(srv, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestNonFiniteLoadRejected: NaN and infinite offered loads used to pass
// the negative-load guard and wedge the next segment's arrivals. A
// script issuing one now fails at that command, promptly.
func TestNonFiniteLoadRejected(t *testing.T) {
	for _, x := range []string{"NaN", "Inf", "+Inf", "nan", "infinity"} {
		t.Run(x, func(t *testing.T) {
			p := newPlane(t)
			start := time.Now()
			_, err := p.RunScript("@5ms load " + x + "\n@60ms report\n@70ms quit\n")
			if err == nil || !strings.Contains(err.Error(), "bad offered load") {
				t.Fatalf("load %s: error %v, want a bad offered load", x, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("script took %v, want under 1s", d)
			}
		})
	}
}
