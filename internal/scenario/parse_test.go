package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
)

// TestParseFull reads every directive kind once and checks the parsed
// scenario field by field.
func TestParseFull(t *testing.T) {
	src := `
# full-surface scenario
scenario everything
fleet initial=2 min=1 max=6
routing least-queued
policy PREMA preemptive
scaler queue-depth slo=8ms tick=2ms
models CNN-AN RNN-SA
seed 42
warmup 0.25
segment 40ms
load 0.5 2 0.5
at 80ms fail npu0
at 90ms slowdown npu1 x2.5
at 120ms restore npu1
at 130ms cordon npu2
at 150ms uncordon npu2
assert slo_violation_frac < 0.3
assert fleet between 1 6 during 0ms 200ms
assert recovered_by 160ms
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "everything" {
		t.Errorf("name = %q", sc.Name)
	}
	if sc.Fleet != (Fleet{Initial: 2, Min: 1, Max: 6}) {
		t.Errorf("fleet = %+v", sc.Fleet)
	}
	if sc.Routing != cluster.LeastQueued {
		t.Errorf("routing = %v", sc.Routing)
	}
	if sc.Policy != "PREMA" || !sc.Preemptive {
		t.Errorf("policy = %q preemptive=%v", sc.Policy, sc.Preemptive)
	}
	if sc.Scaler != "queue-depth" || sc.SLO != 8*time.Millisecond || sc.Tick != 2*time.Millisecond {
		t.Errorf("scaler = %q slo=%v tick=%v", sc.Scaler, sc.SLO, sc.Tick)
	}
	if len(sc.Models) != 2 || sc.Models[0] != "CNN-AN" || sc.Models[1] != "RNN-SA" {
		t.Errorf("models = %v", sc.Models)
	}
	if sc.Seed != 42 || sc.Warmup != 0.25 || sc.Segment != 40*time.Millisecond {
		t.Errorf("seed=%d warmup=%v segment=%v", sc.Seed, sc.Warmup, sc.Segment)
	}
	if len(sc.Load) != 3 || sc.Load[1] != 2 {
		t.Errorf("load = %v", sc.Load)
	}
	if len(sc.Events) != 5 {
		t.Fatalf("events = %d, want 5", len(sc.Events))
	}
	slow := sc.Events[1]
	if slow.At != 90*time.Millisecond || slow.Op.Kind != serving.SlowNPU ||
		slow.Op.NPU != 1 || slow.Op.Factor != 2.5 {
		t.Errorf("slowdown event = %+v", slow)
	}
	if len(sc.Asserts) != 3 {
		t.Fatalf("asserts = %d, want 3", len(sc.Asserts))
	}
	if a := sc.Asserts[0]; a.Kind != AssertSLO || a.Max != 0.3 {
		t.Errorf("slo assert = %+v", a)
	}
	if a := sc.Asserts[1]; a.Kind != AssertFleetBetween || a.Lo != 1 || a.Hi != 6 ||
		a.From != 0 || a.To != 200*time.Millisecond {
		t.Errorf("fleet assert = %+v", a)
	}
	if a := sc.Asserts[2]; a.Kind != AssertRecoveredBy || a.By != 160*time.Millisecond {
		t.Errorf("recovery assert = %+v", a)
	}
	if sc.Horizon() != 120*time.Millisecond {
		t.Errorf("horizon = %v, want 120ms", sc.Horizon())
	}
	if sc.Span() != 200*time.Millisecond {
		t.Errorf("span = %v, want 200ms (the fleet assert's window)", sc.Span())
	}
}

// TestParseDefaults: a minimal scenario inherits PREMA preemptive
// scheduling, least-work routing and the default model mix.
func TestParseDefaults(t *testing.T) {
	sc, err := Parse("scenario tiny\nfleet initial=1\nsegment 10ms\nload 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Policy != "PREMA" || !sc.Preemptive {
		t.Errorf("default policy = %q preemptive=%v", sc.Policy, sc.Preemptive)
	}
	if sc.Routing != cluster.LeastWork {
		t.Errorf("default routing = %v", sc.Routing)
	}
	if len(sc.Models) != len(defaultModels) {
		t.Errorf("default models = %v", sc.Models)
	}
}

// TestParseErrors locks in the error surface: every malformed line is
// reported with its line number, and semantic validation failures name
// the offending directive.
func TestParseErrors(t *testing.T) {
	const valid = "scenario s\nfleet initial=2\nsegment 10ms\nload 1\n"
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown directive", valid + "flee initial=2\n", `line 5: unknown directive "flee"`},
		{"duplicate directive", valid + "segment 20ms\n", "line 5: duplicate \"segment\" directive (first on line 3)"},
		{"bad duration", "scenario s\nfleet initial=1\nsegment tenms\nload 1\n", "line 3"},
		{"negative duration", valid + "at -5ms fail npu0\n", "line 5"},
		{"slowdown without factor", valid + "at 5ms slowdown npu0\n", "line 5"},
		{"factor on fail", valid + "at 5ms fail npu0 x2\n", "line 5"},
		{"bad npu", valid + "at 5ms fail gpu0\n", "line 5"},
		{"bad assert form", valid + "assert latency < 3\n", "line 5"},
		{"fleet assert empty window", valid + "assert fleet between 1 2 during 20ms 10ms\n", "window [20ms, 10ms] is empty"},
		{"unknown routing", valid + "routing fastest\n", `unknown routing policy "fastest"`},
		{"missing name", "fleet initial=1\nsegment 10ms\nload 1\n", "name"},
		{"no load", "scenario s\nfleet initial=1\nsegment 10ms\n", "load"},
		{"all-zero load", "scenario s\nfleet initial=1\nsegment 10ms\nload 0 0\n", "load"},
		{"fleet bounds without scaler", "scenario s\nfleet initial=2 min=1 max=4\nsegment 10ms\nload 1\n", "scaler"},
		{"scaler without slo", valid + "scaler queue-depth\n", "slo"},
		{"unknown model", valid + "models CNN-XX\n", "CNN-XX"},
		{"warmup out of range", valid + "warmup 1.5\n", "warmup"},
		{"warmup NaN", valid + "warmup NaN\n", "warmup"},
		{"slo assert without scaler", valid + "assert slo_violation_frac < 0.5\n", "scaler"},
		{"tier assert malformed", valid + "assert tier fast latency < 0.5\n", "line 5"},
		{"tier assert without scaler", valid + "assert tier fast slo_violation_frac < 0.5\n", "scaler"},
		{"tier assert untiered fleet",
			"scenario s\nfleet initial=2 min=1 max=4\nscaler queue-depth slo=8ms\nsegment 10ms\nload 1\n" +
				"assert tier fast slo_violation_frac < 0.5\n",
			"needs a tiered fleet"},
		{"tier assert unknown tier",
			"scenario s\nfleet initial=2 min=2 max=4 tiers=50%:fast,50%:slow\nscaler queue-depth slo=8ms\nsegment 10ms\nload 1\n" +
				"assert tier turbo slo_violation_frac < 0.5\n",
			`tier "turbo" not in fleet template`},
		{"tier assert bound out of range",
			"scenario s\nfleet initial=2 min=2 max=4 tiers=50%:fast,50%:slow\nscaler queue-depth slo=8ms\nsegment 10ms\nload 1\n" +
				"assert tier fast slo_violation_frac < 1.5\n",
			"outside (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseTierAssert: the per-tier SLO assertion parses against a
// tiered fleet and carries the tier name and bound.
func TestParseTierAssert(t *testing.T) {
	sc, err := Parse("scenario s\nfleet initial=2 min=2 max=4 tiers=70%:fast,30%:slow\n" +
		"scaler queue-depth slo=8ms\nsegment 10ms\nload 1\n" +
		"assert tier slow slo_violation_frac < 0.4\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Asserts) != 1 {
		t.Fatalf("asserts = %d, want 1", len(sc.Asserts))
	}
	a := sc.Asserts[0]
	if a.Kind != AssertTierSLO || a.Tier != "slow" || a.Max != 0.4 {
		t.Errorf("tier assert = %+v, want kind=AssertTierSLO tier=slow max=0.4", a)
	}
}

// TestAssertionString: the rendered forms match the grammar the parser
// accepts, so reports echo assertions in re-parseable shape.
func TestAssertionString(t *testing.T) {
	cases := []struct {
		a    Assertion
		want string
	}{
		{Assertion{Kind: AssertSLO, Max: 0.3}, "assert slo_violation_frac < 0.3"},
		{Assertion{Kind: AssertFleetBetween, Lo: 1, Hi: 6, To: 200 * time.Millisecond},
			"assert fleet between 1 6 during 0s 200ms"},
		{Assertion{Kind: AssertRecoveredBy, By: 160 * time.Millisecond},
			"assert recovered_by 160ms"},
		{Assertion{Kind: AssertTierSLO, Tier: "slow", Max: 0.4},
			"assert tier slow slo_violation_frac < 0.4"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestNonFiniteLoadRejected: the baseline scenario with a NaN or
// infinite load segment (or warmup) used to validate — NaN passes an
// ordered comparison — and then ran without end. Each probe is refused
// at parse time, well under a second.
func TestNonFiniteLoadRejected(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const ramp = "load 0.4 1.5 3.0 1.5 0.4\n"
	if !strings.Contains(string(src), ramp) {
		t.Fatalf("baseline.txt no longer holds the ramp %q", ramp)
	}
	for _, probe := range []struct{ replace, want string }{
		{"load 0.4 NaN\n", "not a finite number"},
		{"load 0.4 Inf\n", "not a finite number"},
		{"load +Inf 0.4\n", "not a finite number"},
		{ramp + "warmup NaN\n", "warmup"},
	} {
		start := time.Now()
		_, err := Parse(strings.Replace(string(src), ramp, probe.replace, 1))
		if err == nil || !strings.Contains(err.Error(), probe.want) {
			t.Errorf("%q: error %v, want substring %q", probe.replace, err, probe.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q: took %v, want under 1s", probe.replace, d)
		}
	}
}
