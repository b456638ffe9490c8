package sched

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/preempt"
)

// makeTask builds a context-table entry with a synthetic single-instruction
// program of the given total cycles.
func makeTask(id int, prio Priority, arrival, totalCycles int64) *Task {
	prog := &npu.Program{Model: "synthetic", Batch: 1, TotalCycles: totalCycles}
	remaining := totalCycles
	for remaining > 0 {
		c := remaining
		const chunk = 1 << 20
		if c > chunk {
			c = chunk
		}
		prog.Instrs = append(prog.Instrs, npu.Instr{Op: npu.GEMMOp, Cycles: int32(c), Count: 1})
		remaining -= c
	}
	exec := npu.NewExecution(prog)
	return NewTask(id, "synthetic", 1, prio, arrival, exec, totalCycles)
}

func TestPriorityTokens(t *testing.T) {
	// Table II: 1/3/9 tokens for low/medium/high.
	if Low.Tokens() != 1 || Medium.Tokens() != 3 || High.Tokens() != 9 {
		t.Error("priority token grants do not match Table II")
	}
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("priority names wrong")
	}
	if Priority(5).String() == "" {
		t.Error("unknown priority should render")
	}
}

func TestStateString(t *testing.T) {
	if Waiting.String() != "waiting" || Running.String() != "running" || Finished.String() != "finished" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should render")
	}
}

func TestTaskLifecycle(t *testing.T) {
	task := makeTask(1, Medium, 100, 1000)
	if task.Token != 3 {
		t.Errorf("initial tokens = %v, want priority grant 3", task.Token)
	}
	if task.State != Waiting || task.Start != -1 || task.Completion != -1 {
		t.Error("fresh task state wrong")
	}
	task.AccrueWait(600)
	if task.Waited != 500 {
		t.Errorf("Waited = %d, want 500", task.Waited)
	}
	task.MarkRunning(700)
	if task.Waited != 600 || task.State != Running || task.Start != 700 {
		t.Errorf("after MarkRunning: waited=%d state=%v start=%d", task.Waited, task.State, task.Start)
	}
	task.Exec.Advance(400)
	task.MarkWaiting(1100)
	task.AccrueWait(1200)
	if task.Waited != 700 {
		t.Errorf("Waited after preemption = %d, want 700", task.Waited)
	}
	task.MarkRunning(1300)
	if task.Start != 700 {
		t.Error("Start must record the first dispatch only")
	}
	task.Exec.Advance(600)
	task.MarkFinished(1900)
	if task.State != Finished || task.Completion != 1900 {
		t.Error("completion not recorded")
	}
	if task.Turnaround() != 1800 {
		t.Errorf("Turnaround = %d, want 1800", task.Turnaround())
	}
	if ntt := task.NTT(); ntt != 1.8 {
		t.Errorf("NTT = %v, want 1.8", ntt)
	}
}

func TestEstimatedRemainingClamped(t *testing.T) {
	task := makeTask(1, Low, 0, 1000)
	task.EstimatedCycles = 500 // underestimate
	task.Exec.Advance(800)
	if rem := task.EstimatedRemaining(); rem != 0 {
		t.Errorf("over-run task remaining = %d, want clamped 0", rem)
	}
}

func TestRunningTasksDoNotAccrueWait(t *testing.T) {
	task := makeTask(1, Low, 0, 1000)
	task.MarkRunning(10)
	task.AccrueWait(500)
	if task.Waited != 10 {
		t.Errorf("running task accrued wait: %d", task.Waited)
	}
}

func TestUpdateTokensProportionalToSlowdownAndPriority(t *testing.T) {
	short := makeTask(1, Low, 0, 1000) // short job
	long := makeTask(2, Low, 0, 100000)
	hi := makeTask(3, High, 0, 100000)
	tasks := []*Task{short, long, hi}
	UpdateTokens(tasks, 1000)
	// All waited 1000 cycles. Slowdown_norm = 1000/estimated.
	if short.Token <= long.Token {
		t.Errorf("short job should accumulate faster: %v vs %v", short.Token, long.Token)
	}
	if hi.Token-9 <= (long.Token-1)*2 {
		t.Errorf("high priority should accumulate ~9x faster than low: %v vs %v",
			hi.Token-9, long.Token-1)
	}
	// Expected exact values: short: 1 + 1*1000/1000 = 2.
	if short.Token != 2 {
		t.Errorf("short token = %v, want 2", short.Token)
	}
}

func TestCandidateThresholdRounding(t *testing.T) {
	f := tokenFramework{cfg: DefaultConfig()}
	cases := []struct {
		tok  float64
		want float64
	}{
		{0.5, 1}, {1, 1}, {2.9, 1}, {3, 3}, {8, 3}, {9, 9}, {42, 9},
	}
	for _, c := range cases {
		if got := f.roundDown(c.tok); got != c.want {
			t.Errorf("roundDown(%v) = %v, want %v (Table II levels)", c.tok, got, c.want)
		}
	}
}

func TestCandidateGroupIncludesMaxHolder(t *testing.T) {
	f := tokenFramework{cfg: DefaultConfig()}
	a := makeTask(1, Low, 0, 1000)
	a.Token = 8
	b := makeTask(2, Low, 0, 1000)
	b.Token = 2
	c := makeTask(3, Low, 0, 1000)
	c.Token = 4
	cands := f.Candidates([]*Task{a, b, c})
	// Paper's worked example: max token 8 rounds the threshold down to
	// 3 (not 9), so tasks with >= 3 tokens qualify.
	if len(cands) != 2 {
		t.Fatalf("candidate group size %d, want 2 (tokens 8 and 4)", len(cands))
	}
	for _, cand := range cands {
		if cand.Token < 3 {
			t.Errorf("candidate with %v tokens below threshold", cand.Token)
		}
	}
}

func TestFCFSPicksEarliestArrival(t *testing.T) {
	p := FCFS{}
	a := makeTask(1, Low, 500, 1000)
	b := makeTask(2, High, 100, 1000)
	dec := p.Pick([]*Task{a, b}, nil, 1000)
	if dec.Candidate != b {
		t.Error("FCFS must pick the earliest arrival regardless of priority")
	}
	if dec.Preempt {
		t.Error("FCFS never recommends preemption")
	}
}

func TestHPFPicksHighestPriority(t *testing.T) {
	p := HPF{}
	lo := makeTask(1, Low, 0, 1000)
	hi := makeTask(2, High, 500, 1000)
	dec := p.Pick([]*Task{lo, hi}, nil, 1000)
	if dec.Candidate != hi {
		t.Error("HPF must pick the high-priority task")
	}
	// Preemption only for strictly higher priority (Figure 2(c)).
	running := makeTask(3, Medium, 0, 1000)
	dec = p.Pick([]*Task{hi}, running, 1000)
	if !dec.Preempt {
		t.Error("high-priority candidate should preempt medium runner")
	}
	dec = p.Pick([]*Task{makeTask(4, Medium, 10, 1000)}, running, 1000)
	if dec.Preempt {
		t.Error("equal priority must not preempt")
	}
}

func TestSJFPicksShortestRemaining(t *testing.T) {
	p := SJF{}
	long := makeTask(1, High, 0, 100000)
	short := makeTask(2, Low, 10, 1000)
	dec := p.Pick([]*Task{long, short}, nil, 100)
	if dec.Candidate != short {
		t.Error("SJF must pick the shortest estimated job, ignoring priority")
	}
	// SRTF semantics: preempt only a strictly longer runner.
	dec = p.Pick([]*Task{short}, long, 100)
	if !dec.Preempt {
		t.Error("shorter candidate should preempt longer runner")
	}
	dec = p.Pick([]*Task{long}, short, 100)
	if dec.Preempt {
		t.Error("longer candidate must not preempt shorter runner")
	}
}

func TestSJFUsesRemainingNotTotal(t *testing.T) {
	p := SJF{}
	mostlyDone := makeTask(1, Low, 0, 100000)
	mostlyDone.Exec.Advance(99500) // 500 remaining
	fresh := makeTask(2, Low, 10, 1000)
	dec := p.Pick([]*Task{mostlyDone, fresh}, nil, 100)
	if dec.Candidate != mostlyDone {
		t.Error("SJF must rank by estimated remaining work")
	}
}

func TestRRBPrefersLeastRecentlyRun(t *testing.T) {
	p := RRB{}
	a := makeTask(1, Low, 0, 1000)
	b := makeTask(2, Low, 5, 1000)
	a.MarkRunning(500) // a ran before
	a.MarkWaiting(600)
	dec := p.Pick([]*Task{a, b}, nil, 1000)
	if dec.Candidate != b {
		t.Error("RRB must rotate to the never-run task")
	}
}

// TestRRBRotatesAfterResumption is the regression test for the
// least-recently-scheduled ordering: Start is pinned to the first
// dispatch, so ordering by it makes a preempted-and-resumed task keep its
// original rotation slot (first-scheduled-first, not round-robin). RRB
// must order by LastScheduled, which moves on every dispatch.
func TestRRBRotatesAfterResumption(t *testing.T) {
	p := RRB{}
	a := makeTask(1, Low, 0, 10000)
	b := makeTask(2, Low, 0, 10000)
	// a is scheduled first, preempted, then resumed AFTER b's first
	// span: a.Start (100) < b.Start (500), yet a is the most recently
	// scheduled (900).
	a.MarkRunning(100)
	a.MarkWaiting(400) // preempted
	b.MarkRunning(500)
	b.MarkWaiting(600) // preempted
	a.MarkRunning(900) // resumed
	a.MarkWaiting(950) // preempted again
	if a.Start != 100 || a.LastScheduled != 900 {
		t.Fatalf("a Start/LastScheduled = %d/%d, want 100/900", a.Start, a.LastScheduled)
	}
	dec := p.Pick([]*Task{a, b}, nil, 1000)
	if dec.Candidate != b {
		t.Error("RRB must pick the least-recently *scheduled* task (b), not the first-started")
	}
	// And once b runs again, the rotation comes back to a.
	b.MarkRunning(1000)
	b.MarkWaiting(1100)
	dec = p.Pick([]*Task{a, b}, nil, 1200)
	if dec.Candidate != a {
		t.Error("RRB rotation must return to a after b's resumption")
	}
}

func TestTokenPolicyFCFSWithinCandidates(t *testing.T) {
	p := NewToken(DefaultConfig())
	early := makeTask(1, Low, 0, 1000)
	early.Token = 4
	late := makeTask(2, Low, 100, 1000)
	late.Token = 8
	dec := p.Pick([]*Task{early, late}, nil, 1000)
	// Both are candidates (threshold 3); FCFS picks the earlier.
	if dec.Candidate != early {
		t.Error("TOKEN should pick FCFS within the candidate group")
	}
}

func TestPREMAPicksShortestWithinCandidates(t *testing.T) {
	p := NewPREMA(DefaultConfig())
	// High-token long job vs low-token short job: the short one falls
	// below the threshold and must NOT be chosen.
	long := makeTask(1, High, 0, 100000)
	long.Token = 9
	short := makeTask(2, Low, 10, 1000)
	short.Token = 1
	dec := p.Pick([]*Task{long, short}, nil, 100)
	if dec.Candidate != long {
		t.Error("PREMA must respect the token threshold (9 rounds to 9)")
	}
	// When both are candidates, the shorter wins.
	short.Token = 9.5
	dec = p.Pick([]*Task{long, short}, nil, 100)
	if dec.Candidate != short {
		t.Error("PREMA must pick the shortest job within the candidate group")
	}
	// Preemption recommendation: a short, high-token candidate clearly
	// dominates a long low-token runner.
	runner := makeTask(3, Low, 0, 1000000)
	urgent := makeTask(4, High, 10, 2000)
	dec = p.Pick([]*Task{urgent}, runner, 100)
	if !dec.Preempt {
		t.Error("urgent short candidate should preempt a long low-priority runner")
	}
	// A token-dominant candidate is recommended even over a short
	// runner — it is Algorithm 3's job to drain in that case.
	shortRunner := makeTask(5, Low, 0, 500)
	dec = p.Pick([]*Task{long}, shortRunner, 100)
	if !dec.Preempt {
		t.Error("token-dominant candidate should be recommended; DRAIN is Algorithm 3's call")
	}
}

func TestTokenPreemptIsAsymmetric(t *testing.T) {
	// The recommendation can never fire in both directions between the
	// same pair at the same instant — that is what rules out the KILL
	// leapfrog livelock.
	pairs := [][2]*Task{
		{makeTask(1, Medium, 0, 5000), makeTask(2, Medium, 0, 4000)},
		{makeTask(3, High, 0, 50000), makeTask(4, Low, 0, 500)},
		{makeTask(5, Low, 0, 500), makeTask(6, High, 0, 50000)},
	}
	for i, p := range pairs {
		if tokenPreempt(p[0], p[1]) && tokenPreempt(p[1], p[0]) {
			t.Errorf("pair %d: both directions recommend preemption", i)
		}
	}
	// A shorter candidate with equal tokens takes the fast path.
	short := makeTask(7, Medium, 0, 1000)
	long := makeTask(8, Medium, 0, 100000)
	if !tokenPreempt(short, long) {
		t.Error("shorter equal-token candidate should displace the runner (Figure 2(d))")
	}
	// A slightly-higher-token but longer candidate is suppressed by the
	// hysteresis.
	slightly := makeTask(9, Medium, 0, 100000)
	slightly.Token = 3.2
	runner := makeTask(10, Medium, 0, 1000)
	if tokenPreempt(slightly, runner) {
		t.Error("marginal token advantage must not displace a shorter runner")
	}
	// A clear token dominance (one priority level up) does displace.
	dominant := makeTask(11, High, 0, 100000)
	if !tokenPreempt(dominant, runner) {
		t.Error("token-dominant candidate should displace the runner")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"} {
		p, err := ByName(name, DefaultConfig())
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%s) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope", DefaultConfig()); err == nil {
		t.Error("unknown policy should error")
	}
	preds := map[string]bool{"FCFS": false, "RRB": false, "HPF": false,
		"TOKEN": true, "SJF": true, "PREMA": true}
	for name, want := range preds {
		p, _ := ByName(name, DefaultConfig())
		if p.UsesPredictor() != want {
			t.Errorf("%s.UsesPredictor() = %v, want %v (Figure 11)", name, p.UsesPredictor(), want)
		}
	}
}

func TestAlgorithm3DrainVsCheckpoint(t *testing.T) {
	d := NewDynamic()
	// Current nearly done, candidate long: DRAIN protects the runner.
	current := makeTask(1, Low, 0, 100000)
	current.Exec.Advance(99000) // 1000 remaining of 100000
	candidate := makeTask(2, High, 10, 80000)
	if got := d.Select(current, candidate); got != preempt.Drain {
		t.Errorf("nearly-done runner + long candidate = %v, want DRAIN", got)
	}
	// Current long, candidate short: preempt via checkpoint.
	current2 := makeTask(3, Low, 0, 100000)
	current2.Exec.Advance(1000)
	candidate2 := makeTask(4, High, 10, 2000)
	if got := d.Select(current2, candidate2); got != preempt.Checkpoint {
		t.Errorf("fresh long runner + short candidate = %v, want CHECKPOINT", got)
	}
	// Idle NPU: nothing to drain.
	if got := d.Select(nil, candidate2); got != preempt.Checkpoint {
		t.Errorf("nil current = %v, want saving mechanism", got)
	}
}

func TestAlgorithm3ExactComparison(t *testing.T) {
	// Deg_current = cand.remaining/cur.estimated vs
	// Deg_candidate = cur.remaining/cand.estimated (Algorithm 3).
	d := NewDynamic()
	cur := makeTask(1, Low, 0, 10000)
	cur.Exec.Advance(9000) // remaining 1000
	cand := makeTask(2, Low, 0, 2000)
	// Deg_current = 2000/10000 = 0.2; Deg_candidate = 1000/2000 = 0.5.
	// Candidate would suffer more under drain -> preempt (checkpoint).
	if got := d.Select(cur, cand); got != preempt.Checkpoint {
		t.Errorf("got %v, want CHECKPOINT per Algorithm 3 arithmetic", got)
	}
	cand2 := makeTask(3, Low, 0, 50000)
	// Deg_current = 50000/10000 = 5; Deg_candidate = 1000/50000 = 0.02.
	if got := d.Select(cur, cand2); got != preempt.Drain {
		t.Errorf("got %v, want DRAIN per Algorithm 3 arithmetic", got)
	}
}

func TestDynamicKillVariant(t *testing.T) {
	d := Dynamic{Saving: preempt.Kill}
	cur := makeTask(1, Low, 0, 10000)
	cand := makeTask(2, High, 0, 1000)
	if got := d.Select(cur, cand); got != preempt.Kill {
		t.Errorf("dynamic-kill should save via KILL, got %v", got)
	}
	if d.Name() != "dynamic-KILL" {
		t.Errorf("selector name = %q", d.Name())
	}
}

func TestSelectorByName(t *testing.T) {
	cases := map[string]preempt.Mechanism{
		"static-checkpoint": preempt.Checkpoint,
		"static-kill":       preempt.Kill,
		"static-drain":      preempt.Drain,
	}
	cur := makeTask(1, Low, 0, 100)
	cand := makeTask(2, Low, 0, 100)
	for name, want := range cases {
		sel, err := SelectorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sel.Select(cur, cand); got != want {
			t.Errorf("%s selected %v, want %v", name, got, want)
		}
	}
	if _, err := SelectorByName("dynamic"); err != nil {
		t.Error("dynamic selector should resolve")
	}
	if _, err := SelectorByName("dynamic-kill"); err != nil {
		t.Error("dynamic-kill selector should resolve")
	}
	if _, err := SelectorByName("bogus"); err == nil {
		t.Error("unknown selector should error")
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Quantum.Microseconds() != 250 {
		t.Errorf("quantum = %v, want 0.25ms", cfg.Quantum)
	}
	want := []float64{1, 3, 9}
	if len(cfg.TokenThresholdLevels) != 3 {
		t.Fatal("threshold levels wrong")
	}
	for i, l := range cfg.TokenThresholdLevels {
		if l != want[i] {
			t.Errorf("level[%d] = %v, want %v", i, l, want[i])
		}
	}
}
