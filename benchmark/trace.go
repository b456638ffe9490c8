package main

// trace.go holds the benchmark's own spans. They are recorded from this
// package only, around the benchmark's calls into each layer's public
// functions, so the program under test carries no instrumentation. They
// are distinct from the repository's telemetry Tracer, which the
// hetero-chaos workload keeps attached in both the traced and the
// untraced run.
//
// Calls that happen thousands of times per op (PREMA's Pick, one
// NodeSession.Submit per request) are folded into one aggregated span
// per parent, carrying the summed duration and the call count, so the
// trace stays small and the per-call cost of recording stays a pair of
// clock reads.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/sched"
)

// span is one timed call, or one aggregate of calls, into a layer.
type span struct {
	Name string `json:"name"`
	// Op is the benchmark op the span belongs to.
	Op int `json:"op"`
	// Parent indexes the enclosing span; -1 on an op's root span.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the trace epoch. On an
	// aggregated span they are the first call's start and the last
	// call's end, and Dur (not End-Start) is the time inside the calls.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Dur   int64 `json:"dur_ns"`
	Calls int   `json:"calls"`
}

// rootSpan names every op's root span; its self time is the benchmark's
// own time, bench.unattributed_s.
const rootSpan = "op"

type aggKey struct {
	parent int
	name   string
}

// tracer records spans on one goroutine. A disabled tracer records
// nothing and every method returns at once.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	// cur is the innermost open span (-1 outside any op) and op the
	// current op's number.
	cur, op int
	agg     map[aggKey]int

	// Pick statistics over traced ops: the ready-queue length each call
	// saw.
	picks, readySum int64
	readyMax        int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), cur: -1, agg: map[aggKey]int{}}
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// beginOp opens op n's root span.
func (t *tracer) beginOp(n int) int {
	if !t.on {
		return -1
	}
	t.op = n
	clear(t.agg)
	return t.begin(rootSpan)
}

// begin opens a child of the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: t.at(time.Now()), Calls: 1})
	t.cur = i
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = t.at(time.Now())
	s.Dur = s.End - s.Start
	t.cur = s.Parent
}

// add folds one call of duration d that started at start into the
// aggregated span name under the innermost open span.
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	if !t.on {
		return
	}
	k := aggKey{t.cur, name}
	i, ok := t.agg[k]
	if !ok {
		i = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: t.at(start)})
		t.agg[k] = i
	}
	s := &t.spans[i]
	s.Dur += int64(d)
	s.End = t.at(start) + int64(d)
	s.Calls++
}

// pick records one PREMA Pick call.
func (t *tracer) pick(start time.Time, d time.Duration, ready int) {
	if !t.on {
		return
	}
	t.add("sched.pick", start, d)
	t.picks++
	t.readySum += int64(ready)
	if ready > t.readyMax {
		t.readyMax = ready
	}
}

// selfTimes folds the spans into self time per span name: a span's
// duration minus its children's. Over one op the self times sum to the
// op's wall time exactly; checkSums verifies that per op.
func (t *tracer) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range t.spans {
		self[s.Name] += s.Dur
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.Dur
		}
	}
	return self
}

// checkSums verifies, op by op, that no span's children outlast it and
// that the self times add up to the op's wall time.
func (t *tracer) checkSums() error {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.Dur
		}
	}
	opWall := map[int]int64{}
	opSelf := map[int]int64{}
	for i, s := range t.spans {
		self := s.Dur - childSum[i]
		if self < 0 {
			return fmt.Errorf("span %d (%s, op %d): children last %d ns longer than the span", i, s.Name, s.Op, -self)
		}
		opSelf[s.Op] += self
		if s.Parent < 0 {
			opWall[s.Op] += s.Dur
		}
	}
	for op, wall := range opWall {
		if opSelf[op] != wall {
			return fmt.Errorf("op %d: self times sum to %d ns, wall time is %d ns", op, opSelf[op], wall)
		}
	}
	return nil
}

// layerTable renders self time per span name, largest first, as a share
// of the traced ops' wall time.
func layerTable(self map[string]int64, wall int64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	out := fmt.Sprintf("%-20s %12s %7s\n", "span (self time)", "seconds", "share")
	for _, n := range names {
		label := n
		if n == rootSpan {
			label = "bench.unattributed"
		}
		out += fmt.Sprintf("%-20s %12.6f %6.2f%%\n", label, float64(self[n])/1e9, 100*float64(self[n])/float64(wall))
	}
	return out
}

// dump writes the spans as JSONL, after one header line carrying the
// host fingerprint.
func (t *tracer) dump(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// timedPolicy is PREMA behind a stopwatch: every Pick is timed into the
// benchmark tracer and delegated unchanged, so a traced run schedules
// exactly as an untraced one (the workloads check that their simulated
// results match). Name answers the inner policy's name, so nothing the
// simulator prints changes either.
type timedPolicy struct{ inner sched.Policy }

func (p timedPolicy) Name() string        { return p.inner.Name() }
func (p timedPolicy) UsesPredictor() bool { return p.inner.UsesPredictor() }

func (p timedPolicy) Pick(ready []*sched.Task, current *sched.Task, now int64) sched.Decision {
	start := time.Now()
	d := p.inner.Pick(ready, current, now)
	trc.pick(start, time.Since(start), len(ready))
	return d
}

// timedPREMA is the registry label of the timing wrapper; traced runs
// select it wherever an untraced run selects "PREMA".
const timedPREMA = "PREMA+benchtimer"

// trc is the process's benchmark tracer. The Pick wrapper reaches it
// through this variable because policies are built by the registry,
// deep inside the simulator and the serving layer. The runner switches
// it on for traced ops only.
var trc = newTracer(false)

func init() {
	if err := sched.RegisterPolicy(timedPREMA, func(cfg sched.Config) (sched.Policy, error) {
		return timedPolicy{inner: sched.NewPREMA(cfg)}, nil
	}); err != nil {
		panic(err)
	}
}

// premaLabel answers the PREMA policy label a run uses.
func premaLabel(traced bool) string {
	if traced {
		return timedPREMA
	}
	return "PREMA"
}
