package serving

// session.go is the long-lived serving surface: instead of one-shot
// Run/RunBatched scenarios, a Session accepts a request stream
// incrementally — explicit Submit calls, or an open-loop Poisson arrival
// process via Offer — and answers Stats at any point with the same
// steady-state statistics the batch entry points compute. The simulator
// underneath is discrete-event and offline, so incrementality is
// memoized re-simulation: Stats re-runs the submitted stream only when
// it changed since the last call, materializing fresh scheduler entries
// each time (sched.Task state does not survive a run). By construction a
// Session's statistics over a stream are identical to Run's over the
// same generated stream, which session_test.go locks in.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// SessionConfig parameterizes a long-lived serving session.
type SessionConfig struct {
	// Policy is the scheduling-policy label (sched.ByName).
	Policy string
	// Preemptive enables the preemptible-NPU path.
	Preemptive bool
	// Selector is the preemption-mechanism selector label; empty
	// defaults to "dynamic" on preemptive sessions and must be empty on
	// non-preemptive ones.
	Selector string
	// Window is the dynamic-batching window: same-model CNN requests
	// arriving within a window are fused (0 disables batching).
	Window time.Duration
	// MaxBatch caps the fused batch size (default 16).
	MaxBatch int
	// Horizon is the reference horizon for the warm-up cut; 0 derives
	// it from the latest submitted arrival.
	Horizon time.Duration
	// WarmupFraction of the horizon is excluded from latency statistics
	// (default 0.2).
	WarmupFraction float64
}

// Session is an open serving endpoint accumulating a request stream.
// A Session is not safe for concurrent use.
type Session struct {
	srv *Server
	cfg SessionConfig

	// reqs are the submitted request templates in submission order.
	// Each Stats computation materializes fresh scheduler entries from
	// them, so a template is never mutated by a simulation.
	reqs []*workload.Task

	dirty   bool
	drained bool
	closed  bool
	// samples memoizes the raw measured material of the last simulation;
	// last memoizes the statistics derived from it. The node session
	// merges backends' samples before deriving aggregate statistics, so
	// both layers are kept.
	samples    sampleSet
	last       BatchStats
	statsValid bool
	// simulations counts how many times the session actually re-ran the
	// simulator (the incremental-stats memoization instrumentation).
	simulations int
	// traced makes compute retain one completion record per simulated
	// request (set by a node session with a tracer attached); the node
	// derives the trace's completion events from them. Only unbatched
	// sessions retain completions — a fused dispatch has no one-to-one
	// member completion (see NodeSession.TraceEvents).
	traced      bool
	completions []completionRec
}

// Open validates the scheduler configuration and opens a session.
func (s *Server) Open(cfg SessionConfig) (*Session, error) {
	if _, err := sched.ByName(cfg.Policy, s.scfg); err != nil {
		return nil, err
	}
	if cfg.Preemptive {
		sel := cfg.Selector
		if sel == "" {
			sel = "dynamic"
		}
		if _, err := sched.SelectorByName(sel); err != nil {
			return nil, err
		}
	} else if cfg.Selector != "" {
		return nil, fmt.Errorf("serving: selector %q set on a non-preemptive session", cfg.Selector)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serving: negative batching window %v", cfg.Window)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	return &Session{srv: s, cfg: cfg}, nil
}

// Submit appends one request to the stream. The task is treated as a
// template: its ID is reassigned to the submission index and a fresh
// scheduler entry is materialized per simulation.
func (ss *Session) Submit(t *workload.Task) error {
	if ss.closed {
		return fmt.Errorf("serving: session closed")
	}
	if ss.drained {
		return fmt.Errorf("serving: session drained; no further submissions")
	}
	if t == nil || t.Program == nil {
		return fmt.Errorf("serving: nil request")
	}
	ss.reqs = append(ss.reqs, t)
	ss.dirty = true
	return nil
}

// Offer drives the open-loop arrival process: it generates a Poisson
// request stream for the spec (serving.Generate) and submits every
// request, returning how many arrived within the horizon.
func (ss *Session) Offer(spec Spec, rng *rand.Rand) (int, error) {
	if ss.closed {
		return 0, fmt.Errorf("serving: session closed")
	}
	if ss.drained {
		return 0, fmt.Errorf("serving: session drained; no further submissions")
	}
	tasks, err := ss.srv.Generate(spec, rng)
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		if err := ss.Submit(t); err != nil {
			return 0, err
		}
	}
	return len(tasks), nil
}

// Pending reports how many requests have been submitted so far.
func (ss *Session) Pending() int { return len(ss.reqs) }

// Simulations reports how many times the session re-ran the simulator —
// repeated Stats calls without new submissions answer from the memo.
func (ss *Session) Simulations() int { return ss.simulations }

// Stats computes the steady-state statistics of everything submitted so
// far. The result is memoized: a second call without intervening
// submissions does not re-simulate. Statistics are per original request;
// on batched sessions (Window > 0) fused dispatches are unbundled into
// their member requests exactly as RunBatched reports them.
func (ss *Session) Stats() (BatchStats, error) {
	if ss.closed {
		return BatchStats{}, fmt.Errorf("serving: session closed")
	}
	if err := ss.refresh(); err != nil {
		return BatchStats{}, err
	}
	if !ss.statsValid {
		out, err := ss.srv.statsOf(&ss.samples)
		if err != nil {
			return BatchStats{}, err
		}
		ss.last = out
		ss.statsValid = true
	}
	return ss.last, nil
}

// refresh re-simulates the submitted stream if it changed since the last
// simulation, memoizing the resulting sample set.
func (ss *Session) refresh() error {
	if !ss.dirty {
		if len(ss.reqs) == 0 {
			return fmt.Errorf("serving: no requests submitted")
		}
		return nil
	}
	sm, err := ss.compute()
	if err != nil {
		return err
	}
	ss.samples = *sm
	ss.dirty = false
	ss.statsValid = false
	return nil
}

// Drain computes the final statistics and seals the session against
// further submissions. Stats remains callable until Close.
func (ss *Session) Drain() (BatchStats, error) {
	st, err := ss.Stats()
	if err != nil {
		return BatchStats{}, err
	}
	ss.drained = true
	return st, nil
}

// Close seals the session; subsequent Submit/Offer/Stats/Drain calls
// error. Close is idempotent.
func (ss *Session) Close() error {
	ss.closed = true
	ss.drained = true
	return nil
}

// cut resolves the warm-up cut cycle: the configured horizon when set,
// otherwise the latest submitted arrival.
func (ss *Session) cut() int64 {
	if ss.cfg.Horizon > 0 {
		return ss.srv.warmupCut(ss.cfg.Horizon, ss.cfg.WarmupFraction)
	}
	var latest int64
	for _, t := range ss.reqs {
		if t.Arrival > latest {
			latest = t.Arrival
		}
	}
	return int64(float64(latest) * warmupFraction(ss.cfg.WarmupFraction))
}

// materialize builds a fresh simulatable instance from a submitted
// template: a new execution cursor at the template's speed factor and a
// new scheduler entry, re-stamped with the submission index as its ID.
func materialize(id int, t *workload.Task) *workload.Task {
	exec := npu.NewScaledExecution(t.Program, t.Exec.Factor())
	st := sched.NewTask(id, t.Model, t.Batch, t.Priority, t.Arrival, exec, t.EstimatedCycles)
	return &workload.Task{
		Task:     st,
		ModelRef: t.ModelRef,
		InLen:    t.InLen, ActualOut: t.ActualOut, PredictedOut: t.PredictedOut,
		Program: t.Program,
	}
}

// compute re-simulates the submitted stream and collects its raw
// measured samples.
func (ss *Session) compute() (*sampleSet, error) {
	if len(ss.reqs) == 0 {
		return nil, fmt.Errorf("serving: no requests submitted")
	}
	fresh := make([]*workload.Task, len(ss.reqs))
	for i, t := range ss.reqs {
		fresh[i] = materialize(i, t)
	}
	ss.simulations++

	if ss.cfg.Window <= 0 {
		res, err := ss.srv.simulate(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector, fresh)
		if err != nil {
			return nil, err
		}
		if ss.traced {
			ss.retainCompletions(res)
		}
		return ss.srv.collectTasks(res, ss.cut()), nil
	}

	tasks, members, err := ss.coalesce(fresh)
	if err != nil {
		return nil, err
	}
	res, err := ss.srv.simulate(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector, tasks)
	if err != nil {
		return nil, err
	}
	return ss.srv.collectMembers(res, members, ss.cut()), nil
}

// coalesce fuses same-model CNN requests arriving within the batching
// window into batched dispatches, mirroring the TensorRT-Inference-Server
// runtime feature RunBatched models (the grouping loop is shared; see
// groupRequests). Unlike RunBatched's generator-driven coalescer,
// submitted instances are preserved: single-member groups, RNN requests
// and pre-batched submissions pass through unchanged, and only
// multi-member groups are re-instanced at the fused batch size. A fused
// dispatch arrives when its window closes (the last member's arrival)
// and inherits the highest member priority, keeping coalescing
// deterministic — no randomness is consumed.
func (ss *Session) coalesce(requests []*workload.Task) ([]*workload.Task, map[int][]memberRequest, error) {
	windowCycles := ss.srv.cfg.Cycles(ss.cfg.Window)
	var tasks []*workload.Task
	members := map[int][]memberRequest{}
	nextID := 0
	flush := func(group []*workload.Task) error {
		var fused *workload.Task
		if len(group) == 1 {
			fused = materialize(nextID, group[0])
		} else {
			prio := group[0].Priority
			for _, t := range group[1:] {
				if t.Priority > prio {
					prio = t.Priority
				}
			}
			arrival := group[len(group)-1].Arrival
			inst, err := ss.srv.gen.Instance(nextID, group[0].ModelRef, len(group), prio, arrival, nil, nil)
			if err != nil {
				return err
			}
			fused = inst
		}
		tasks = append(tasks, fused)
		members[nextID] = groupMembers(group)
		nextID++
		return nil
	}
	passThrough := func(r *workload.Task) bool {
		// RNNs (per-request unrolled lengths differ) and pre-batched
		// submissions pass through unbatched.
		return r.ModelRef == nil || r.ModelRef.IsRNN() || r.Batch > 1 || windowCycles == 0
	}
	if err := groupRequests(requests, windowCycles, ss.cfg.MaxBatch, passThrough, flush); err != nil {
		return nil, nil, err
	}
	if len(tasks) == 0 {
		return nil, nil, fmt.Errorf("serving: batching produced no tasks")
	}
	return tasks, members, nil
}
