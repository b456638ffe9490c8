// Package sim is the discrete-event multi-tenant NPU simulator. It drives
// a scheduling policy and a preemption-mechanism selector over a set of
// dispatched inference tasks, modelling arrivals, the scheduling-period
// quantum (Table II), preemption boundaries, checkpoint/restore DMA
// latencies, and KILL re-execution, and records the per-task outcomes the
// metrics pipeline consumes.
//
// The scheduler wakes under the paper's three conditions (Section V-C):
// a new task arrives, the running task completes, or the scheduling
// period elapses.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/ckptmem"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	// NPU is the machine configuration (Table I).
	NPU npu.Config
	// Sched is the scheduler configuration (Table II).
	Sched sched.Config
	// Policy decides which task runs next.
	Policy sched.Policy
	// Preemptive enables preemption; when false the policy's Preempt
	// recommendation is ignored and tasks run to completion (the
	// NP-* configurations).
	Preemptive bool
	// Selector chooses the preemption mechanism for each
	// policy-recommended preemption. Ignored when Preemptive is false;
	// required otherwise.
	Selector sched.MechanismSelector
	// MaxCycles aborts a runaway simulation (0 means a generous
	// default); exceeding it is an error so scheduler livelock cannot
	// masquerade as a result. It bounds the cycles spent with work
	// present: idle gaps before and between arrivals do not count, so
	// a late arrival cannot trip it.
	MaxCycles int64
	// CkptMem, when non-nil, tracks checkpointed contexts against a
	// finite NPU-local memory pool (Section VI-G): oversubscription
	// migrates contexts to host memory and charges the transfer
	// latency. Nil models an unbounded pool (the paper's common case,
	// GBs of NPU DRAM).
	CkptMem *ckptmem.Manager
	// OnComplete, when non-nil, is invoked after every task completion
	// with the completed entry and the completion cycle; the returned
	// tasks join the pending arrivals. Each injected task must arrive at
	// or after the completion cycle. This is the closed-loop serving
	// hook: a client releases its next request only once its previous
	// one completes. Because an arrival can never precede the completion
	// that released it, a run with injection is indistinguishable from a
	// run given the same realized arrivals up front (the simulator's
	// trajectory depends on arrival times, not on when an arrival became
	// known) — internal/serving's closed-loop replay relies on this.
	OnComplete func(done *sched.Task, now int64) []*sched.Task
}

// PreemptionEvent records one serviced preemption for the
// mechanism-characterization experiments (Figures 5-6).
type PreemptionEvent struct {
	// Cycle is when the preemption was serviced.
	Cycle int64
	// Preempted and Preempting identify the two tasks.
	Preempted, Preempting int
	// Cost is the mechanism cost breakdown.
	Cost preempt.Cost
}

// Result is the outcome of one simulation run.
type Result struct {
	// Tasks are the completed context-table entries.
	Tasks []*sched.Task
	// Preemptions are the serviced preemption events in time order.
	Preemptions []PreemptionEvent
	// Cycles is the makespan (completion of the last task).
	Cycles int64
	// Wakes counts scheduler invocations.
	Wakes int64
	// Timeline records NPU occupancy spans (one per contiguous run of
	// a task), suitable for Figure 2-style rendering.
	Timeline *trace.Timeline
}

// Sim is a single-run simulator instance.
type Sim struct {
	opt      Options
	tasks    []*sched.Task
	pending  []*sched.Task // not yet arrived, sorted by arrival
	pendHead int           // index of the next pending arrival
	ready    []*sched.Task
	running  *sched.Task
	runSince int64 // cycle the running task's current span began
	now      int64
	idle     int64 // cycles skipped with nothing to run
	result   Result

	// live is the scratch buffer allLive refills at every scheduler
	// wake, so token accounting allocates nothing in steady state.
	live []*sched.Task
}

// New validates the options and prepares a simulator over the given
// tasks. The task slice is owned by the simulator afterwards.
func New(opt Options, tasks []*sched.Task) (*Sim, error) {
	if err := opt.NPU.Validate(); err != nil {
		return nil, err
	}
	if opt.Policy == nil {
		return nil, fmt.Errorf("sim: no policy configured")
	}
	if opt.Preemptive && opt.Selector == nil {
		return nil, fmt.Errorf("sim: preemptive run requires a mechanism selector")
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	if opt.MaxCycles == 0 {
		var total int64
		for _, t := range tasks {
			total += t.IsolatedCycles
		}
		// Generous bound: full serialization plus 100x slack for
		// overheads and KILL re-execution.
		opt.MaxCycles = total*100 + opt.NPU.Cycles(opt.Sched.Quantum)*1000
	}
	s := &Sim{opt: opt}
	s.result.Timeline = &trace.Timeline{}
	s.pending = append(s.pending, tasks...)
	sort.Slice(s.pending, func(i, j int) bool {
		if s.pending[i].Arrival != s.pending[j].Arrival {
			return s.pending[i].Arrival < s.pending[j].Arrival
		}
		return s.pending[i].ID < s.pending[j].ID
	})
	s.tasks = tasks
	return s, nil
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (*Result, error) {
	quantum := s.opt.NPU.Cycles(s.opt.Sched.Quantum)
	if quantum <= 0 {
		quantum = 1
	}
	remaining := len(s.tasks)
	for remaining > 0 {
		if s.now-s.idle > s.opt.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded max cycles %d (policy %s): likely livelock",
				s.opt.MaxCycles, s.opt.Policy.Name())
		}
		s.admitArrivals()

		if s.running == nil && len(s.ready) == 0 {
			// Idle: jump to the next arrival.
			if s.pendHead >= len(s.pending) {
				return nil, fmt.Errorf("sim: %d tasks unfinished with empty queues", remaining)
			}
			next := s.pending[s.pendHead].Arrival
			s.idle += next - s.now
			s.now = next
			continue
		}

		// Scheduler wake-up: update token balances, then consult the
		// policy.
		s.result.Wakes++
		sched.UpdateTokens(s.allLive(), s.now)
		if len(s.ready) > 0 {
			dec := s.opt.Policy.Pick(s.ready, s.running, s.now)
			if err := s.apply(dec); err != nil {
				return nil, err
			}
		}

		if s.running == nil {
			// Nothing schedulable (cannot happen with a sane
			// policy, but guard against livelock).
			if s.pendHead >= len(s.pending) {
				return nil, fmt.Errorf("sim: policy %s scheduled nothing with %d ready",
					s.opt.Policy.Name(), len(s.ready))
			}
			s.now = s.pending[s.pendHead].Arrival
			continue
		}

		// Execute until the next scheduler event: quantum expiry,
		// next arrival, or task completion.
		horizon := s.now + quantum
		if s.pendHead < len(s.pending) && s.pending[s.pendHead].Arrival < horizon {
			horizon = s.pending[s.pendHead].Arrival
		}
		if horizon <= s.now {
			horizon = s.now + 1
		}
		s.now += s.advanceRunning(horizon - s.now)
		if s.running.Exec.Done() {
			s.endSpan()
			done := s.running
			done.MarkFinished(s.now)
			s.running = nil
			remaining--
			if s.opt.OnComplete != nil {
				injected, err := s.inject(s.opt.OnComplete(done, s.now))
				if err != nil {
					return nil, err
				}
				remaining += injected
			}
		}
	}
	s.result.Tasks = s.tasks
	s.result.Cycles = s.now
	return &s.result, nil
}

// inject admits closed-loop arrivals released by the OnComplete hook:
// each task enters the pending queue at its (arrival, ID) sort position
// and extends the livelock bound by its own work, so injected streams
// cannot trip a MaxCycles sized for the initial tasks only.
func (s *Sim) inject(tasks []*sched.Task) (int, error) {
	injected := 0
	for _, t := range tasks {
		if t == nil {
			continue
		}
		if t.Arrival < s.now {
			return injected, fmt.Errorf("sim: injected task %d arrives at cycle %d before the completion at %d that released it",
				t.ID, t.Arrival, s.now)
		}
		tail := s.pending[s.pendHead:]
		idx := sort.Search(len(tail), func(i int) bool {
			if tail[i].Arrival != t.Arrival {
				return tail[i].Arrival > t.Arrival
			}
			return tail[i].ID > t.ID
		})
		pos := s.pendHead + idx
		s.pending = append(s.pending, nil)
		copy(s.pending[pos+1:], s.pending[pos:])
		s.pending[pos] = t
		s.tasks = append(s.tasks, t)
		s.opt.MaxCycles += t.IsolatedCycles * 100
		injected++
	}
	return injected, nil
}

// allLive returns every task currently tracked by the context table
// (ready plus running). The returned slice is the simulator's scratch
// buffer, valid only until the next call.
func (s *Sim) allLive() []*sched.Task {
	s.live = s.live[:0]
	s.live = append(s.live, s.ready...)
	if s.running != nil {
		s.live = append(s.live, s.running)
	}
	return s.live
}

// admitArrivals moves pending tasks whose dispatch time has come into the
// ready queue, advancing the head index rather than re-slicing.
func (s *Sim) admitArrivals() {
	for s.pendHead < len(s.pending) && s.pending[s.pendHead].Arrival <= s.now {
		t := s.pending[s.pendHead]
		s.pendHead++
		t.State = sched.Waiting
		s.ready = append(s.ready, t)
	}
}

// apply enacts a policy decision: dispatch onto an idle NPU, or service a
// recommended preemption through the mechanism selector. A checkpoint-
// memory accounting failure (e.g. a duplicate save) is a simulation
// error: swallowing it would silently skew the reported overheads.
func (s *Sim) apply(dec sched.Decision) error {
	if dec.Candidate == nil {
		return nil
	}
	if s.running == nil {
		return s.dispatch(dec.Candidate)
	}
	if !s.opt.Preemptive || !dec.Preempt || dec.Candidate == s.running {
		return nil
	}
	mech := s.opt.Selector.Select(s.running, dec.Candidate)
	if mech == preempt.Drain {
		// Algorithm 3 overrides the policy: the current task drains
		// to completion; the candidate stays queued and will be
		// reconsidered at the next wake. Record the non-preemption
		// so Figure 5's DRAIN wait-time accounting can observe it.
		s.result.Preemptions = append(s.result.Preemptions, PreemptionEvent{
			Cycle:      s.now,
			Preempted:  s.running.ID,
			Preempting: dec.Candidate.ID,
			Cost:       preempt.Cost{Mechanism: preempt.Drain},
		})
		return nil
	}

	victim := s.running
	cost := preempt.Apply(s.opt.NPU, mech, victim.Exec)
	// Completing the in-flight instruction and draining the checkpoint
	// DMA occupy the NPU.
	s.now += cost.BoundaryCycles + cost.SaveCycles
	s.endSpan()
	victim.Preemptions++
	victim.CheckpointCycles += cost.SaveCycles
	victim.WastedCycles += cost.WastedCycles
	if mech == preempt.Checkpoint {
		victim.SavedBytes = cost.SavedBytes
		// Register only non-empty contexts, mirroring the restore
		// condition in dispatch so every save is paired with exactly
		// one restore.
		if s.opt.CkptMem != nil && cost.SavedBytes > 0 {
			// Finite checkpoint storage: oversubscription migrates
			// contexts over the host link and extends the busy time.
			extra, err := s.opt.CkptMem.Save(victim.ID, cost.SavedBytes, s.now)
			if err != nil {
				return fmt.Errorf("sim: checkpoint save for task %d: %w", victim.ID, err)
			}
			s.now += extra
			victim.CheckpointCycles += extra
		}
	} else {
		victim.SavedBytes = 0
	}
	victim.MarkWaiting(s.now)
	s.ready = append(s.ready, victim)
	s.running = nil

	s.result.Preemptions = append(s.result.Preemptions, PreemptionEvent{
		Cycle:      s.now,
		Preempted:  victim.ID,
		Preempting: dec.Candidate.ID,
		Cost:       cost,
	})
	return s.dispatch(dec.Candidate)
}

// dispatch moves a ready task onto the NPU, charging any pending context
// restore as overhead before its first instruction. A checkpoint-memory
// accounting failure (a restore without a matching save) is a simulation
// error.
func (s *Sim) dispatch(t *sched.Task) error {
	idx := -1
	for i, r := range s.ready {
		if r == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("sim: dispatch of task not in ready queue")
	}
	// Swap-removal: ready-queue order is irrelevant because every
	// policy selects by a strict total order (ties broken by task ID),
	// so an O(1) removal cannot change any decision.
	last := len(s.ready) - 1
	s.ready[idx] = s.ready[last]
	s.ready[last] = nil
	s.ready = s.ready[:last]
	t.MarkRunning(s.now)
	s.runSince = s.now
	if t.SavedBytes > 0 {
		restore := preempt.RestoreCycles(s.opt.NPU, t.SavedBytes)
		if s.opt.CkptMem != nil {
			extra, err := s.opt.CkptMem.Restore(t.ID)
			if err != nil {
				return fmt.Errorf("sim: checkpoint restore for task %d: %w", t.ID, err)
			}
			restore += extra
		}
		t.PendingOverhead += restore
		t.CheckpointCycles += restore
		t.SavedBytes = 0
	}
	s.running = t
	return nil
}

// endSpan closes the running task's current occupancy span at the
// current cycle.
func (s *Sim) endSpan() {
	if s.running == nil || s.now <= s.runSince {
		return
	}
	s.result.Timeline.Add(trace.Span{
		TaskID: s.running.ID,
		Label:  s.running.Model,
		Start:  s.runSince,
		End:    s.now,
	})
}

// advanceRunning consumes up to budget cycles of the running task's
// pending overhead plus execution and returns the cycles used.
func (s *Sim) advanceRunning(budget int64) int64 {
	t := s.running
	var used int64
	if t.PendingOverhead > 0 {
		o := t.PendingOverhead
		if o > budget {
			o = budget
		}
		t.PendingOverhead -= o
		used += o
		budget -= o
	}
	if budget > 0 {
		used += t.Exec.Advance(budget)
	}
	return used
}
