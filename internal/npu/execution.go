package npu

import (
	"fmt"
	"math"
)

// Execution is a resumable cursor over a compiled Program. The multi-task
// simulator advances it by cycle budgets, interrogates it for the next
// preemption boundary (GEMM_OP commit, footnote 2 of the paper), reads the
// checkpointable live state, and resets it when the KILL mechanism discards
// in-flight work.
//
// The cursor is a position in the program's loop table — loop,
// iteration, run and tile — and walks the expanded stream without
// materializing it: it skips whole tiles of a run with one divide and
// whole iterations of a loop with another, and every query is O(1) per
// run. An Execution may run its program at a speed factor
// (NewScaledExecution): each tile then takes ceil(cycles×factor), so a
// slowed backend shares the nominal program instead of copying it.
//
// The zero value is not usable; construct with NewExecution.
type Execution struct {
	prog    *Program // always carries a loop table
	factor  float64  // service-time multiplier; 1 = nominal speed
	total   int64    // isolated cycles at this factor
	iterCyc int64    // cycles of one iteration of loop lp at this factor; 0 for a loop run once
	cyc     int64    // cycles of each tile of run pc at this factor
	rem     int64    // cycles remaining in the in-flight tile
	done    int64    // cycles executed so far
	lp      int32    // loop in flight
	iter    int32    // iteration of loop lp in flight
	pc      int32    // run in flight
	tile    int32    // tile of run pc in flight
	head    bool     // nothing of iteration iter has executed yet
}

// NewExecution returns a cursor positioned at the start of prog. A
// program without a loop table (one assembled by hand) is executed
// through a copy that carries its one-loop table.
func NewExecution(prog *Program) *Execution {
	if prog.Loops == nil {
		cp := *prog
		cp.Loops = prog.LoopTable()
		prog = &cp
	}
	e := &Execution{prog: prog, factor: 1, total: prog.TotalCycles}
	e.reset()
	return e
}

// NewScaledExecution returns a cursor that executes prog at factor×
// its nominal service time: every tile takes ceil(cycles×factor) cycles,
// saturating at the largest int32 latency like the compiler's clamp.
// factor must be finite and at least 1. The total costs one pass over
// the loop bodies, not over the expanded stream.
func NewScaledExecution(prog *Program, factor float64) *Execution {
	if !(factor >= 1) || math.IsInf(factor, 1) {
		panic(fmt.Sprintf("npu: speed factor %v is not a finite number >= 1", factor))
	}
	e := NewExecution(prog)
	if factor != 1 {
		e.factor, e.total = factor, 0
		for k := range e.prog.Loops {
			e.total += int64(e.prog.Loops[k].Times) * e.bodyCycles(int32(k))
		}
		e.reset()
	}
	return e
}

// scaled returns the per-tile cycles of run i at the execution's factor.
func (e *Execution) scaled(i int32) int64 {
	c := int64(e.prog.Instrs[i].Cycles)
	if e.factor == 1 {
		return c
	}
	s := math.Ceil(float64(c) * e.factor)
	if s > math.MaxInt32 {
		return math.MaxInt32
	}
	return int64(s)
}

// bodyCycles returns the cycles of one iteration of loop k at the
// execution's factor.
func (e *Execution) bodyCycles(k int32) int64 {
	l := &e.prog.Loops[k]
	var sum int64
	for i := l.Start; i < l.End; i++ {
		sum += int64(e.prog.Instrs[i].Count) * e.scaled(i)
	}
	return sum
}

func (e *Execution) reset() {
	e.done = 0
	e.enter(0)
	e.head = true
	e.seek(0)
}

// enter makes loop k (or the end of the program) the loop in flight, at
// its first iteration.
func (e *Execution) enter(k int32) {
	e.lp, e.iter, e.iterCyc = k, 0, 0
	if int(k) < len(e.prog.Loops) && e.prog.Loops[k].Times > 1 {
		e.iterCyc = e.bodyCycles(k)
	}
}

// seek positions the cursor at the first tile of run pc of the
// iteration in flight, then past any zero-latency runs — into later
// iterations and loops as needed — so the cursor always rests on work
// (or the end of the program). An iteration with no work at all ends
// its loop, since every iteration is the same.
func (e *Execution) seek(pc int32) {
	for !e.Done() {
		l := &e.prog.Loops[e.lp]
		if pc < l.End {
			if e.cyc = e.scaled(pc); e.cyc > 0 && e.prog.Instrs[pc].Count > 0 {
				break
			}
			pc++
			continue
		}
		e.head = true
		if e.iter++; e.iter < l.Times && e.iterCyc > 0 {
			pc = l.Start
			continue
		}
		e.enter(e.lp + 1)
		if !e.Done() {
			pc = e.prog.Loops[e.lp].Start
		}
	}
	e.pc, e.tile, e.rem = pc, 0, e.cyc
}

// Program returns the program being executed: the program the cursor
// was built on, or for one without a loop table, the copy carrying it.
func (e *Execution) Program() *Program { return e.prog }

// Factor returns the execution's speed factor (1 = nominal).
func (e *Execution) Factor() float64 { return e.factor }

// TotalCycles returns the isolated, uninterrupted execution time at the
// execution's speed factor.
func (e *Execution) TotalCycles() int64 { return e.total }

// Done reports whether the program has fully committed.
func (e *Execution) Done() bool { return int(e.lp) >= len(e.prog.Loops) }

// Executed returns the cycles executed so far.
func (e *Execution) Executed() int64 { return e.done }

// Remaining returns the cycles left until completion.
func (e *Execution) Remaining() int64 { return e.total - e.done }

// Advance executes up to budget cycles and returns the cycles actually
// consumed (less than budget only when the program completes first). It
// may stop mid-instruction; scheduling-quantum expiry does not itself
// force a preemption boundary.
func (e *Execution) Advance(budget int64) int64 {
	if budget < 0 {
		panic(fmt.Sprintf("npu: negative advance budget %d", budget))
	}
	used := budget
	for budget > 0 && !e.Done() {
		if e.head && e.iterCyc > 0 && budget >= e.iterCyc {
			// Commit whole iterations at once: none of this one has
			// run, and every iteration costs the same.
			l := &e.prog.Loops[e.lp]
			n := min(budget/e.iterCyc, int64(l.Times-e.iter))
			budget -= n * e.iterCyc
			if e.iter += int32(n); e.iter == l.Times {
				e.seek(l.End)
			}
			continue
		}
		e.head = false
		if budget < e.rem {
			e.rem -= budget
			budget = 0
			break
		}
		// Commit the in-flight tile, then the rest of the run if the
		// budget covers it, else as many whole tiles as it does.
		budget -= e.rem
		if rest := int64(e.prog.Instrs[e.pc].Count-e.tile-1) * e.cyc; budget >= rest {
			budget -= rest
			e.seek(e.pc + 1)
			continue
		}
		whole := budget / e.cyc
		budget -= whole * e.cyc
		e.tile += int32(whole) + 1
		e.rem = e.cyc
	}
	used -= budget
	e.done += used
	return used
}

// CyclesToBoundary returns the cycles needed to finish the in-flight
// instruction — the earliest point at which a CHECKPOINT preemption can be
// serviced (the trap routine runs after the current GEMM_OP commits,
// Section IV-C). Zero when the cursor already rests on a boundary or the
// program is done.
func (e *Execution) CyclesToBoundary() int64 {
	if e.Done() || e.rem == e.cyc {
		// Nothing of the in-flight instruction has executed yet: the
		// cursor is exactly on a commit boundary.
		return 0
	}
	return e.rem
}

// LiveBytes returns the checkpointable on-chip context at the last
// committed instruction boundary. Callers must advance to a boundary
// (CyclesToBoundary() == 0) before checkpointing; LiveBytes tolerates
// mid-instruction cursors by reporting the previously committed state.
func (e *Execution) LiveBytes() int64 {
	if e.tile > 0 {
		return e.prog.Instrs[e.pc].LiveAt(e.tile - 1)
	}
	// The state after the previous commit is the last tile of the
	// previous run of the expanded stream (zero-latency runs
	// included): at the start of a later iteration, the body's last
	// run; otherwise the run before pc, which the contiguous bodies
	// make the previous loop's last run at a loop's start.
	prev := e.pc - 1
	if !e.Done() && e.iter > 0 && e.pc == e.prog.Loops[e.lp].Start {
		prev = e.prog.Loops[e.lp].End - 1
	}
	if prev < 0 {
		return 0
	}
	in := &e.prog.Instrs[prev]
	return in.LiveAt(in.Count - 1)
}

// Kill discards all progress: the KILL preemption mechanism terminates the
// task immediately without checkpointing, and the inference later restarts
// from scratch (Section IV-C).
func (e *Execution) Kill() { e.reset() }

// KillToLayerStart discards only the current layer's in-flight progress,
// rewinding the cursor to the first instruction of the layer being
// executed. This models the milder restart granularity the paper's
// footnote 2 permits — preemption points on tile boundaries with
// re-execution from the last architecturally complete layer — and returns
// the cycles of work discarded. A completed program is left untouched.
// A layer never spans iterations, so the rewind stays in the iteration
// in flight.
func (e *Execution) KillToLayerStart() (wasted int64) {
	if e.Done() {
		return 0
	}
	first := e.prog.Loops[e.lp].Start
	layer := e.prog.Instrs[e.pc].Layer
	start := e.pc
	for start > first && e.prog.Instrs[start-1].Layer == layer {
		start--
	}
	// Cycles completed within the layer: whole runs since start, whole
	// tiles of the run in flight, and the partially executed tile.
	for i := start; i < e.pc; i++ {
		wasted += int64(e.prog.Instrs[i].Count) * e.scaled(i)
	}
	wasted += int64(e.tile)*e.cyc + e.cyc - e.rem
	e.done -= wasted
	e.head = start == first
	e.seek(start)
	return wasted
}

// Progress returns the executed fraction in [0,1].
func (e *Execution) Progress() float64 {
	if e.total == 0 {
		return 1
	}
	return float64(e.done) / float64(e.total)
}

// CurrentLayer returns the program-wide layer index of the in-flight
// instruction, or -1 once the program has completed.
func (e *Execution) CurrentLayer() int {
	if e.Done() {
		return -1
	}
	l := &e.prog.Loops[e.lp]
	return int(l.Base) + int(e.iter)*int(l.Layers) + int(e.prog.Instrs[e.pc].Layer)
}
