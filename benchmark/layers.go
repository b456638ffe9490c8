package main

import (
	"unsafe"

	"repro/internal/npu"
	"repro/internal/workload"
)

// instrBytes is the in-memory size of one compiled instruction, so a
// program's footprint is its instruction count times this.
const instrBytes = float64(unsafe.Sizeof(npu.Instr{}))

// opCtx tells an op how it is observed.
type opCtx struct {
	// first marks the first pass, whose simulated results feed the
	// workload's simulated metrics.
	first bool
	// traced marks an op whose layer calls are timed into the tracer.
	traced bool
	// count marks the first traced pass, over which the per-layer counts
	// are taken, so every count covers exactly one pass over the inputs.
	count bool
}

// layerCounters are per-layer counts over one pass (opCtx.count) and
// heap bytes allocated inside layer calls over every traced op.
type layerCounters struct {
	tasksGenerated, programsNew, instrsNew int64
	wakes, picks                           int64

	generateAlloc, simAlloc, submitAlloc, drainAlloc uint64
}

// layerCall runs fn. On a traced op it runs inside span name and adds
// the heap bytes fn allocated to *alloc.
func layerCall(c opCtx, name string, alloc *uint64, fn func() error) error {
	if !c.traced {
		return fn()
	}
	a0 := allocBytes()
	sp := trc.begin(name)
	err := fn()
	trc.end(sp)
	*alloc += allocBytes() - a0
	return err
}

// programSet tracks which compiled programs one generator has handed
// out, to count the programs and instructions each op compiled anew.
type programSet map[*npu.Program]bool

func (s programSet) count(lc *layerCounters, tasks []*workload.Task) {
	for _, t := range tasks {
		lc.tasksGenerated++
		if !s[t.Program] {
			s[t.Program] = true
			lc.programsNew++
			lc.instrsNew += int64(len(t.Program.Instrs))
		}
	}
}
