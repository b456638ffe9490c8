package npu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refExec is the per-tile reference cursor: the executor as it was
// before programs held runs and loops. It walks one record per tile of
// the fully expanded stream, and a speed factor is applied the way
// slowed backends used to apply it — by stretching a copy of the
// program, every tile to ceil(cycles×factor).
type refExec struct {
	instrs []Instr
	head   []bool // tile i is the first tile of a loop iteration
	total  int64
	pc     int
	rem    int64
	done   int64
}

func newRefExec(p *Program, factor float64) *refExec {
	r := &refExec{}
	for _, l := range p.LoopTable() {
		for t := int32(0); t < l.Times; t++ {
			first := true
			for _, in := range p.Instrs[l.Start:l.End] {
				in.Layer += l.Base + t*l.Layers
				for j := int32(0); j < in.Count; j++ {
					tile := in.Tile(j)
					tile.Cycles = int32(math.Ceil(float64(tile.Cycles) * factor))
					r.instrs = append(r.instrs, tile)
					r.head = append(r.head, first)
					r.total += int64(tile.Cycles)
					first = false
				}
			}
		}
	}
	r.reset()
	return r
}

func (r *refExec) reset() {
	r.pc, r.done, r.rem = 0, 0, 0
	if len(r.instrs) > 0 {
		r.rem = int64(r.instrs[0].Cycles)
	}
	r.skipZero()
}

func (r *refExec) skipZero() {
	for r.pc < len(r.instrs) && r.rem == 0 {
		r.pc++
		if r.pc < len(r.instrs) {
			r.rem = int64(r.instrs[r.pc].Cycles)
		}
	}
}

func (r *refExec) isDone() bool { return r.pc >= len(r.instrs) }

func (r *refExec) advance(budget int64) int64 {
	var used int64
	for budget > 0 && !r.isDone() {
		step := min(r.rem, budget)
		r.rem -= step
		r.done += step
		used += step
		budget -= step
		if r.rem == 0 {
			r.pc++
			if r.pc < len(r.instrs) {
				r.rem = int64(r.instrs[r.pc].Cycles)
			}
			r.skipZero()
		}
	}
	return used
}

func (r *refExec) cyclesToBoundary() int64 {
	if r.isDone() || r.rem == int64(r.instrs[r.pc].Cycles) {
		return 0
	}
	return r.rem
}

// cyclesToNextIteration returns the cycles until the next loop
// iteration's first tile starts (or until the program ends).
func (r *refExec) cyclesToNextIteration() int64 {
	if r.isDone() {
		return 0
	}
	c := r.rem
	for i := r.pc + 1; i < len(r.instrs) && !r.head[i]; i++ {
		c += int64(r.instrs[i].Cycles)
	}
	return c
}

func (r *refExec) liveBytes() int64 {
	if r.pc == 0 {
		return 0
	}
	return r.instrs[r.pc-1].LiveBytes
}

func (r *refExec) killToLayerStart() (wasted int64) {
	if r.isDone() {
		return 0
	}
	layer := r.instrs[r.pc].Layer
	start := r.pc
	for start > 0 && r.instrs[start-1].Layer == layer {
		start--
	}
	for i := start; i < r.pc; i++ {
		wasted += int64(r.instrs[i].Cycles)
	}
	wasted += int64(r.instrs[r.pc].Cycles) - r.rem
	r.pc = start
	r.done -= wasted
	r.rem = int64(r.instrs[start].Cycles)
	r.skipZero()
	return wasted
}

func (r *refExec) currentLayer() int {
	if r.isDone() {
		return -1
	}
	return int(r.instrs[r.pc].Layer)
}

// randomRuns appends random runs to p: zero-latency runs, multi-run
// layers, and ramps continued across consecutive runs, the shapes the
// compiler emits. Layers count from 0; it returns the number of layers
// used.
func randomRuns(p *Program, rng *rand.Rand) int32 {
	layer := int32(0)
	for n := 1 + rng.IntN(12); n > 0; n-- {
		if rng.IntN(3) == 0 {
			layer++
		}
		in := Instr{
			Op: Op(rng.IntN(5)), Layer: layer,
			Cycles:    int32(rng.IntN(40)),
			Count:     int32(1 + rng.IntN(6)),
			LiveBytes: int64(rng.IntN(1000)),
		}
		if rng.IntN(5) == 0 {
			in.Cycles = 0
		}
		if rng.IntN(2) == 0 {
			// A ramp split over up to three runs of differing latency.
			total := in.Count
			parts := 1 + rng.IntN(3)
			counts := make([]int32, parts)
			for i := range counts {
				counts[i] = int32(1 + rng.IntN(4))
				total += counts[i]
			}
			ramp := Ramp{Out: int64(rng.IntN(5000)), Cap: int64(500 + rng.IntN(5000)), First: 1, Total: total}
			in.Ramp = ramp
			p.Instrs = append(p.Instrs, in)
			ramp.First += in.Count
			for _, c := range counts {
				next := in
				next.Cycles = int32(rng.IntN(40))
				next.Count = c
				next.Ramp = ramp
				ramp.First += c
				p.Instrs = append(p.Instrs, next)
			}
			continue
		}
		p.Instrs = append(p.Instrs, in)
	}
	return layer + 1
}

// randomRunProgram builds a hand-assembled program of random runs with
// no loop table: the stream runs once.
func randomRunProgram(rng *rand.Rand) *Program {
	p := &Program{Model: "rand", Batch: 1}
	p.Layers = int(randomRuns(p, rng))
	for i := range p.Instrs {
		p.TotalCycles += p.Instrs[i].RunCycles()
	}
	return p
}

// randomLoopProgram builds a program of one to four loops with random
// bodies and repeat counts — single iterations, long RNN-style
// recurrences, bodies with no work at all — and occasional gaps in the
// layer numbering, as a phase that lowers to no runs leaves.
func randomLoopProgram(rng *rand.Rand) *Program {
	p := &Program{Model: "loops", Batch: 1}
	for n := 1 + rng.IntN(4); n > 0; n-- {
		l := Loop{Start: int32(len(p.Instrs)), Base: int32(p.Layers), Times: int32(1 + rng.IntN(6))}
		if rng.IntN(3) == 0 {
			l.Times = int32(1 + rng.IntN(300))
		}
		l.Layers = randomRuns(p, rng) + int32(rng.IntN(2))
		l.End = int32(len(p.Instrs))
		if rng.IntN(6) == 0 {
			for i := l.Start; i < l.End; i++ {
				p.Instrs[i].Cycles = 0
			}
		}
		p.Loops = append(p.Loops, l)
		p.TotalCycles += int64(l.Times) * p.bodyCycles(&l)
		p.Layers += int(l.Layers*l.Times) + rng.IntN(2)
	}
	return p
}

// refOp is one step of an operation sequence driven against both
// cursors: kind selects the operation, budget sizes an Advance.
type refOp struct {
	kind   int
	budget int64
}

// matchReference drives a cursor at factor f and the per-tile
// reference through ops and reports the first observable on which they
// disagree.
func matchReference(p *Program, f float64, ops []refOp) error {
	e, ref := NewScaledExecution(p, f), newRefExec(p, f)
	if e.TotalCycles() != ref.total {
		return fmt.Errorf("x%g: total %d, reference %d", f, e.TotalCycles(), ref.total)
	}
	for step, op := range ops {
		var got, want int64
		switch op.kind % 8 {
		case 0, 1:
			got, want = e.Advance(op.budget), ref.advance(op.budget)
		case 2:
			// A budget spanning whole iterations (and loops).
			b := op.budget * (1 + ref.total/8)
			got, want = e.Advance(b), ref.advance(b)
		case 3:
			b := e.CyclesToBoundary()
			got, want = b, ref.cyclesToBoundary()
			e.Advance(b)
			ref.advance(b)
		case 4:
			got, want = e.KillToLayerStart(), ref.killToLayerStart()
		case 5:
			// Step into the next iteration's first layer, then kill
			// back to its start.
			b := ref.cyclesToNextIteration() + op.budget%5
			e.Advance(b)
			ref.advance(b)
			got, want = e.KillToLayerStart(), ref.killToLayerStart()
		case 6:
			e.Kill()
			ref.reset()
		default:
			got, want = e.LiveBytes(), ref.liveBytes()
		}
		if got != want {
			return fmt.Errorf("x%g step %d (op %d): result %d, reference %d", f, step, op.kind%8, got, want)
		}
		if e.Done() != ref.isDone() || e.Executed() != ref.done ||
			e.Remaining() != ref.total-ref.done || e.CurrentLayer() != ref.currentLayer() ||
			e.CyclesToBoundary() != ref.cyclesToBoundary() || e.LiveBytes() != ref.liveBytes() {
			return fmt.Errorf("x%g step %d (op %d): cursor state diverged from reference", f, step, op.kind%8)
		}
	}
	return nil
}

// randomOps draws an operation sequence; most budgets are shorter than
// a tile, some span many tiles.
func randomOps(rng *rand.Rand, n int) []refOp {
	ops := make([]refOp, n)
	for i := range ops {
		ops[i] = refOp{kind: rng.IntN(8), budget: int64(rng.IntN(90))}
		if rng.IntN(8) == 0 {
			ops[i].budget = int64(rng.IntN(5000))
		}
	}
	return ops
}

var refFactors = []float64{1, 2, 2.5, 3.7}

// TestExecutionMatchesPerTileReference drives the loop cursor and the
// per-tile reference cursor through the same random operation sequences
// at several speed factors and requires every observable to agree, on
// programs without a loop table and on loop programs.
func TestExecutionMatchesPerTileReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 12))
	for trial := 0; trial < 800; trial++ {
		p := randomRunProgram(rng)
		if trial%2 == 1 {
			p = randomLoopProgram(rng)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated program invalid: %v", trial, err)
		}
		for _, f := range refFactors {
			if err := matchReference(p, f, randomOps(rng, 60)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// FuzzLoopExecution is the coverage-guided form of the identity proof:
// the seed picks a random loop program, the bytes an operation sequence
// and the speed factor.
func FuzzLoopExecution(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 10, 2, 1, 5, 3, 4, 7})
	f.Add(uint64(7), uint8(3), []byte{2, 200, 5, 0, 5, 1, 4, 0, 6, 0, 2, 9})
	f.Add(uint64(42), uint8(2), []byte{3, 0, 1, 255, 5, 4, 7, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, factor uint8, data []byte) {
		p := randomLoopProgram(rand.New(rand.NewPCG(seed, 14)))
		if err := p.Validate(); err != nil {
			t.Fatalf("generated program invalid: %v", err)
		}
		ops := make([]refOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, refOp{kind: int(data[i]), budget: int64(data[i+1])})
		}
		f := refFactors[int(factor)%len(refFactors)]
		if factor >= 128 {
			f = 1 + float64(factor-128)/16
		}
		if err := matchReference(p, f, ops); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScaledExecutionSaturates(t *testing.T) {
	p := testProgram(math.MaxInt32/2, 3)
	e := NewScaledExecution(p, 3)
	if want := int64(math.MaxInt32) + 9; e.TotalCycles() != want {
		t.Errorf("TotalCycles = %d, want %d (saturated tile + 9)", e.TotalCycles(), want)
	}
	if e.Factor() != 3 || NewExecution(p).TotalCycles() != p.TotalCycles {
		t.Error("factor or nominal total wrong")
	}
	for _, bad := range []float64{0.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v should panic", bad)
				}
			}()
			NewScaledExecution(p, bad)
		}()
	}
}
