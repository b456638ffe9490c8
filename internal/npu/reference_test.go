package npu

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refExec is the per-tile reference cursor: the executor as it was
// before programs held runs. It walks one record per tile, and a speed
// factor is applied the way slowed backends used to apply it — by
// stretching a copy of the program, every tile to ceil(cycles×factor).
type refExec struct {
	instrs []Instr
	total  int64
	pc     int
	rem    int64
	done   int64
}

func newRefExec(p *Program, factor float64) *refExec {
	r := &refExec{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for j := int32(0); j < in.Count; j++ {
			tile := in.Tile(j)
			tile.Cycles = int32(math.Ceil(float64(tile.Cycles) * factor))
			r.instrs = append(r.instrs, tile)
			r.total += int64(tile.Cycles)
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

// randomRunProgram builds a program of random runs: zero-latency runs,
// multi-run layers, and ramps continued across consecutive runs, the
// shapes the compiler emits.
func randomRunProgram(rng *rand.Rand) *Program {
	p := &Program{Model: "rand", Batch: 1}
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
	for i := range p.Instrs {
		p.TotalCycles += p.Instrs[i].RunCycles()
	}
	return p
}

// TestExecutionMatchesPerTileReference drives the run cursor and the
// per-tile reference cursor through the same random operation sequences
// at several speed factors and requires every observable to agree.
func TestExecutionMatchesPerTileReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 12))
	for trial := 0; trial < 400; trial++ {
		p := randomRunProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated program invalid: %v", trial, err)
		}
		for _, f := range []float64{1, 2, 2.5, 3.7} {
			e, ref := NewScaledExecution(p, f), newRefExec(p, f)
			if e.TotalCycles() != ref.total {
				t.Fatalf("trial %d x%g: total %d, reference %d", trial, f, e.TotalCycles(), ref.total)
			}
			for step := 0; step < 60; step++ {
				var got, want int64
				switch op := rng.IntN(10); {
				case op < 5:
					b := int64(rng.IntN(90))
					if rng.IntN(8) == 0 {
						b = int64(rng.IntN(5000))
					}
					got, want = e.Advance(b), ref.advance(b)
				case op < 7:
					b := e.CyclesToBoundary()
					got, want = b, ref.cyclesToBoundary()
					e.Advance(b)
					ref.advance(b)
				case op == 7:
					got, want = e.KillToLayerStart(), ref.killToLayerStart()
				case op == 8:
					e.Kill()
					ref.reset()
				default:
					got, want = e.LiveBytes(), ref.liveBytes()
				}
				if got != want {
					t.Fatalf("trial %d x%g step %d: result %d, reference %d", trial, f, step, got, want)
				}
				if e.Done() != ref.isDone() || e.Executed() != ref.done ||
					e.Remaining() != ref.total-ref.done || e.CurrentLayer() != ref.currentLayer() ||
					e.CyclesToBoundary() != ref.cyclesToBoundary() || e.LiveBytes() != ref.liveBytes() {
					t.Fatalf("trial %d x%g step %d: cursor state diverged from reference", trial, f, step)
				}
			}
		}
	}
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
