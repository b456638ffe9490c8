package npu

import (
	"fmt"
	"iter"
)

// Op is a CISC opcode of the NPU ISA (Section II-B). The performance model
// simulates at committed-instruction granularity: LOAD_TILE/STORE_TILE
// traffic that double-buffering fully overlaps with compute is folded into
// the effective latency of the GEMM_OP/CONV_OP it overlaps with, while
// non-overlappable transfers (per-layer weight preambles, output spills)
// appear as their own instructions.
type Op uint8

const (
	// LoadTile moves activations or weights from DRAM into UBUF or the
	// weight buffer.
	LoadTile Op = iota
	// GEMMOp multiplies a latched weight tile with streamed activations.
	GEMMOp
	// ConvOp is a lowered convolution executed as a GEMM (Section II-B).
	ConvOp
	// VectorOp applies element-wise math on the vector unit.
	VectorOp
	// StoreTile moves output activations from UBUF back to DRAM.
	StoreTile
)

var opNames = [...]string{"LOAD_TILE", "GEMM_OP", "CONV_OP", "VECTOR_OP", "STORE_TILE"}

// String returns the ISA mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is a run of Count consecutive committed instructions — tiles —
// that share an opcode, a layer and an effective latency. PREMA's timing
// model (Algorithm 1) tiles every GEMM into weight tiles of identical
// latency and its preemption points sit on tile boundaries (footnote 2),
// so a layer lowers to a handful of runs rather than one record per tile.
// Every tile of a run is still a separate commit and preemption point;
// Tile expands one of them.
type Instr struct {
	// Op is the ISA opcode.
	Op Op
	// Layer indexes the instantiated layer list the program was
	// compiled from.
	Layer int32
	// Cycles is each tile's effective latency: for GEMM_OP and
	// CONV_OP tiles this is max(compute, memory) per Algorithm 1's
	// double-buffering model.
	Cycles int32
	// Count is the number of tiles in the run (at least 1).
	Count int32
	// LiveBytes is the checkpointable on-chip context (output
	// activations resident in UBUF/ACCQ, Section IV-B) after each tile
	// of the run commits — or, when Ramp is set, the resident input
	// bytes the ramp's produced output adds to. Preemption via
	// CHECKPOINT at a tile boundary must persist exactly the tile's
	// live bytes (LiveAt).
	LiveBytes int64
	// Ramp, when its Total is non-zero, makes the live context grow
	// tile by tile as the layer produces its output.
	Ramp Ramp
}

// Ramp is the live-context progression of a layer's tiles: after the
// i-th of Total tiles (1-based) commits, the layer has produced
// int64(float64(Out)*float64(i)/float64(Total)) output bytes, and the
// live context is the run's LiveBytes plus that, capped at Cap.
type Ramp struct {
	// Out is the output bytes the whole ramp produces.
	Out int64
	// Cap bounds the live context (the UBUF capacity: activations
	// beyond it stream through DRAM and need no checkpointing).
	Cap int64
	// First is the 1-based ramp index of the run's first tile.
	First int32
	// Total is the number of tiles in the whole ramp; zero means the
	// run's live context is flat.
	Total int32
}

// LiveAt returns the checkpointable context after tile j (0-based) of
// the run commits.
func (in *Instr) LiveAt(j int32) int64 {
	r := &in.Ramp
	if r.Total == 0 {
		return in.LiveBytes
	}
	live := in.LiveBytes + int64(float64(r.Out)*float64(r.First+j)/float64(r.Total))
	if live > r.Cap {
		live = r.Cap
	}
	return live
}

// Tile returns tile j (0-based) of the run as a single-tile record with
// its own live context — the per-instruction view the binary encoding
// and the disassembler's single-instruction lines use.
func (in *Instr) Tile(j int32) Instr {
	return Instr{Op: in.Op, Layer: in.Layer, Cycles: in.Cycles, Count: 1, LiveBytes: in.LiveAt(j)}
}

// RunCycles returns the cycles of the whole run.
func (in *Instr) RunCycles() int64 { return int64(in.Count) * int64(in.Cycles) }

// Loop is one entry of a program's loop table: a body of runs executed
// Times times in a row. An RNN instance repeats one timestep's cell
// layers per step (Section III), so its program stores each phase's
// step body once and a repeat count, and its size does not depend on
// the sequence length; a CNN is one loop run once.
type Loop struct {
	// Start and End delimit the body, Instrs[Start:End].
	Start, End int32
	// Base is the program-wide index of the loop's first layer.
	Base int32
	// Layers is the number of layers one iteration covers. A body
	// run's Layer is its index within the iteration, so iteration t's
	// run stands for layer Base + t×Layers + Layer.
	Layers int32
	// Times is the repeat count (at least 1).
	Times int32
}

// Program is a compiled instruction stream for one inference task
// instance, together with summary statistics the scheduler and the
// metrics pipeline need.
//
// The stream the NPU commits is the loop table expanded: each loop's
// body, Times times, in table order. Runs yields that expansion.
type Program struct {
	// Model is the workload label the program was compiled from.
	Model string
	// Batch is the inference batch size.
	Batch int
	// InLen and OutLen are the sequence lengths of an RNN instance
	// (zero for CNNs).
	InLen, OutLen int
	// Instrs holds the loop bodies' runs of identical tiles, body
	// after body.
	Instrs []Instr
	// Loops is the loop table over Instrs. Compiled programs always
	// carry one; a nil table (a program assembled by hand) runs the
	// whole stream once.
	Loops []Loop
	// TotalCycles is the isolated, uninterrupted execution time.
	TotalCycles int64
	// TotalMACs is the arithmetic work represented by the program.
	TotalMACs int64
	// Layers is the number of instantiated layers, across all
	// iterations.
	Layers int
}

// LoopTable returns the program's loop table, or the single loop that
// runs the whole stream once when the program has none.
func (p *Program) LoopTable() []Loop {
	if p.Loops != nil {
		return p.Loops
	}
	return []Loop{{End: int32(len(p.Instrs)), Layers: int32(p.Layers), Times: 1}}
}

// bodyCycles returns the nominal cycles of one iteration of loop l.
func (p *Program) bodyCycles(l *Loop) int64 {
	var sum int64
	for i := l.Start; i < l.End; i++ {
		sum += p.Instrs[i].RunCycles()
	}
	return sum
}

// Runs yields the expanded stream: every iteration of every loop in
// order, each run carrying its program-wide layer index.
func (p *Program) Runs() iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for _, l := range p.LoopTable() {
			for t := int32(0); t < l.Times; t++ {
				base := l.Base + t*l.Layers
				for _, in := range p.Instrs[l.Start:l.End] {
					in.Layer += base
					if !yield(in) {
						return
					}
				}
			}
		}
	}
}

// Validate checks program invariants: non-empty runs, non-negative
// latencies and live state, well-formed ramps, a loop table whose
// bodies tile the stream in order, and a consistent total.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("npu: program %q has no instructions", p.Model)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Count < 1 {
			return fmt.Errorf("npu: program %q run %d has tile count %d", p.Model, i, in.Count)
		}
		if in.Cycles < 0 {
			return fmt.Errorf("npu: program %q run %d has negative cycles", p.Model, i)
		}
		if in.LiveBytes < 0 {
			return fmt.Errorf("npu: program %q run %d has negative live bytes", p.Model, i)
		}
		if r := in.Ramp; r.Total != 0 &&
			(r.Out < 0 || r.Cap < 0 || r.First < 1 || int64(r.First)+int64(in.Count)-1 > int64(r.Total)) {
			return fmt.Errorf("npu: program %q run %d has a malformed live ramp %+v", p.Model, i, r)
		}
	}
	var next int32
	var base int64
	for k := range p.Loops {
		l := &p.Loops[k]
		if l.Start != next || l.End <= l.Start || int(l.End) > len(p.Instrs) ||
			l.Times < 1 || l.Layers < 1 || int64(l.Base) < base {
			return fmt.Errorf("npu: program %q loop %d is malformed %+v", p.Model, k, *l)
		}
		for i := l.Start; i < l.End; i++ {
			if layer := p.Instrs[i].Layer; layer < 0 || layer >= l.Layers {
				return fmt.Errorf("npu: program %q run %d has layer %d outside its loop's %d",
					p.Model, i, layer, l.Layers)
			}
		}
		next, base = l.End, int64(l.Base)+int64(l.Layers)*int64(l.Times)
	}
	if p.Loops != nil && int(next) != len(p.Instrs) {
		return fmt.Errorf("npu: program %q loop table covers %d of %d runs", p.Model, next, len(p.Instrs))
	}
	var sum int64
	for _, l := range p.LoopTable() {
		sum += int64(l.Times) * p.bodyCycles(&l)
	}
	if sum != p.TotalCycles {
		return fmt.Errorf("npu: program %q total %d != instruction sum %d",
			p.Model, p.TotalCycles, sum)
	}
	return nil
}

// MaxLiveBytes returns the largest checkpointable context across all
// preemption points of the program. Every body run executes at least
// once and a ramp never shrinks, so each run's largest context is its
// last tile's.
func (p *Program) MaxLiveBytes() int64 {
	var max int64
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if live := in.LiveAt(in.Count - 1); live > max {
			max = live
		}
	}
	return max
}

// Tiles returns the number of committed instructions (tiles) the
// program expands to.
func (p *Program) Tiles() int64 {
	var n int64
	for _, l := range p.LoopTable() {
		var body int64
		for i := l.Start; i < l.End; i++ {
			body += int64(p.Instrs[i].Count)
		}
		n += int64(l.Times) * body
	}
	return n
}
