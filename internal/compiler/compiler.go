// Package compiler lowers a DNN model instance (model, batch size and,
// for RNNs, a concrete unrolled sequence length) into the NPU's CISC
// instruction stream with per-instruction effective latencies.
//
// The stream is emitted as runs of identical tiles (npu.Instr with a
// Count), computed arithmetically from each layer's tiling rather than
// by walking tiles: a program costs O(runs), and a layer is a few runs.
// An RNN instance's phases (dnn.Phase) become the program's loop table:
// each step body is lowered once and repeated by count, so a program's
// size does not depend on the sequence length. The per-tile stream the
// loops and runs expand to is the contract; the package tests keep the
// per-tile lowering of the unrolled layer list as the reference it must
// match.
//
// The timing model is the paper's deterministic weight-stationary dataflow
// (Figure 3, Algorithm 1): every GEMM is tiled into (SW x SH) weight tiles
// streamed against (SH x ACC) activation tiles; double-buffering overlaps
// each tile's memory phase with the previous tile's compute phase, so a
// tile's effective latency is max(compute, memory).
//
// On top of Algorithm 1's first-order terms the compiler adds the
// second-order effects a real NPU pays and the paper's predictor
// deliberately omits — the per-layer weight preamble (first tile's
// non-overlappable load plus a DRAM access), output-spill traffic for
// layers whose activations exceed UBUF, and vector-unit epilogues for
// fused activations. These residues are what give PREMA's predictor its
// small but non-zero estimation error (Section VI-A reports 1.6%).
package compiler

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/stats"
)

// Compiler lowers models for one NPU configuration.
type Compiler struct {
	cfg npu.Config
}

// New returns a Compiler for the given configuration.
func New(cfg npu.Config) (*Compiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Compiler{cfg: cfg}, nil
}

// Config returns the target configuration.
func (c *Compiler) Config() npu.Config { return c.cfg }

// Compile lowers a model instance. For CNNs, inLen/outLen are ignored.
// Each phase of the instance becomes one loop whose body is the phase's
// step lowered once, with run layers indexed within the step.
func (c *Compiler) Compile(m *dnn.Model, batch, inLen, outLen int) (*npu.Program, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("compiler: non-positive batch %d", batch)
	}
	prog := &npu.Program{
		Model:  m.Name,
		Batch:  batch,
		InLen:  inLen,
		OutLen: outLen,
	}
	for _, ph := range m.PhasesFor(inLen, outLen) {
		if int64(prog.Layers)+int64(ph.Times)*int64(len(ph.Body)) > math.MaxInt32 {
			return nil, fmt.Errorf("compiler: model %q unrolls beyond the ISA's 32-bit layer index", m.Name)
		}
		loop := npu.Loop{
			Start:  int32(len(prog.Instrs)),
			Base:   int32(prog.Layers),
			Layers: int32(len(ph.Body)),
			Times:  int32(ph.Times),
		}
		var macs, cycles int64
		for idx, l := range ph.Body {
			if err := l.Validate(); err != nil {
				return nil, fmt.Errorf("compiler: %w", err)
			}
			if err := c.lowerLayer(prog, int32(idx), l, batch); err != nil {
				return nil, err
			}
			macs += l.MACs(batch)
		}
		loop.End = int32(len(prog.Instrs))
		for i := loop.Start; i < loop.End; i++ {
			cycles += prog.Instrs[i].RunCycles()
		}
		if loop.End > loop.Start {
			prog.Loops = append(prog.Loops, loop)
		}
		prog.Layers += ph.Times * len(ph.Body)
		prog.TotalMACs += int64(ph.Times) * macs
		prog.TotalCycles += int64(ph.Times) * cycles
	}
	if prog.Layers == 0 {
		return nil, fmt.Errorf("compiler: model %q produced no layers", m.Name)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// lowerLayer appends the instruction runs for one layer.
func (c *Compiler) lowerLayer(prog *npu.Program, idx int32, l dnn.Layer, batch int) error {
	switch l.Kind {
	case dnn.Conv, dnn.FC, dnn.LSTM:
		return c.lowerGEMM(prog, idx, l, batch)
	case dnn.DWConv, dnn.Pool, dnn.Act:
		return c.lowerVector(prog, idx, l, batch)
	}
	return nil
}

// emit appends a run, merging it into the previous run when the two are
// indistinguishable tile by tile: same op, layer and latency, and either
// the same flat live context or consecutive stretches of one ramp. A
// layer's first run never continues the run before it — a GEMM layer
// opens with its flat LOAD_TILE preamble after the previous layer's
// last tile, and a vector layer's ramp restarts at 1 — so runs never
// merge across layers, nor across loop bodies, whose layer indices
// restart at 0, and the expanded stream is the concatenation of the
// iterations.
func emit(prog *npu.Program, in npu.Instr) {
	if n := len(prog.Instrs); n > 0 {
		last := &prog.Instrs[n-1]
		next := last.Ramp
		if next.Total != 0 {
			next.First += last.Count
		}
		if last.Op == in.Op && last.Layer == in.Layer && last.Cycles == in.Cycles &&
			last.LiveBytes == in.LiveBytes && next == in.Ramp &&
			int64(last.Count)+int64(in.Count) <= math.MaxInt32 {
			last.Count += in.Count
			return
		}
	}
	prog.Instrs = append(prog.Instrs, in)
}

// rampTiles checks that a layer's tile count fits a ramp's 32-bit
// index.
func rampTiles(idx int32, tiles int64) (int32, error) {
	if tiles > math.MaxInt32 {
		return 0, fmt.Errorf("compiler: layer %d lowers to %d tiles, beyond the ISA's 32-bit tile index", idx, tiles)
	}
	return int32(tiles), nil
}

// TileTime returns the effective latency of one GEMM tile with kTile
// reduction rows and n streamed activation columns, per Algorithm 1:
// compute = n + SH + 2*SW (pipeline fill, stream, drain and weight
// staging), memory = (weight tile + activation tile bytes) / bandwidth,
// effective = max of the two under double buffering.
func TileTime(cfg npu.Config, kTile, n int) int64 {
	compute := int64(n) + int64(cfg.SH) + 2*int64(cfg.SW)
	bytes := dnn.Bytes(int64(cfg.SH)*int64(cfg.SW) + int64(kTile)*int64(n))
	mem := cfg.MemCycles(bytes)
	if mem > compute {
		return mem
	}
	return compute
}

// gemmTiles describes the tiling of a GEMM shape onto the array.
type gemmTiles struct {
	mTiles, kTiles int // full coverage counts (ceil)
	nInner, nOuter int // inner tiles stream ACC columns; outer the residue
	outerN         int // residual column count (0 if none)
	kLast          int // reduction rows in the final k tile
}

func tile(cfg npu.Config, g dnn.GEMMShape) gemmTiles {
	t := gemmTiles{
		mTiles: stats.CeilDiv(g.M, cfg.SW),
		kTiles: stats.CeilDiv(g.K, cfg.SH),
		nInner: g.N / cfg.ACC,
		outerN: g.N % cfg.ACC,
	}
	if t.outerN > 0 {
		t.nOuter = 1
	}
	t.kLast = g.K - (t.kTiles-1)*cfg.SH
	return t
}

// lowerGEMM emits the instruction runs for a GEMM-mapped layer: a
// weight preamble (LOAD_TILE + DRAM latency, not overlappable because
// the pipeline is empty), one CONV_OP/GEMM_OP per tile with the
// double-buffered effective latency, an optional STORE_TILE spill when
// outputs exceed UBUF, and a VECTOR_OP epilogue for fused activations.
//
// The tiles are walked m-major, then k, then n: inner n tiles stream ACC
// columns and the outer one the residue, and the last k tile reduces
// only the leftover rows. So one m row of tiles is the same short
// pattern of latencies every time, and the layer lowers to that
// pattern's runs repeated per m — or to a single run when the pattern
// has one latency.
func (c *Compiler) lowerGEMM(prog *npu.Program, idx int32, l dnn.Layer, batch int) error {
	g, ok := l.GEMM(batch)
	if !ok || !g.Valid() {
		return nil
	}
	cfg := c.cfg
	t := tile(cfg, g)
	op := npu.GEMMOp
	if l.Kind == dnn.Conv {
		op = npu.ConvOp
	}

	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	spills := outBytes > cfg.UBUFBytes

	// Preamble: first weight tile load with the pipeline idle.
	preBytes := dnn.Bytes(int64(cfg.SH) * int64(cfg.SW))
	pre := cfg.MemCycles(preBytes) + cfg.MemLatencyCycles
	emit(prog, npu.Instr{
		Op: npu.LoadTile, Layer: idx, Count: 1,
		Cycles:    clampCycles(pre),
		LiveBytes: liveBytes(cfg, inBytes, 0),
	})

	total, err := rampTiles(idx, int64(t.mTiles)*int64(t.kTiles)*int64(t.nInner+t.nOuter))
	if err != nil {
		return err
	}
	tileCycles := func(kTile, n int) int32 {
		cycles := TileTime(cfg, kTile, n)
		if spills {
			// Output rows leave UBUF for DRAM as they are produced;
			// the extra write traffic competes with tile fetches.
			extra := cfg.MemCycles(dnn.Bytes(int64(cfg.SW) * int64(n)))
			if mem := extra + memOnly(cfg, kTile, n); mem > cycles {
				cycles = mem
			}
		}
		return clampCycles(cycles)
	}

	// One m row: the full-height k tiles, then the last k tile.
	type seg struct {
		cycles int32
		count  int64
	}
	row := make([]seg, 0, 4) // one m row is usually one or two runs
	add := func(cycles int32, count int64) {
		if count == 0 {
			return
		}
		if n := len(row); n > 0 && row[n-1].cycles == cycles {
			row[n-1].count += count
			return
		}
		row = append(row, seg{cycles, count})
	}
	kFull := int64(t.kTiles - 1)
	switch {
	case t.nInner > 0 && t.nOuter > 0:
		in, out := tileCycles(cfg.SH, cfg.ACC), tileCycles(cfg.SH, t.outerN)
		for k := int64(0); k < kFull; k++ {
			add(in, int64(t.nInner))
			add(out, 1)
		}
	case t.nInner > 0:
		add(tileCycles(cfg.SH, cfg.ACC), kFull*int64(t.nInner))
	default:
		add(tileCycles(cfg.SH, t.outerN), kFull)
	}
	if t.nInner > 0 {
		add(tileCycles(t.kLast, cfg.ACC), int64(t.nInner))
	}
	if t.nOuter > 0 {
		add(tileCycles(t.kLast, t.outerN), 1)
	}

	ramp := npu.Ramp{Out: outBytes, Cap: cfg.UBUFBytes, First: 1, Total: total}
	run := func(s seg) {
		emit(prog, npu.Instr{
			Op: op, Layer: idx, Cycles: s.cycles, Count: int32(s.count),
			LiveBytes: inBytes, Ramp: ramp,
		})
		ramp.First += int32(s.count)
	}
	if len(row) == 1 {
		run(seg{row[0].cycles, row[0].count * int64(t.mTiles)})
	} else {
		for m := 0; m < t.mTiles; m++ {
			for _, s := range row {
				run(s)
			}
		}
	}

	if spills {
		// Residual drain of the final output rows that could not
		// overlap with further compute.
		drain := cfg.MemCycles(dnn.Bytes(int64(cfg.SW)*int64(cfg.ACC))) + cfg.MemLatencyCycles
		emit(prog, npu.Instr{
			Op: npu.StoreTile, Layer: idx, Count: 1,
			Cycles:    clampCycles(drain),
			LiveBytes: liveBytes(cfg, 0, outBytes),
		})
	}

	if l.FusedAct {
		// Fused activation epilogue: the vector unit chases the GEMM
		// output stream, so only a fraction of its work extends the
		// critical path.
		ep := l.OutputElems(batch) / int64(cfg.VectorLanes) / 4
		if ep > 0 {
			emit(prog, npu.Instr{
				Op: npu.VectorOp, Layer: idx, Count: 1,
				Cycles:    clampCycles(ep),
				LiveBytes: liveBytes(cfg, 0, outBytes),
			})
		}
	}
	return nil
}

// memOnly returns the tile's memory phase without the weight preamble.
func memOnly(cfg npu.Config, kTile, n int) int64 {
	return cfg.MemCycles(dnn.Bytes(int64(cfg.SH)*int64(cfg.SW) + int64(kTile)*int64(n)))
}

// lowerVector emits vector-unit work for layers that bypass the systolic
// array: depthwise convolutions, pooling, standalone activations. The
// latency is element throughput bound by the vector lanes, or by memory
// when the layer is bandwidth bound.
func (c *Compiler) lowerVector(prog *npu.Program, idx int32, l dnn.Layer, batch int) error {
	cfg := c.cfg
	macs := l.MACs(batch)
	compute := stats.CeilDiv64(macs, int64(cfg.VectorLanes))
	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	wBytes := dnn.Bytes(l.WeightElems())
	mem := cfg.MemCycles(inBytes + wBytes)
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	cycles += cfg.MemLatencyCycles

	// Split long vector layers into ACC-sized chunks so preemption
	// points stay fine-grained (footnote 2: tile-boundary preemption):
	// equal chunks, the last one absorbing the remainder.
	const chunkTarget = 1 << 14 // cycles per emitted instruction
	chunks, err := rampTiles(idx, cycles/chunkTarget+1)
	if err != nil {
		return err
	}
	per := cycles / int64(chunks)
	rem := cycles - per*int64(chunks)
	ramp := npu.Ramp{Out: outBytes, Cap: cfg.UBUFBytes, First: 1, Total: chunks}
	if chunks > 1 {
		emit(prog, npu.Instr{
			Op: npu.VectorOp, Layer: idx, Cycles: clampCycles(per), Count: chunks - 1,
			LiveBytes: inBytes, Ramp: ramp,
		})
	}
	ramp.First = chunks
	emit(prog, npu.Instr{
		Op: npu.VectorOp, Layer: idx, Cycles: clampCycles(per + rem), Count: 1,
		LiveBytes: inBytes, Ramp: ramp,
	})
	return nil
}

// liveBytes models the checkpointable on-chip context: resident input
// activations plus the output activations produced so far, capped by the
// UBUF capacity (activations beyond UBUF stream through DRAM and need no
// checkpointing; Section IV-B).
func liveBytes(cfg npu.Config, inBytes, producedOut int64) int64 {
	live := inBytes + producedOut
	if live > cfg.UBUFBytes {
		live = cfg.UBUFBytes
	}
	return live
}

func clampCycles(c int64) int32 {
	const max = 1<<31 - 1
	if c > max {
		return max
	}
	if c < 0 {
		return 0
	}
	return int32(c)
}
