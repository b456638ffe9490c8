package compiler

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/stats"
)

func newCompiler(t *testing.T) *Compiler {
	t.Helper()
	c, err := New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := npu.DefaultConfig()
	cfg.SW = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestCompileRejectsBadInputs(t *testing.T) {
	c := newCompiler(t)
	if _, err := c.Compile(dnn.AlexNet(), 0, 0, 0); err == nil {
		t.Error("zero batch should be rejected")
	}
	empty := &dnn.Model{Name: "empty", Class: dnn.CNN}
	if _, err := c.Compile(empty, 1, 0, 0); err == nil {
		t.Error("empty model should be rejected")
	}
}

func TestCompiledProgramsValidate(t *testing.T) {
	c := newCompiler(t)
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			inLen, outLen := 0, 0
			if m.IsRNN() {
				inLen, outLen = m.MinInLen, m.MinInLen
			}
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatalf("%s b%d: %v", m.Name, b, err)
			}
			if err := prog.Validate(); err != nil {
				t.Errorf("%s b%d: %v", m.Name, b, err)
			}
			if prog.TotalCycles <= 0 || prog.TotalMACs <= 0 {
				t.Errorf("%s b%d: empty totals %d/%d", m.Name, b, prog.TotalCycles, prog.TotalMACs)
			}
		}
	}
}

func TestLatenciesLandInPaperBand(t *testing.T) {
	// Section IV-D: network-wide inference time is 0.5 to 45 ms across
	// the eight benchmarks. Allow modest slack at both ends.
	c := newCompiler(t)
	cfg := c.Config()
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			inLen, outLen := 0, 0
			if m.IsRNN() {
				inLen = (m.MinInLen + m.MaxInLen) / 2
				outLen = inLen
				if m.SeqProfile == "mt-zh" {
					outLen = inLen * 11 / 2
				}
			}
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatal(err)
			}
			ms := cfg.Millis(prog.TotalCycles)
			if ms < 0.2 || ms > 60 {
				t.Errorf("%s b%d: %.2f ms outside the plausible band", m.Name, b, ms)
			}
		}
	}
}

func TestTileTimeRegimes(t *testing.T) {
	cfg := npu.DefaultConfig()
	// Full inner tile: compute phase is ACC + SH + 2*SW.
	wantCompute := int64(cfg.ACC + cfg.SH + 2*cfg.SW)
	if got := TileTime(cfg, cfg.SH, cfg.ACC); got != wantCompute {
		t.Errorf("inner TileTime = %d, want compute-bound %d", got, wantCompute)
	}
	// Single-column tile (GEMV): pipeline fill dominates.
	if got := TileTime(cfg, cfg.SH, 1); got != int64(1+cfg.SH+2*cfg.SW) {
		t.Errorf("GEMV TileTime = %d", got)
	}
	// A memory-starved configuration must become bandwidth-bound.
	slow := cfg
	slow.MemBWBytesPerSec = 1e9
	got := TileTime(slow, slow.SH, slow.ACC)
	mem := slow.MemCycles(dnn.Bytes(int64(slow.SH*slow.SW) + int64(slow.SH*slow.ACC)))
	if got != mem {
		t.Errorf("slow-memory TileTime = %d, want memory-bound %d", got, mem)
	}
}

func TestTileTimeMonotonicInN(t *testing.T) {
	cfg := npu.DefaultConfig()
	prev := int64(0)
	for n := 1; n <= cfg.ACC; n *= 2 {
		got := TileTime(cfg, cfg.SH, n)
		if got < prev {
			t.Errorf("TileTime not monotone at n=%d: %d < %d", n, got, prev)
		}
		prev = got
	}
}

// wsArray is a test-only, cycle-stepped weight-stationary systolic array
// (Figure 3(b)): PE(i,j) holds weight w[i][j], activations enter row i
// skewed by i cycles and move one PE right per cycle, and partial sums
// move one PE down per cycle into the accumulators below the grid. It is
// the reference TileTime's compute term is checked against.
type wsArray struct {
	rows, cols int
	w          [][]int32 // rows x cols
}

// wsReg is a PE output register; tag is the activation column it
// carries, -1 for a pipeline bubble.
type wsReg struct {
	v   int32
	tag int
}

// stream pushes the activation columns act[t] (each of height rows)
// through the array and returns out[j][t] = sum_i w[i][j]*act[t][i]
// together with the cycles the tile occupied the array, from the first
// injection to the last accumulator commit.
func (a *wsArray) stream(act [][]int32) (out [][]int32, cycles int) {
	n := len(act)
	out = make([][]int32, a.cols)
	for j := range out {
		out[j] = make([]int32, n)
	}
	bubble := wsReg{tag: -1}
	acts := make([][]wsReg, a.rows)
	sums := make([][]wsReg, a.rows)
	for i := range acts {
		acts[i] = make([]wsReg, a.cols)
		sums[i] = make([]wsReg, a.cols)
		for j := range acts[i] {
			acts[i][j], sums[i][j] = bubble, bubble
		}
	}
	for cycle, left := 0, n*a.cols; left > 0; cycle++ {
		// The accumulators latch what the bottom row produced last
		// cycle.
		for j, r := range sums[a.rows-1] {
			if r.tag >= 0 {
				out[j][r.tag] = r.v
				left--
				cycles = cycle + 1
			}
		}
		// Every PE steps at once: walking bottom-right to top-left reads
		// each neighbour's register before that neighbour overwrites it.
		for i := a.rows - 1; i >= 0; i-- {
			for j := a.cols - 1; j >= 0; j-- {
				in := bubble
				if j > 0 {
					in = acts[i][j-1]
				} else if t := cycle - i; t >= 0 && t < n {
					in = wsReg{v: act[t][i], tag: t}
				}
				acts[i][j] = in
				if in.tag < 0 {
					sums[i][j] = bubble
					continue
				}
				var acc int32
				if i > 0 {
					acc = sums[i-1][j].v
				}
				sums[i][j] = wsReg{v: acc + a.w[i][j]*in.v, tag: in.tag}
			}
		}
	}
	return out, cycles
}

// randWSTile draws a random array shape, weights and activation columns
// for the cycle-stepped reference, with small values so products never
// overflow.
func randWSTile(rng *rand.Rand) (a *wsArray, act [][]int32) {
	small := func() int32 { return int32(rng.IntN(17) - 8) }
	rows, cols, n := 1+rng.IntN(32), 1+rng.IntN(32), 1+rng.IntN(64)
	a = &wsArray{rows: rows, cols: cols, w: make([][]int32, rows)}
	for i := range a.w {
		a.w[i] = make([]int32, cols)
		for j := range a.w[i] {
			a.w[i][j] = small()
		}
	}
	act = make([][]int32, n)
	for tc := range act {
		act[tc] = make([]int32, rows)
		for i := range act[tc] {
			act[tc][i] = small()
		}
	}
	return a, act
}

// TestStreamMatchesMatMulProperty checks that the cycle-stepped reference
// computes the exact matrix product for random shapes, so the occupancy
// it measures below is that of a working dataflow.
func TestStreamMatchesMatMulProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 60; trial++ {
		a, act := randWSTile(rng)
		out, _ := a.stream(act)
		for j := 0; j < a.cols; j++ {
			for tc := range act {
				var want int32
				for i := 0; i < a.rows; i++ {
					want += a.w[i][j] * act[tc][i]
				}
				if out[j][tc] != want {
					t.Fatalf("%dx%d n=%d: out[%d][%d] = %d, naive matmul %d",
						a.rows, a.cols, len(act), j, tc, out[j][tc], want)
				}
			}
		}
	}
}

// TestMeasuredCyclesMatchAnalyticFormula validates Algorithm 1's tile-time
// model against the cycle-stepped reference: the array occupies
// n + rows + cols - 1 cycles, and TileTime's compute term n + SH + 2*SW
// is that occupancy plus the SW+1-cycle weight-staging pass.
func TestMeasuredCyclesMatchAnalyticFormula(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 60; trial++ {
		a, act := randWSTile(rng)
		rows, cols, n := a.rows, a.cols, len(act)
		_, cycles := a.stream(act)
		if want := n + rows + cols - 1; cycles != want {
			t.Errorf("%dx%d n=%d: measured occupancy %d cycles, want %d", rows, cols, n, cycles, want)
		}

		cfg := npu.DefaultConfig()
		cfg.SH, cfg.SW = rows, cols
		compute := int64(n + rows + 2*cols)
		if mem := cfg.MemCycles(dnn.Bytes(int64(rows*cols + rows*n))); mem >= compute {
			t.Fatalf("%dx%d n=%d: memory term %d binds; the check needs a compute-bound tile", rows, cols, n, mem)
		}
		if got, want := TileTime(cfg, rows, n), int64(cycles+1+cols); got != want {
			t.Errorf("%dx%d n=%d: TileTime = %d, want occupancy %d + 1 + SW %d = %d",
				rows, cols, n, got, cycles, cols, want)
		}
	}
}

func TestBatchMonotonicity(t *testing.T) {
	c := newCompiler(t)
	for _, m := range dnn.Suite() {
		inLen, outLen := 0, 0
		if m.IsRNN() {
			inLen, outLen = m.MinInLen, m.MinInLen
		}
		var prev int64
		for _, b := range dnn.BatchSizes {
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatal(err)
			}
			if prog.TotalCycles < prev {
				t.Errorf("%s: cycles decreased with batch (%d < %d)", m.Name, prog.TotalCycles, prev)
			}
			prev = prog.TotalCycles
		}
	}
}

func TestLiveBytesBoundedByUBUF(t *testing.T) {
	c := newCompiler(t)
	cfg := c.Config()
	for _, m := range dnn.Suite() {
		inLen, outLen := 0, 0
		if m.IsRNN() {
			inLen, outLen = m.MinInLen, m.MinInLen
		}
		prog, err := c.Compile(m, 16, inLen, outLen)
		if err != nil {
			t.Fatal(err)
		}
		if max := prog.MaxLiveBytes(); max > cfg.UBUFBytes {
			t.Errorf("%s: live bytes %d exceed UBUF %d", m.Name, max, cfg.UBUFBytes)
		}
	}
}

func TestLiveBytesGrowWithinLayer(t *testing.T) {
	// Within a single conv layer whose footprint fits UBUF, the
	// checkpointable state must be non-decreasing as tiles commit.
	c := newCompiler(t)
	model := &dnn.Model{Name: "single", Class: dnn.CNN, Static: []dnn.Layer{
		dnn.NewConv("c", 14, 14, 128, 128, 3, 1, 1),
	}}
	prog, err := c.Compile(model, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, in := range expand(prog) {
		if in.Op != npu.ConvOp {
			continue
		}
		if in.LiveBytes < prev {
			t.Fatalf("live bytes shrank mid-layer: %d -> %d", prev, in.LiveBytes)
		}
		prev = in.LiveBytes
	}
	if prev <= 0 {
		t.Fatal("no conv tiles emitted")
	}
}

func TestRNNProgramScalesWithOutLen(t *testing.T) {
	c := newCompiler(t)
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	short, err := c.Compile(m, 1, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.Compile(m, 1, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	if long.TotalCycles <= short.TotalCycles {
		t.Errorf("longer decode not slower: %d vs %d", long.TotalCycles, short.TotalCycles)
	}
	ratio := float64(long.TotalCycles) / float64(short.TotalCycles)
	if ratio < 3 {
		t.Errorf("decode scaling too weak: ratio %.2f for 10x output", ratio)
	}
}

func TestGEMMOpsAreCONVForConvLayers(t *testing.T) {
	c := newCompiler(t)
	prog, err := c.Compile(dnn.AlexNet(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opCount := map[npu.Op]int{}
	for _, in := range prog.Instrs {
		opCount[in.Op]++
	}
	if opCount[npu.ConvOp] == 0 {
		t.Error("AlexNet program has no CONV_OP instructions")
	}
	if opCount[npu.GEMMOp] == 0 {
		t.Error("AlexNet program has no GEMM_OP instructions (FC layers)")
	}
	if opCount[npu.LoadTile] == 0 {
		t.Error("no weight-preamble LOAD_TILE instructions")
	}
	if opCount[npu.VectorOp] == 0 {
		t.Error("no VECTOR_OP instructions (pools / fused activations)")
	}
}

func TestDepthwiseRoutedToVectorUnit(t *testing.T) {
	c := newCompiler(t)
	prog, err := c.Compile(dnn.MobileNet(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers := dnn.MobileNet().Static
	for _, in := range prog.Instrs {
		if layers[in.Layer].Kind == dnn.DWConv && in.Op != npu.VectorOp {
			t.Fatalf("depthwise layer %s emitted %v", layers[in.Layer].Name, in.Op)
		}
	}
}

// Property: compiling the same instance twice yields identical programs
// (the whole timing model is deterministic).
func TestCompileDeterministic(t *testing.T) {
	c := newCompiler(t)
	m := dnn.GoogLeNet()
	a, err := c.Compile(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compile(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || len(a.Instrs) != len(b.Instrs) {
		t.Fatal("compilation is not deterministic")
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

// Property: random small conv layers compile to valid programs whose
// cycles are at least the ideal compute lower bound scaled by tiling.
func TestRandomConvCompileProperty(t *testing.T) {
	c := newCompiler(t)
	rng := rand.New(rand.NewPCG(2, 3))
	f := func() bool {
		hw := 4 + rng.IntN(60)
		k := 1 + 2*rng.IntN(3) // 1,3,5
		if k > hw {
			k = 1
		}
		l := dnn.NewConv("c", hw, hw, 1+rng.IntN(128), 1+rng.IntN(256), k, 1, k/2)
		m := &dnn.Model{Name: "r", Class: dnn.CNN, Static: []dnn.Layer{l}}
		prog, err := c.Compile(m, 1+rng.IntN(8), 0, 0)
		if err != nil {
			return false
		}
		return prog.Validate() == nil && prog.TotalCycles > 0
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// expand returns prog's tiles one record each: every loop iteration's
// runs, tile by tile, with program-wide layer indices.
func expand(prog *npu.Program) []npu.Instr {
	var out []npu.Instr
	for in := range prog.Runs() {
		for j := int32(0); j < in.Count; j++ {
			out = append(out, in.Tile(j))
		}
	}
	return out
}

// refCompile is the per-tile reference lowering: it walks the fully
// unrolled layer list and emits one count-1 record per committed
// instruction, walking every tile, exactly as the compiler did before it
// emitted runs and loops. The compact program must expand to this stream
// field for field.
func refCompile(c *Compiler, m *dnn.Model, batch, inLen, outLen int) ([]npu.Instr, int64) {
	var out []npu.Instr
	for idx, l := range m.LayersFor(inLen, outLen) {
		switch l.Kind {
		case dnn.Conv, dnn.FC, dnn.LSTM:
			out = refLowerGEMM(c.cfg, out, int32(idx), l, batch)
		case dnn.DWConv, dnn.Pool, dnn.Act:
			out = refLowerVector(c.cfg, out, int32(idx), l, batch)
		}
	}
	var total int64
	for _, in := range out {
		total += int64(in.Cycles)
	}
	return out, total
}

func refLowerGEMM(cfg npu.Config, out []npu.Instr, idx int32, l dnn.Layer, batch int) []npu.Instr {
	g, ok := l.GEMM(batch)
	if !ok || !g.Valid() {
		return out
	}
	t := tile(cfg, g)
	op := npu.GEMMOp
	if l.Kind == dnn.Conv {
		op = npu.ConvOp
	}
	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	spills := outBytes > cfg.UBUFBytes
	pre := cfg.MemCycles(dnn.Bytes(int64(cfg.SH)*int64(cfg.SW))) + cfg.MemLatencyCycles
	out = append(out, npu.Instr{Op: npu.LoadTile, Layer: idx, Count: 1,
		Cycles: clampCycles(pre), LiveBytes: liveBytes(cfg, inBytes, 0)})
	totalTiles := t.mTiles * t.kTiles * (t.nInner + t.nOuter)
	emitted := 0
	emitTile := func(kTile, n int) {
		cycles := TileTime(cfg, kTile, n)
		if spills {
			extra := cfg.MemCycles(dnn.Bytes(int64(cfg.SW) * int64(n)))
			if mem := extra + memOnly(cfg, kTile, n); mem > cycles {
				cycles = mem
			}
		}
		emitted++
		produced := int64(float64(outBytes) * float64(emitted) / float64(totalTiles))
		out = append(out, npu.Instr{Op: op, Layer: idx, Count: 1,
			Cycles: clampCycles(cycles), LiveBytes: liveBytes(cfg, inBytes, produced)})
	}
	for m := 0; m < t.mTiles; m++ {
		for k := 0; k < t.kTiles; k++ {
			kTile := cfg.SH
			if k == t.kTiles-1 {
				kTile = t.kLast
			}
			for n := 0; n < t.nInner; n++ {
				emitTile(kTile, cfg.ACC)
			}
			if t.nOuter > 0 {
				emitTile(kTile, t.outerN)
			}
		}
	}
	if spills {
		drain := cfg.MemCycles(dnn.Bytes(int64(cfg.SW)*int64(cfg.ACC))) + cfg.MemLatencyCycles
		out = append(out, npu.Instr{Op: npu.StoreTile, Layer: idx, Count: 1,
			Cycles: clampCycles(drain), LiveBytes: liveBytes(cfg, 0, outBytes)})
	}
	if l.FusedAct {
		if ep := l.OutputElems(batch) / int64(cfg.VectorLanes) / 4; ep > 0 {
			out = append(out, npu.Instr{Op: npu.VectorOp, Layer: idx, Count: 1,
				Cycles: clampCycles(ep), LiveBytes: liveBytes(cfg, 0, outBytes)})
		}
	}
	return out
}

func refLowerVector(cfg npu.Config, out []npu.Instr, idx int32, l dnn.Layer, batch int) []npu.Instr {
	compute := stats.CeilDiv64(l.MACs(batch), int64(cfg.VectorLanes))
	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	mem := cfg.MemCycles(inBytes + dnn.Bytes(l.WeightElems()))
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	cycles += cfg.MemLatencyCycles
	const chunkTarget = 1 << 14
	chunks := int(cycles/chunkTarget) + 1
	per := cycles / int64(chunks)
	rem := cycles - per*int64(chunks)
	for i := 0; i < chunks; i++ {
		cyc := per
		if i == chunks-1 {
			cyc += rem
		}
		produced := int64(float64(outBytes) * float64(i+1) / float64(chunks))
		out = append(out, npu.Instr{Op: npu.VectorOp, Layer: idx, Count: 1,
			Cycles: clampCycles(cyc), LiveBytes: liveBytes(cfg, inBytes, produced)})
	}
	return out
}

// checkAgainstReference compiles one instance and matches its expansion
// against the per-tile reference, field for field.
func checkAgainstReference(t *testing.T, c *Compiler, m *dnn.Model, batch, inLen, outLen int) {
	t.Helper()
	prog, err := c.Compile(m, batch, inLen, outLen)
	if err != nil {
		t.Fatalf("%s b%d %d/%d: %v", m.Name, batch, inLen, outLen, err)
	}
	want, total := refCompile(c, m, batch, inLen, outLen)
	got := expand(prog)
	if prog.TotalCycles != total || prog.Tiles() != int64(len(want)) || len(got) != len(want) {
		t.Fatalf("%s b%d %d/%d: %d tiles / %d cycles, reference %d / %d",
			m.Name, batch, inLen, outLen, len(got), prog.TotalCycles, len(want), total)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s b%d %d/%d: tile %d = %+v, reference %+v",
				m.Name, batch, inLen, outLen, i, got[i], want[i])
		}
	}
	if max := refMaxLive(want); prog.MaxLiveBytes() != max {
		t.Errorf("%s b%d %d/%d: MaxLiveBytes %d, reference %d",
			m.Name, batch, inLen, outLen, prog.MaxLiveBytes(), max)
	}
}

func refMaxLive(instrs []npu.Instr) int64 {
	var max int64
	for _, in := range instrs {
		if in.LiveBytes > max {
			max = in.LiveBytes
		}
	}
	return max
}

// TestRunsExpandToReference is the identity proof of the loop and
// run-length program format: every zoo model at every evaluated batch
// size expands to exactly the per-tile reference stream. RNNs are checked
// at their profile's shortest and longest inputs, at odd input lengths
// (which round RNN-ASR's pyramid up), with an empty decode, and at 20
// sampled sequence-length pairs.
func TestRunsExpandToReference(t *testing.T) {
	c := newCompiler(t)
	rng := rand.New(rand.NewPCG(12, 34))
	for _, m := range dnn.All() {
		for _, b := range dnn.BatchSizes {
			if !m.IsRNN() {
				checkAgainstReference(t, c, m, b, 0, 0)
				continue
			}
			odd := m.MinInLen | 1
			pairs := [][2]int{
				{m.MinInLen, m.MinInLen}, {m.MaxInLen, m.MaxInLen}, {m.MinInLen, 1},
				{odd, odd + 2}, {odd + 2, 0},
			}
			for s := 0; s < 20; s++ {
				inLen := m.MinInLen + rng.IntN(m.MaxInLen-m.MinInLen+1)
				pairs = append(pairs, [2]int{inLen, 1 + rng.IntN(6*inLen)})
			}
			for _, p := range pairs {
				checkAgainstReference(t, c, m, b, p[0], p[1])
			}
		}
	}
}

// TestRunsExpandToReferenceRandomLayers extends the identity proof to
// random layer shapes, which reach tilings (ragged k and n tiles, UBUF
// spills, long vector layers) the zoo may not.
func TestRunsExpandToReferenceRandomLayers(t *testing.T) {
	c := newCompiler(t)
	rng := rand.New(rand.NewPCG(5, 8))
	for i := 0; i < 200; i++ {
		hw := 2 + rng.IntN(80)
		k := 1 + 2*rng.IntN(3)
		if k > hw {
			k = 1
		}
		layers := []dnn.Layer{
			dnn.NewConv("c", hw, hw, 1+rng.IntN(600), 1+rng.IntN(700), k, 1, k/2),
			dnn.NewFC("f", 1+rng.IntN(5000), 1+rng.IntN(3000), rng.IntN(2) == 0),
		}
		m := &dnn.Model{Name: "r", Class: dnn.CNN, Static: layers}
		checkAgainstReference(t, c, m, 1+rng.IntN(64), 0, 0)
	}
}

// TestRunRecordCounts pins how compact the loop and run format is on
// the workloads the paper mixes, against the per-tile record counts: an
// RNN program holds one body per phase, so its run count does not grow
// with the sequence length.
func TestRunRecordCounts(t *testing.T) {
	c := newCompiler(t)
	for _, tc := range []struct {
		model                string
		batch, inLen, outLen int
		tiles, runs, loops   int64
	}{
		{"RNN-MT1", 1, 30, 30, 59550, 17, 2},
		{"RNN-MT1", 1, 50, 300, 450500, 17, 2},
		{"RNN-ASR", 1, 30, 30, 28702, 29, 4},
		{"RNN-SA", 1, 30, 30, 7805, 8, 2},
		{"CNN-VN", 16, 0, 0, 17001, 1820, 1},
		{"CNN-AN", 1, 0, 0, 3835, 31, 1},
	} {
		m, err := dnn.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := c.Compile(m, tc.batch, tc.inLen, tc.outLen)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := refCompile(c, m, tc.batch, tc.inLen, tc.outLen); int64(len(ref)) != tc.tiles {
			t.Fatalf("%s: reference has %d tiles, pinned %d", tc.model, len(ref), tc.tiles)
		}
		if prog.Tiles() != tc.tiles || int64(len(prog.Instrs)) != tc.runs || int64(len(prog.Loops)) != tc.loops {
			t.Errorf("%s b%d %d/%d: %d runs in %d loops for %d tiles, want %d runs in %d loops for %d tiles",
				tc.model, tc.batch, tc.inLen, tc.outLen, len(prog.Instrs), len(prog.Loops), prog.Tiles(),
				tc.runs, tc.loops, tc.tiles)
		}
	}
}
