package npu

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigMatchesTableI(t *testing.T) {
	c := DefaultConfig()
	if c.SW != 128 || c.SH != 128 {
		t.Errorf("array %dx%d, want 128x128", c.SW, c.SH)
	}
	if c.FreqHz != 700e6 {
		t.Errorf("freq %v, want 700MHz", c.FreqHz)
	}
	if c.UBUFBytes != 8<<20 || c.WBUFBytes != 4<<20 {
		t.Errorf("SRAM %d/%d, want 8MB/4MB", c.UBUFBytes, c.WBUFBytes)
	}
	if c.MemChannels != 8 || c.MemBWBytesPerSec != 358e9 || c.MemLatencyCycles != 100 {
		t.Errorf("memory subsystem mismatch: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SW = 0 },
		func(c *Config) { c.ACC = -1 },
		func(c *Config) { c.FreqHz = 0 },
		func(c *Config) { c.UBUFBytes = 0 },
		func(c *Config) { c.MemBWBytesPerSec = -1 },
		func(c *Config) { c.MemLatencyCycles = -5 },
		func(c *Config) { c.VectorLanes = 0 },
		func(c *Config) { c.CheckpointBWFraction = 0 },
		func(c *Config) { c.CheckpointBWFraction = 1.5 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	c := DefaultConfig()
	if got := c.Micros(700); got != 1 {
		t.Errorf("700 cycles @700MHz = %v us, want 1", got)
	}
	if got := c.Millis(700_000); got != 1 {
		t.Errorf("Millis = %v, want 1", got)
	}
	if got := c.Cycles(time.Millisecond); got != 700_000 {
		t.Errorf("Cycles(1ms) = %d, want 700000", got)
	}
	if got := c.Seconds(c.Cycles(2 * time.Second)); got != 2 {
		t.Errorf("round trip = %v, want 2", got)
	}
	// 358 GB/s at 700 MHz is ~511 bytes per cycle.
	if bpc := c.BytesPerCycle(); bpc < 511 || bpc > 512 {
		t.Errorf("BytesPerCycle = %v, want ~511.4", bpc)
	}
	if c.PeakMACsPerSec() != 128*128*700e6 {
		t.Errorf("peak MACs = %v", c.PeakMACsPerSec())
	}
}

func TestMemCycles(t *testing.T) {
	c := DefaultConfig()
	if got := c.MemCycles(0); got != 0 {
		t.Errorf("MemCycles(0) = %d", got)
	}
	if got := c.MemCycles(-5); got != 0 {
		t.Errorf("MemCycles(negative) = %d", got)
	}
	// One full UBUF at ~511 B/cycle is ~16.4k cycles (~23us).
	got := c.MemCycles(8 << 20)
	if got < 16000 || got > 17000 {
		t.Errorf("MemCycles(8MB) = %d, want ~16.4k", got)
	}
}

func TestCheckpointCyclesMatchesPaperScale(t *testing.T) {
	c := DefaultConfig()
	// A full-UBUF checkpoint must land in the "several tens of
	// microseconds" regime of Section IV-D.
	us := c.Micros(c.CheckpointCycles(c.UBUFBytes))
	if us < 20 || us > 80 {
		t.Errorf("full-UBUF checkpoint = %.1f us, want tens of us", us)
	}
	if c.CheckpointCycles(0) != 0 {
		t.Error("empty checkpoint should be free")
	}
	if c.RestoreCycles(1<<20) != c.CheckpointCycles(1<<20) {
		t.Error("restore should be symmetric with checkpoint")
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{
		LoadTile: "LOAD_TILE", GEMMOp: "GEMM_OP", ConvOp: "CONV_OP",
		VectorOp: "VECTOR_OP", StoreTile: "STORE_TILE",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op %d = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op should render")
	}
}

func testProgram(cycles ...int32) *Program {
	p := &Program{Model: "test", Batch: 1}
	for i, c := range cycles {
		p.Instrs = append(p.Instrs, Instr{
			Op: GEMMOp, Layer: int32(i), Cycles: c, Count: 1, LiveBytes: int64(i) * 100,
		})
		p.TotalCycles += int64(c)
	}
	return p
}

func TestProgramValidate(t *testing.T) {
	p := testProgram(10, 20, 30)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MaxLiveBytes() != 200 {
		t.Errorf("MaxLiveBytes = %d, want 200", p.MaxLiveBytes())
	}
	bad := testProgram(10)
	bad.TotalCycles = 99
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent total should fail validation")
	}
	empty := &Program{Model: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program should fail validation")
	}
	neg := testProgram(10)
	neg.Instrs[0].LiveBytes = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative live bytes should fail validation")
	}
	empty = testProgram(10)
	empty.Instrs[0].Count = 0
	empty.TotalCycles = 0
	if err := empty.Validate(); err == nil {
		t.Error("a zero-tile run should fail validation")
	}
	over := testProgram(10)
	over.Instrs[0].Count = 3
	over.Instrs[0].Ramp = Ramp{Out: 10, Cap: 100, First: 2, Total: 3}
	over.TotalCycles = 30
	if err := over.Validate(); err == nil {
		t.Error("a run overrunning its ramp should fail validation")
	}
	over.Instrs[0].Ramp.First = 1
	if err := over.Validate(); err != nil {
		t.Errorf("a run covering its whole ramp should validate: %v", err)
	}

	// Loop tables: two loops over three runs, the second repeated.
	loops := func() *Program {
		p := testProgram(10, 20, 30)
		p.Instrs[1].Layer, p.Instrs[2].Layer = 0, 0
		p.Loops = []Loop{{Start: 0, End: 1, Layers: 1, Times: 1}, {Start: 1, End: 3, Base: 1, Layers: 1, Times: 4}}
		p.TotalCycles = 10 + 4*50
		return p
	}
	if err := loops().Validate(); err != nil {
		t.Fatalf("valid loop table rejected: %v", err)
	}
	if got := loops().Tiles(); got != 9 {
		t.Errorf("Tiles = %d, want 9", got)
	}
	for name, mutate := range map[string]func(p *Program){
		"zero times":       func(p *Program) { p.Loops[1].Times = 0 },
		"gap":              func(p *Program) { p.Loops[1].Start = 2 },
		"uncovered run":    func(p *Program) { p.Loops[1].End = 2 },
		"empty body":       func(p *Program) { p.Loops[0].End = 0; p.Loops[1].Start = 0 },
		"layer outside":    func(p *Program) { p.Instrs[2].Layer = 1 },
		"overlapping base": func(p *Program) { p.Loops[1].Base = 0; p.Loops[0].Layers = 2 },
		"total":            func(p *Program) { p.TotalCycles = 60 },
	} {
		p := loops()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: malformed loop table accepted", name)
		}
	}
}

func TestRunLiveBytes(t *testing.T) {
	in := Instr{Op: GEMMOp, Cycles: 5, Count: 4, LiveBytes: 100,
		Ramp: Ramp{Out: 1000, Cap: 700, First: 3, Total: 6}}
	// Tiles 3..6 of 6 have produced 500, 666, 833 and 1000 bytes; the
	// context is capped at 700.
	for j, want := range []int64{600, 700, 700, 700} {
		if got := in.LiveAt(int32(j)); got != want {
			t.Errorf("LiveAt(%d) = %d, want %d", j, got, want)
		}
		if tile := in.Tile(int32(j)); tile.Count != 1 || tile.LiveBytes != want || tile.Ramp != (Ramp{}) {
			t.Errorf("Tile(%d) = %+v", j, tile)
		}
	}
	flat := Instr{Op: VectorOp, Cycles: 5, Count: 3, LiveBytes: 42}
	if flat.LiveAt(2) != 42 || flat.RunCycles() != 15 {
		t.Errorf("flat run: live %d cycles %d", flat.LiveAt(2), flat.RunCycles())
	}
	p := &Program{Model: "r", Instrs: []Instr{in, flat}, TotalCycles: 35}
	if p.MaxLiveBytes() != 700 || p.Tiles() != 7 {
		t.Errorf("MaxLiveBytes %d, Tiles %d", p.MaxLiveBytes(), p.Tiles())
	}
}

func TestExecutionAdvance(t *testing.T) {
	e := NewExecution(testProgram(10, 20, 30))
	if e.Done() || e.Executed() != 0 || e.Remaining() != 60 {
		t.Fatalf("fresh execution state wrong: done=%v exec=%d rem=%d",
			e.Done(), e.Executed(), e.Remaining())
	}
	if used := e.Advance(5); used != 5 {
		t.Errorf("Advance(5) used %d", used)
	}
	if e.CyclesToBoundary() != 5 {
		t.Errorf("CyclesToBoundary = %d, want 5", e.CyclesToBoundary())
	}
	if used := e.Advance(5); used != 5 {
		t.Errorf("Advance(5) used %d", used)
	}
	// Now exactly at the first instruction boundary.
	if e.CyclesToBoundary() != 0 {
		t.Errorf("CyclesToBoundary at commit = %d, want 0", e.CyclesToBoundary())
	}
	if e.LiveBytes() != 0 {
		t.Errorf("LiveBytes after instr 0 = %d, want 0 (layer 0 tag)", e.LiveBytes())
	}
	if used := e.Advance(100); used != 50 {
		t.Errorf("Advance(100) used %d, want 50 (completion)", used)
	}
	if !e.Done() || e.Remaining() != 0 || e.Progress() != 1 {
		t.Errorf("completion state wrong: %v %d %v", e.Done(), e.Remaining(), e.Progress())
	}
	if e.Advance(10) != 0 {
		t.Error("advancing a done execution should consume nothing")
	}
	if e.CurrentLayer() != -1 {
		t.Error("CurrentLayer after completion should be -1")
	}
}

func TestExecutionKill(t *testing.T) {
	e := NewExecution(testProgram(10, 20))
	e.Advance(15)
	if e.Executed() != 15 {
		t.Fatalf("executed = %d", e.Executed())
	}
	e.Kill()
	if e.Executed() != 0 || e.Done() || e.Remaining() != 30 {
		t.Errorf("Kill did not reset: exec=%d done=%v rem=%d",
			e.Executed(), e.Done(), e.Remaining())
	}
	// Must be able to re-execute to completion.
	if used := e.Advance(1000); used != 30 {
		t.Errorf("re-execution used %d, want 30", used)
	}
}

func TestExecutionSkipsZeroCycleInstrs(t *testing.T) {
	p := &Program{Model: "z", Batch: 1, Instrs: []Instr{
		{Op: LoadTile, Cycles: 0, Count: 1},
		{Op: GEMMOp, Cycles: 10, Count: 1},
		{Op: VectorOp, Cycles: 0, Count: 1},
		{Op: GEMMOp, Cycles: 5, Count: 1},
	}, TotalCycles: 15}
	e := NewExecution(p)
	if e.CurrentLayer() != 0 {
		t.Errorf("should rest on first real instruction")
	}
	if used := e.Advance(15); used != 15 || !e.Done() {
		t.Errorf("advance through zero-cycle instrs: used=%d done=%v", used, e.Done())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative budget should panic")
		}
	}()
	NewExecution(testProgram(1)).Advance(-1)
}

// Property: any sequence of Advance calls consumes exactly TotalCycles
// overall and Executed+Remaining is invariant.
func TestExecutionConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	f := func() bool {
		n := 1 + rng.IntN(20)
		cycles := make([]int32, n)
		for i := range cycles {
			cycles[i] = int32(rng.IntN(50))
		}
		p := testProgram(cycles...)
		if p.TotalCycles == 0 {
			return true
		}
		e := NewExecution(p)
		var used int64
		for !e.Done() {
			if e.Executed()+e.Remaining() != p.TotalCycles {
				return false
			}
			used += e.Advance(int64(1 + rng.IntN(37)))
		}
		return used == p.TotalCycles && e.Executed() == p.TotalCycles
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CyclesToBoundary is always in [0, current instr cycles] and
// advancing by exactly that amount lands on a commit boundary.
func TestBoundaryProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 21))
	f := func() bool {
		p := testProgram(7, 13, 29, 5)
		e := NewExecution(p)
		for !e.Done() {
			e.Advance(int64(1 + rng.IntN(11)))
			b := e.CyclesToBoundary()
			if b < 0 || b > 29 {
				return false
			}
			if b > 0 {
				e.Advance(b)
				if e.CyclesToBoundary() != 0 && !e.Done() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKillToLayerStart(t *testing.T) {
	p := &Program{Model: "kl", Batch: 1, Instrs: []Instr{
		{Op: GEMMOp, Layer: 0, Cycles: 100, Count: 1},
		{Op: GEMMOp, Layer: 0, Cycles: 100, Count: 1},
		{Op: GEMMOp, Layer: 1, Cycles: 100, Count: 1},
		{Op: GEMMOp, Layer: 1, Cycles: 100, Count: 1},
	}, TotalCycles: 400}
	e := NewExecution(p)
	e.Advance(250) // 50 cycles into layer 1's first instruction
	wasted := e.KillToLayerStart()
	if wasted != 50 {
		t.Errorf("wasted = %d, want 50 (partial layer-1 work)", wasted)
	}
	if e.Executed() != 200 {
		t.Errorf("executed = %d, want layer-0 total 200", e.Executed())
	}
	if e.CurrentLayer() != 1 {
		t.Errorf("cursor should rest at layer 1 start, got layer %d", e.CurrentLayer())
	}
	// Mid-layer deeper: 150 cycles into layer 1 (one full instr + 50).
	e2 := NewExecution(p)
	e2.Advance(350)
	if w := e2.KillToLayerStart(); w != 150 {
		t.Errorf("wasted = %d, want 150", w)
	}
	// Completed programs are untouched.
	e3 := NewExecution(p)
	e3.Advance(400)
	if w := e3.KillToLayerStart(); w != 0 || !e3.Done() {
		t.Errorf("done program should not rewind (wasted %d)", w)
	}
	// Re-execution still completes with the correct total.
	rem := e.Remaining()
	if used := e.Advance(1 << 20); used != rem || !e.Done() {
		t.Errorf("re-execution used %d, want %d", used, rem)
	}
}
