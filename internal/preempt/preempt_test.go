package preempt

import (
	"testing"

	"repro/internal/npu"
)

func testProgram(cycles []int32, live []int64) *npu.Program {
	p := &npu.Program{Model: "t", Batch: 1}
	for i, c := range cycles {
		lb := int64(0)
		if i < len(live) {
			lb = live[i]
		}
		p.Instrs = append(p.Instrs, npu.Instr{Op: npu.GEMMOp, Layer: 0, Cycles: c, Count: 1, LiveBytes: lb})
		p.TotalCycles += int64(c)
	}
	return p
}

func TestMechanismString(t *testing.T) {
	if Checkpoint.String() != "CHECKPOINT" || Kill.String() != "KILL" || Drain.String() != "DRAIN" {
		t.Error("mechanism names wrong")
	}
	if Mechanism(9).String() == "" {
		t.Error("unknown mechanism should render")
	}
}

func TestApplyCheckpointMidInstruction(t *testing.T) {
	cfg := npu.DefaultConfig()
	prog := testProgram([]int32{100, 100}, []int64{1 << 20, 2 << 20})
	exec := npu.NewExecution(prog)
	exec.Advance(130) // 30 cycles into the second instruction

	cost := Apply(cfg, Checkpoint, exec)
	if cost.Mechanism != Checkpoint {
		t.Fatal("wrong mechanism recorded")
	}
	// The in-flight instruction must run to its commit boundary first.
	if cost.BoundaryCycles != 70 {
		t.Errorf("BoundaryCycles = %d, want 70", cost.BoundaryCycles)
	}
	if exec.Executed() != 200 {
		t.Errorf("execution should have advanced to the boundary: %d", exec.Executed())
	}
	// At the boundary after instruction 2, its live bytes are saved.
	if cost.SavedBytes != 2<<20 {
		t.Errorf("SavedBytes = %d, want 2MB", cost.SavedBytes)
	}
	if cost.SaveCycles != cfg.CheckpointCycles(2<<20) {
		t.Errorf("SaveCycles = %d", cost.SaveCycles)
	}
	if cost.Latency() != cost.BoundaryCycles+cost.SaveCycles {
		t.Error("latency must be boundary + save")
	}
	if cost.WastedCycles != 0 {
		t.Error("checkpoint wastes nothing")
	}
}

func TestApplyCheckpointAtBoundary(t *testing.T) {
	cfg := npu.DefaultConfig()
	prog := testProgram([]int32{50, 50}, []int64{4096, 8192})
	exec := npu.NewExecution(prog)
	exec.Advance(50) // exactly at the first commit

	cost := Apply(cfg, Checkpoint, exec)
	if cost.BoundaryCycles != 0 {
		t.Errorf("BoundaryCycles at commit = %d, want 0", cost.BoundaryCycles)
	}
	if cost.SavedBytes != 4096 {
		t.Errorf("SavedBytes = %d, want 4096 (state after instr 0)", cost.SavedBytes)
	}
}

func TestApplyKill(t *testing.T) {
	cfg := npu.DefaultConfig()
	prog := testProgram([]int32{100, 100}, nil)
	exec := npu.NewExecution(prog)
	exec.Advance(150)

	cost := Apply(cfg, Kill, exec)
	if cost.Latency() != 0 {
		t.Errorf("KILL latency = %d, want 0 (Section IV-C)", cost.Latency())
	}
	if cost.WastedCycles != 150 {
		t.Errorf("WastedCycles = %d, want 150", cost.WastedCycles)
	}
	if cost.SavedBytes != 0 || cost.SaveCycles != 0 {
		t.Error("KILL must not checkpoint")
	}
	if exec.Executed() != 0 {
		t.Error("KILL must reset the execution to restart from scratch")
	}
}

func TestApplyDrain(t *testing.T) {
	cfg := npu.DefaultConfig()
	prog := testProgram([]int32{100}, nil)
	exec := npu.NewExecution(prog)
	exec.Advance(10)

	cost := Apply(cfg, Drain, exec)
	if cost.Latency() != 0 {
		t.Errorf("DRAIN preemption latency = %d, want 0 (Figure 5)", cost.Latency())
	}
	if exec.Executed() != 10 {
		t.Error("DRAIN must leave the execution untouched")
	}
}

func TestApplyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mechanism should panic")
		}
	}()
	Apply(npu.DefaultConfig(), Mechanism(42), npu.NewExecution(testProgram([]int32{1}, nil)))
}

func TestRestoreCycles(t *testing.T) {
	cfg := npu.DefaultConfig()
	if RestoreCycles(cfg, 0) != 0 {
		t.Error("restoring nothing should be free")
	}
	if RestoreCycles(cfg, 1<<20) != cfg.CheckpointCycles(1<<20) {
		t.Error("restore should mirror checkpoint cost")
	}
}

func TestContextTableBits(t *testing.T) {
	// Section VI-F: 64-bit x 7 fields = 448 bits per task; 16 tasks =
	// 7168 bits.
	if ContextTableEntryBits != 448 {
		t.Errorf("entry bits = %d, want 448", ContextTableEntryBits)
	}
	if got := ContextTableBits(16); got != 448*16 {
		t.Errorf("16-task table = %d bits, want %d", got, 448*16)
	}
}

func TestApplyKillLayer(t *testing.T) {
	cfg := npu.DefaultConfig()
	p := &npu.Program{Model: "kl", Batch: 1, Instrs: []npu.Instr{
		{Op: npu.GEMMOp, Layer: 0, Cycles: 100, Count: 1},
		{Op: npu.GEMMOp, Layer: 1, Cycles: 100, Count: 1},
		{Op: npu.GEMMOp, Layer: 1, Cycles: 100, Count: 1},
	}, TotalCycles: 300}
	exec := npu.NewExecution(p)
	exec.Advance(250) // 150 cycles into layer 1
	cost := Apply(cfg, KillLayer, exec)
	if cost.Mechanism != KillLayer {
		t.Fatal("wrong mechanism")
	}
	if cost.Latency() != 0 {
		t.Error("KILL_LAYER should have zero preemption latency")
	}
	if cost.WastedCycles != 150 {
		t.Errorf("wasted = %d, want the in-flight layer's 150", cost.WastedCycles)
	}
	if exec.Executed() != 100 {
		t.Errorf("layer-0 progress (100) should survive, got %d", exec.Executed())
	}
}

func TestKillLayerWastesLessThanKill(t *testing.T) {
	cfg := npu.DefaultConfig()
	build := func() *npu.Execution {
		p := &npu.Program{Model: "x", Batch: 1, Instrs: []npu.Instr{
			{Op: npu.GEMMOp, Layer: 0, Cycles: 1000, Count: 1},
			{Op: npu.GEMMOp, Layer: 1, Cycles: 1000, Count: 1},
		}, TotalCycles: 2000}
		e := npu.NewExecution(p)
		e.Advance(1500)
		return e
	}
	full := Apply(cfg, Kill, build())
	layer := Apply(cfg, KillLayer, build())
	if layer.WastedCycles >= full.WastedCycles {
		t.Errorf("layer-granularity restart (%d) should waste less than scratch (%d)",
			layer.WastedCycles, full.WastedCycles)
	}
}
