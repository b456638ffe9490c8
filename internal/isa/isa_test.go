package isa

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
)

func TestInstrRoundTrip(t *testing.T) {
	in := npu.Instr{Op: npu.ConvOp, Layer: 42, Cycles: 123456, Count: 1, LiveBytes: 7 << 20}
	enc := EncodeInstr(in)
	got, err := DecodeInstr(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	in := npu.Instr{Op: npu.GEMMOp, Layer: 1, Cycles: 100, LiveBytes: 4096}
	enc := EncodeInstr(in)
	enc[9] ^= 0xFF // corrupt the cycle field
	if _, err := DecodeInstr(enc[:]); err == nil {
		t.Error("corrupted instruction should fail its checksum")
	}
	if _, err := DecodeInstr(enc[:10]); err == nil {
		t.Error("short buffer should be rejected")
	}
	bad := EncodeInstr(npu.Instr{Op: npu.Op(99), Cycles: 1})
	if _, err := DecodeInstr(bad[:]); err == nil {
		t.Error("unknown opcode should be rejected")
	}
}

func TestProgramStreamRoundTrip(t *testing.T) {
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.Compile(dnn.AlexNet(), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalCycles != prog.TotalCycles {
		t.Errorf("total cycles %d != %d", loaded.TotalCycles, prog.TotalCycles)
	}
	// The stream holds one record per tile: the loaded program is the
	// compiled one's expansion.
	var tiles []npu.Instr
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		for j := int32(0); j < in.Count; j++ {
			tiles = append(tiles, in.Tile(j))
		}
	}
	if len(loaded.Instrs) != len(tiles) {
		t.Fatalf("instruction count %d != %d", len(loaded.Instrs), len(tiles))
	}
	for i := range loaded.Instrs {
		if loaded.Instrs[i] != tiles[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	// A loaded program executes identically.
	a, b := npu.NewExecution(prog), npu.NewExecution(loaded)
	for !a.Done() {
		ua, ub := a.Advance(10_000), b.Advance(10_000)
		if ua != ub {
			t.Fatal("loaded program executes differently")
		}
	}
	if !b.Done() {
		t.Fatal("loaded program did not finish in lockstep")
	}
}

func TestReadRejectsBadStreams(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("truncated header should be rejected")
	}
	var buf bytes.Buffer
	c, _ := compiler.New(npu.DefaultConfig())
	prog, _ := c.Compile(dnn.MobileNet(), 1, 0, 0)
	if err := Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bad := append([]byte(nil), raw...)
	copy(bad[0:4], "XXXX")
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should be rejected")
	}
	trunc := raw[:len(raw)-5]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should be rejected")
	}
}

func TestDisassembleCollapsesTileRuns(t *testing.T) {
	c, _ := compiler.New(npu.DefaultConfig())
	prog, _ := c.Compile(dnn.VGG16(), 1, 0, 0)
	var out strings.Builder
	if err := Disassemble(prog, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "CONV_OP") || !strings.Contains(text, "LOAD_TILE") {
		t.Error("disassembly missing mnemonics")
	}
	if !strings.Contains(text, "x") {
		t.Error("tile runs should be collapsed with repeat counts")
	}
	lines := strings.Count(text, "\n")
	if int64(lines) >= prog.Tiles() {
		t.Errorf("disassembly (%d lines) should be far shorter than %d instructions",
			lines, prog.Tiles())
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range []npu.Op{npu.LoadTile, npu.GEMMOp, npu.ConvOp, npu.VectorOp, npu.StoreTile} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%s) = %v, %v", op, got, err)
		}
	}
	if _, err := ParseOp("  gemm_op "); err != nil {
		t.Error("mnemonics should parse case-insensitively with whitespace")
	}
	if _, err := ParseOp("NOP"); err == nil {
		t.Error("unknown mnemonic should error")
	}
}

// Property: every instruction the compiler can emit survives an
// encode/decode round trip.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, layer int32, cycles int32, live int64) bool {
		in := npu.Instr{
			Op:        npu.Op(op % 5),
			Layer:     abs32(layer),
			Cycles:    abs32(cycles),
			Count:     1,
			LiveBytes: abs64(live),
		}
		enc := EncodeInstr(in)
		got, err := DecodeInstr(enc[:])
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		if v == -1<<31 {
			return 1<<31 - 1
		}
		return -v
	}
	return v
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 1<<63 - 1
		}
		return -v
	}
	return v
}
