package isa

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
)

var update = flag.Bool("update", false, "rewrite the golden program dumps in testdata")

// goldenPrograms are the pinned program text surfaces: the disassembly
// and the binary stream of a large CNN and a long unrolled RNN. They
// lock both formats byte for byte against changes to the in-memory
// program representation.
var goldenPrograms = []struct {
	file          string
	model         string
	batch         int
	inLen, outLen int
}{
	{"cnn-vn-b16", "CNN-VN", 16, 0, 0},
	{"rnn-mt1-30x30", "RNN-MT1", 1, 30, 30},
}

func TestGoldenProgramSurfaces(t *testing.T) {
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenPrograms {
		t.Run(g.file, func(t *testing.T) {
			m, err := dnn.ByName(g.model)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := c.Compile(m, g.batch, g.inLen, g.outLen)
			if err != nil {
				t.Fatal(err)
			}
			var asm, bin bytes.Buffer
			if err := Disassemble(prog, &asm); err != nil {
				t.Fatal(err)
			}
			if err := Write(&bin, prog); err != nil {
				t.Fatal(err)
			}
			asmPath := filepath.Join("testdata", g.file+".asm")
			binPath := filepath.Join("testdata", g.file+".prma.gz")
			if *update {
				writeGolden(t, asmPath, asm.Bytes(), false)
				writeGolden(t, binPath, bin.Bytes(), true)
				return
			}
			if want := readGolden(t, asmPath, false); !bytes.Equal(asm.Bytes(), want) {
				t.Errorf("%s: disassembly differs from golden (%d vs %d bytes)",
					g.file, asm.Len(), len(want))
			}
			if want := readGolden(t, binPath, true); !bytes.Equal(bin.Bytes(), want) {
				t.Errorf("%s: binary stream differs from golden (%d vs %d bytes)",
					g.file, bin.Len(), len(want))
			}
		})
	}
}

// writeGolden stores data at path, gzip-compressed when zipped (the
// binary streams are long runs of near-identical records).
func writeGolden(t *testing.T, path string, data []byte, zipped bool) {
	t.Helper()
	if zipped {
		var z bytes.Buffer
		zw, err := gzip.NewWriterLevel(&z, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		data = z.Bytes()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string, zipped bool) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/isa -run Golden -update to create)", err)
	}
	if !zipped {
		return data
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
