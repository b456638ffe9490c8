package dnn

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("model %s: %v", m.Name, err)
		}
	}
}

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d models, want 8 (Section III)", len(suite))
	}
	want := []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN",
		"RNN-SA", "RNN-MT1", "RNN-MT2", "RNN-ASR"}
	for i, m := range suite {
		if m.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, m.Name, want[i])
		}
	}
	cnn, rnn := 0, 0
	for _, m := range suite {
		if m.IsRNN() {
			rnn++
		} else {
			cnn++
		}
	}
	if cnn != 4 || rnn != 4 {
		t.Errorf("suite split %d CNN / %d RNN, want 4/4", cnn, rnn)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("CNN-VN")
	if err != nil || m.Name != "CNN-VN" {
		t.Errorf("ByName(CNN-VN) = %v, %v", m, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("ByName with unknown label should error")
	}
	names := Names()
	if len(names) != len(All()) {
		t.Errorf("Names() returned %d entries, want %d", len(names), len(All()))
	}
}

// Published MAC counts (batch 1, multiply-accumulate) for the classic
// CNNs; our shape-derived totals must land within a modest tolerance of
// the literature values.
func TestCNNMACCountsMatchLiterature(t *testing.T) {
	cases := []struct {
		model   string
		wantG   float64
		tolFrac float64
	}{
		{"CNN-AN", 1.1, 0.25},  // AlexNet ~0.7-1.1 GMAC depending on variant
		{"CNN-VN", 15.5, 0.05}, // VGG-16 ~15.5 GMAC
		{"CNN-GN", 1.6, 0.25},  // GoogLeNet ~1.5 GMAC
		{"CNN-MN", 0.57, 0.15}, // MobileNet-v1 ~0.57 GMAC
		{"CNN-RN", 3.9, 0.15},  // ResNet-50 ~3.8-4.1 GMAC
	}
	for _, c := range cases {
		m, err := ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.TotalMACs(1, 0, 0)) / 1e9
		lo, hi := c.wantG*(1-c.tolFrac), c.wantG*(1+c.tolFrac)
		if got < lo || got > hi {
			t.Errorf("%s MACs = %.2fG, want within [%.2f, %.2f]G", c.model, got, lo, hi)
		}
	}
}

func TestVGGLayerStructure(t *testing.T) {
	m := VGG16()
	convs, fcs, pools := 0, 0, 0
	for _, l := range m.Static {
		switch l.Kind {
		case Conv:
			convs++
		case FC:
			fcs++
		case Pool:
			pools++
		}
	}
	if convs != 13 || fcs != 3 || pools != 5 {
		t.Errorf("VGG16 has %d conv / %d fc / %d pool, want 13/3/5", convs, fcs, pools)
	}
	// Figure 7 labels c01..c13 must be present.
	names := map[string]bool{}
	for _, l := range m.Static {
		names[l.Name] = true
	}
	for _, want := range []string{"c01", "c07", "c13", "fc1", "fc2"} {
		if !names[want] {
			t.Errorf("VGG16 missing layer %s", want)
		}
	}
}

func TestGoogLeNetInceptionModules(t *testing.T) {
	m := GoogLeNet()
	modules := map[string]bool{}
	for _, l := range m.Static {
		if i := strings.IndexByte(l.Name, '/'); i > 0 {
			modules[l.Name[:i]] = true
		}
	}
	for _, want := range []string{"3a", "3b", "4a", "4b", "4c", "4d", "4e", "5a", "5b"} {
		if !modules[want] {
			t.Errorf("GoogLeNet missing inception module %s", want)
		}
	}
}

func TestMobileNetDepthwiseStructure(t *testing.T) {
	m := MobileNet()
	dw, pw := 0, 0
	for _, l := range m.Static {
		switch {
		case l.Kind == DWConv:
			dw++
		case l.Kind == Conv && l.KH == 1:
			pw++
		}
	}
	if dw != 13 || pw != 13 {
		t.Errorf("MobileNet has %d depthwise / %d pointwise, want 13/13", dw, pw)
	}
}

func TestRNNUnrollScalesWithLengths(t *testing.T) {
	for _, m := range Suite() {
		if !m.IsRNN() {
			continue
		}
		short := len(m.LayersFor(m.MinInLen, m.MinInLen))
		long := len(m.LayersFor(m.MaxInLen, m.MaxInLen))
		if long <= short {
			t.Errorf("%s: unroll did not grow with length (%d vs %d)", m.Name, short, long)
		}
	}
}

func TestRNNWeightsSharedAcrossTimesteps(t *testing.T) {
	for _, m := range Suite() {
		if !m.IsRNN() {
			continue
		}
		w1 := m.TotalWeightBytes(m.MinInLen, m.MinInLen)
		w2 := m.TotalWeightBytes(m.MaxInLen, m.MaxInLen)
		if w1 != w2 {
			t.Errorf("%s: weight bytes vary with unroll length (%d vs %d); cell weights must be shared",
				m.Name, w1, w2)
		}
	}
}

func TestCNNLayersIgnoreSequenceLengths(t *testing.T) {
	m := AlexNet()
	a := m.LayersFor(0, 0)
	b := m.LayersFor(10, 20)
	if len(a) != len(b) {
		t.Error("CNN layer list should not depend on sequence lengths")
	}
}

func TestModelValidateFailures(t *testing.T) {
	bad := []*Model{
		{Name: "", Class: CNN, Static: []Layer{NewFC("f", 1, 1, false)}},
		{Name: "empty", Class: CNN},
		{Name: "badlayer", Class: CNN, Static: []Layer{{Name: "x", Kind: FC}}},
		{Name: "nounroll", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2},
		{Name: "badlen", Class: RNN, SeqProfile: "sa", MinInLen: 5, MaxInLen: 2,
			Phases: func(a, b int) []Phase { return []Phase{{Body: []Layer{NewFC("f", 1, 1, false)}, Times: a}} }},
		{Name: "noprofile", Class: RNN, MinInLen: 1, MaxInLen: 2,
			Phases: func(a, b int) []Phase { return []Phase{{Body: []Layer{NewFC("f", 1, 1, false)}, Times: a}} }},
		{Name: "badclass", Class: Class(9)},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should fail validation", m.Name)
		}
	}
}

func TestMaxOutputBytes(t *testing.T) {
	m := VGG16()
	got := m.MaxOutputBytes(1, 0, 0)
	// c01/c02 emit 224*224*64 elements = 6.4MB at 2 bytes each.
	want := int64(224 * 224 * 64 * 2)
	if got != want {
		t.Errorf("VGG16 MaxOutputBytes = %d, want %d", got, want)
	}
	if m.MaxOutputBytes(16, 0, 0) != want*16 {
		t.Error("MaxOutputBytes should scale with batch")
	}
}

func TestClassString(t *testing.T) {
	if CNN.String() != "CNN" || RNN.String() != "RNN" {
		t.Error("class names wrong")
	}
	if Class(7).String() == "" {
		t.Error("unknown class should render")
	}
}

// TestZooBuiltOnce checks that the zoo hands out one shared model per
// label: ByName, Suite and All return identical pointers across calls.
func TestZooBuiltOnce(t *testing.T) {
	all := All()
	for i, m := range All() {
		if all[i] != m {
			t.Errorf("All()[%d] differs across calls", i)
		}
		got, err := ByName(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := ByName(m.Name)
		if got != m || again != m {
			t.Errorf("ByName(%q) does not return the shared zoo model", m.Name)
		}
	}
	for i, m := range Suite() {
		if m != all[i] {
			t.Errorf("Suite()[%d] is not the shared zoo model", i)
		}
	}
	// The slices are the caller's: editing one leaves the zoo intact.
	s := Suite()
	s[0] = nil
	if Suite()[0] == nil {
		t.Error("Suite exposes the zoo's own slice")
	}
}

// refUnroll is the reference unroll: every timestep's layers built
// afresh, as the RNN models did before they were described as phases of
// one prebuilt step. hidden/embed/vocab follow the zoo definitions.
func refUnroll(name string, inLen, outLen int) []Layer {
	mt := func(stack, hidden, vocab int) []Layer {
		var layers []Layer
		for t := 0; t < inLen; t++ {
			layers = lstmStack(layers, "enc", stack, hidden, hidden)
		}
		for t := 0; t < outLen; t++ {
			layers = lstmStack(layers, "dec", stack, hidden, hidden)
			layers = append(layers, NewFC("attn", 2*hidden, hidden, true), NewFC("proj", hidden, vocab, false))
		}
		return layers
	}
	switch name {
	case "RNN-SA":
		var layers []Layer
		for t := 0; t < inLen; t++ {
			layers = lstmStack(layers, "enc", 2, 512, 512)
		}
		return append(layers, NewFC("cls", 512, 2, false))
	case "RNN-MT1", "RNN-MT-KO":
		return mt(2, 768, 16000)
	case "RNN-MT2":
		return mt(2, 512, 4096)
	case "RNN-ASR":
		var layers []Layer
		steps, inDim := inLen, 80
		for l := 0; l < 3; l++ {
			for t := 0; t < steps; t++ {
				layers = append(layers,
					NewLSTM(fmt.Sprintf("enc.l%d.fw", l), 512, inDim),
					NewLSTM(fmt.Sprintf("enc.l%d.bw", l), 512, inDim))
			}
			steps = (steps + 1) / 2
			inDim = 4 * 512
		}
		for t := 0; t < outLen; t++ {
			layers = lstmStack(layers, "dec", 2, 512, 512)
			layers = append(layers, NewFC("attn", 1024, 512, true), NewFC("proj", 512, 30, false))
		}
		return layers
	}
	return nil
}

// TestRNNUnrollMatchesReference: expanding the phases yields exactly the
// layer lists built step by step, at every length including empty and
// negative ones, and the phase-wise totals equal the expansion's.
func TestRNNUnrollMatchesReference(t *testing.T) {
	for _, m := range All() {
		if !m.IsRNN() {
			continue
		}
		for in := -3; in <= 110; in += 7 {
			for out := -1; out <= 260; out += 29 {
				want := refUnroll(m.Name, in, out)
				if got := m.LayersFor(in, out); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("%s %d/%d: unroll differs from reference (%d vs %d layers)",
						m.Name, in, out, len(got), len(want))
				}
				var macs, maxOut int64
				for _, l := range want {
					macs += l.MACs(4)
					maxOut = max(maxOut, Bytes(l.OutputElems(4)))
				}
				if got := m.TotalMACs(4, in, out); got != macs {
					t.Fatalf("%s %d/%d: TotalMACs %d, reference %d", m.Name, in, out, got, macs)
				}
				if got := m.MaxOutputBytes(4, in, out); got != maxOut {
					t.Fatalf("%s %d/%d: MaxOutputBytes %d, reference %d", m.Name, in, out, got, maxOut)
				}
				for _, p := range m.PhasesFor(in, out) {
					if p.Times <= 0 || len(p.Body) == 0 {
						t.Fatalf("%s %d/%d: phase %+v repeats nothing", m.Name, in, out, p)
					}
				}
			}
		}
	}
}

// TestPhaseBodiesShared: an instance's step bodies are the model's
// prebuilt steps, not copies, so describing an instance costs O(phases).
func TestPhaseBodiesShared(t *testing.T) {
	for _, m := range All() {
		if !m.IsRNN() {
			continue
		}
		a, b := m.PhasesFor(10, 20), m.PhasesFor(30, 7)
		if len(a) != len(b) {
			t.Fatalf("%s: phase count depends on the lengths (%d vs %d)", m.Name, len(a), len(b))
		}
		for i := range a {
			if &a[i].Body[0] != &b[i].Body[0] {
				t.Errorf("%s: phase %d body is rebuilt per instance", m.Name, i)
			}
		}
	}
}
