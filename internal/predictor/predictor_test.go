package predictor

import (
	"math"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/seqlen"
	"repro/internal/stats"
)

func testFixtures(t *testing.T) (npu.Config, *seqlen.Library, *Analytic, *compiler.Compiler) {
	t.Helper()
	cfg := npu.DefaultConfig()
	lib, err := seqlen.NewLibrary(0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalytic(cfg, lib)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, lib, an, comp
}

func TestNewAnalyticRejectsBadConfig(t *testing.T) {
	cfg := npu.DefaultConfig()
	cfg.FreqHz = 0
	if _, err := NewAnalytic(cfg, nil); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestLayerCyclesMatchesAlgorithm1(t *testing.T) {
	cfg, _, an, _ := testFixtures(t)
	// One inner tile exactly: M=SW, K=SH, N=ACC.
	g := dnn.GEMMShape{M: cfg.SW, K: cfg.SH, N: cfg.ACC}
	want := compiler.TileTime(cfg, cfg.SH, cfg.ACC)
	if got := an.LayerCycles(g); got != want {
		t.Errorf("single inner tile = %d, want %d", got, want)
	}
	// Adding one residual column adds one outer tile.
	g.N = cfg.ACC + 1
	want += compiler.TileTime(cfg, cfg.SH, 1)
	if got := an.LayerCycles(g); got != want {
		t.Errorf("inner+outer = %d, want %d", got, want)
	}
	// Tile counts multiply across M and K.
	g = dnn.GEMMShape{M: 2 * cfg.SW, K: 3 * cfg.SH, N: cfg.ACC}
	want = 6 * compiler.TileTime(cfg, cfg.SH, cfg.ACC)
	if got := an.LayerCycles(g); got != want {
		t.Errorf("2x3 tiles = %d, want %d", got, want)
	}
	if an.LayerCycles(dnn.GEMMShape{}) != 0 {
		t.Error("invalid shape should cost nothing")
	}
}

func TestEstimateCloseToSimulatedForCNNs(t *testing.T) {
	cfg, _, an, comp := testFixtures(t)
	_ = cfg
	for _, name := range []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN"} {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range dnn.BatchSizes {
			prog, err := comp.Compile(m, b, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			est, err := an.Estimate(m, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			errFrac := math.Abs(float64(est)-float64(prog.TotalCycles)) / float64(prog.TotalCycles)
			// Section VI-A: ~1.6% average estimation error. CNNs have
			// no length uncertainty, so individual errors must stay
			// within a few percent.
			if errFrac > 0.05 {
				t.Errorf("%s b%d: prediction error %.1f%% (est %d vs sim %d)",
					name, b, errFrac*100, est, prog.TotalCycles)
			}
		}
	}
}

func TestEstimateRNNUsesRegression(t *testing.T) {
	_, lib, an, comp := testFixtures(t)
	m, err := dnn.ByName("RNN-MT1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := lib.Predictor(m.SeqProfile)
	if err != nil {
		t.Fatal(err)
	}
	inLen := 30
	predOut := p.Regression.Predict(inLen)
	est, err := an.Estimate(m, 1, inLen)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate must equal the unrolled estimate at the predicted
	// length.
	if est != an.EstimateWithOutLen(m, 1, inLen, predOut) {
		t.Error("Estimate should unroll with the regression's predicted length")
	}
	// And it should be within ~20% of the simulation at the true length
	// for a typical sample (lengths are correlated).
	prog, err := comp.Compile(m, 1, inLen, predOut)
	if err != nil {
		t.Fatal(err)
	}
	errFrac := math.Abs(float64(est)-float64(prog.TotalCycles)) / float64(prog.TotalCycles)
	if errFrac > 0.05 {
		t.Errorf("same-length estimate error %.1f%%", errFrac*100)
	}
}

func TestEstimateRNNWithoutLibraryFails(t *testing.T) {
	cfg := npu.DefaultConfig()
	an, err := NewAnalytic(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("RNN-SA")
	if _, err := an.Estimate(m, 1, 10); err == nil {
		t.Error("RNN estimate without a seqlen library should fail")
	}
	if _, err := an.Estimate(dnn.AlexNet(), 0, 0); err == nil {
		t.Error("non-positive batch should fail")
	}
}

func TestProfilePredictorLearnsExactLatencies(t *testing.T) {
	cfg, lib, _, comp := testFixtures(t)
	_ = cfg
	prof, err := NewProfile(npu.DefaultConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.AlexNet()
	prog, err := comp.Compile(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Before observation: falls back to the analytic model (non-zero).
	before, err := prof.Estimate(m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatal("fallback estimate should be positive")
	}
	prof.ObserveProgram(m, prog, m.Static)
	after, err := prof.Estimate(m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after != prog.TotalCycles {
		t.Errorf("profiled estimate %d != observed total %d", after, prog.TotalCycles)
	}
}

func TestProfileObserveAveraging(t *testing.T) {
	_, lib, _, _ := testFixtures(t)
	prof, err := NewProfile(npu.DefaultConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	prof.Observe("m", "l", 1, 100)
	prof.Observe("m", "l", 1, 200)
	model := &dnn.Model{Name: "m", Class: dnn.CNN,
		Static: []dnn.Layer{dnn.NewFC("l", 8, 8, false)}}
	got, err := prof.Estimate(model, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Errorf("averaged estimate = %d, want 150", got)
	}
}

func TestMACProxyUnderestimatesLowUtilizationLayers(t *testing.T) {
	// Figure 10's lesson: MAC count is a poor proxy exactly where the
	// array is underutilized. The proxy must err far more than the
	// analytic model on MobileNet (1x1 convs + depthwise).
	cfg, lib, an, comp := testFixtures(t)
	_ = cfg
	proxy := NewMACProxy(npu.DefaultConfig(), lib)
	m := dnn.MobileNet()
	prog, err := comp.Compile(m, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(prog.TotalCycles)
	estA, err := an.Estimate(m, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	estP, err := proxy.Estimate(m, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	errA := math.Abs(float64(estA)-actual) / actual
	errP := math.Abs(float64(estP)-actual) / actual
	if errP < 4*errA {
		t.Errorf("MAC proxy error %.1f%% should dwarf analytic error %.1f%%",
			errP*100, errA*100)
	}
	if float64(estP) > actual {
		t.Errorf("MAC proxy should underestimate an underutilized model (est %d vs actual %.0f)",
			estP, actual)
	}
}

func TestSuiteWideAccuracyMatchesPaper(t *testing.T) {
	// Across the suite with sampled RNN lengths, the mean estimation
	// error should be small (paper: ~1.6%); we accept <6% to absorb
	// the synthetic length profiles.
	_, lib, an, comp := testFixtures(t)
	rng := stats.NewRNG(31, 41)
	var errSum float64
	var n int
	for _, m := range dnn.Suite() {
		for i := 0; i < 10; i++ {
			inLen, actualOut := 0, 0
			if m.IsRNN() {
				var err error
				inLen, actualOut, _, err = lib.SampleInstance(m.SeqProfile, rng)
				if err != nil {
					t.Fatal(err)
				}
			}
			prog, err := comp.Compile(m, 1, inLen, actualOut)
			if err != nil {
				t.Fatal(err)
			}
			est, err := an.Estimate(m, 1, inLen)
			if err != nil {
				t.Fatal(err)
			}
			errSum += math.Abs(float64(est)-float64(prog.TotalCycles)) / float64(prog.TotalCycles)
			n++
			if !m.IsRNN() {
				break
			}
		}
	}
	mean := errSum / float64(n)
	if mean > 0.06 {
		t.Errorf("suite-wide mean prediction error %.2f%%, want < 6%%", mean*100)
	}
}

// TestPhaseEstimatesMatchExpansion: estimating each step body once and
// scaling it by its repeat count is exactly Algorithm 1 over the
// unrolled layer list, for the analytic, profile and MAC-proxy
// predictors, at every RNN, batch and a spread of sequence lengths.
func TestPhaseEstimatesMatchExpansion(t *testing.T) {
	cfg, lib, an, comp := testFixtures(t)
	prof, err := NewProfile(cfg, lib)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewMACProxy(cfg, lib)
	perCycle := int64(cfg.SW) * int64(cfg.SH)
	for _, m := range dnn.All() {
		if !m.IsRNN() {
			continue
		}
		p, err := lib.Predictor(m.SeqProfile)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range dnn.BatchSizes {
			for inLen := m.MinInLen; inLen <= m.MaxInLen; inLen += 7 {
				outLen := p.Regression.Predict(inLen)
				layers := m.LayersFor(inLen, outLen)
				if got, want := an.EstimateWithOutLen(m, b, inLen, outLen), an.EstimateLayers(layers, b); got != want {
					t.Fatalf("%s b%d %d/%d: phase estimate %d, expansion %d", m.Name, b, inLen, outLen, got, want)
				}
				if got, _ := an.Estimate(m, b, inLen); got != an.EstimateLayers(layers, b) {
					t.Fatalf("%s b%d in %d: Estimate %d differs from the expansion", m.Name, b, inLen, got)
				}
				var macs int64
				for _, l := range layers {
					macs += l.MACs(b)
				}
				if got, _ := proxy.Estimate(m, b, inLen); got != (macs+perCycle-1)/perCycle {
					t.Fatalf("%s b%d in %d: MAC proxy %d differs from the expansion", m.Name, b, inLen, got)
				}
				// The profile predictor, before and after observing a
				// program of a different instance, against the per-layer
				// sum over the expansion.
				for pass := 0; pass < 2; pass++ {
					var want int64
					for _, l := range layers {
						want += prof.layerCycles(m, l, b)
					}
					if got, _ := prof.Estimate(m, b, inLen); got != want {
						t.Fatalf("%s b%d in %d pass %d: profile estimate %d, expansion %d",
							m.Name, b, inLen, pass, got, want)
					}
					prog, err := comp.Compile(m, b, inLen, outLen+3)
					if err != nil {
						t.Fatal(err)
					}
					prof.ObserveProgram(m, prog, m.LayersFor(inLen, outLen+3))
				}
				// Every timestep of a layer takes the same cycles, so a
				// fresh profile fed this very instance predicts it exactly.
				fresh, err := NewProfile(cfg, lib)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := comp.Compile(m, b, inLen, outLen)
				if err != nil {
					t.Fatal(err)
				}
				fresh.ObserveProgram(m, prog, layers)
				if got, _ := fresh.Estimate(m, b, inLen); got != prog.TotalCycles {
					t.Fatalf("%s b%d in %d: observed-profile estimate %d, program total %d",
						m.Name, b, inLen, got, prog.TotalCycles)
				}
			}
		}
	}
}
