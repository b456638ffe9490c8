package prema

import (
	"testing"
)

// TestSuiteRunSharesCache proves the Suite pillar: one cache spans every
// experiment a Suite runs, so overlapping sweeps answer from memory on
// the second encounter — which a fresh Suite per experiment could
// never do.
func TestSuiteRunSharesCache(t *testing.T) {
	suite, err := NewSuite(SuiteOptions{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := suite.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].ID != "fig11" || len(first[0].Tables) == 0 {
		t.Fatalf("unexpected result shape: %+v", first)
	}
	cold := suite.inner.Simulations()
	if cold == 0 {
		t.Fatal("cold run did not simulate")
	}
	second, err := suite.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.inner.Simulations(); got != cold {
		t.Errorf("repeat run simulated %d extra times; the cache should answer", got-cold)
	}
	if suite.inner.Cache.Stats().Hits == 0 {
		t.Error("repeat run recorded no cache hits")
	}
	for i := range first[0].Tables {
		if first[0].Tables[i].Text != second[0].Tables[i].Text {
			t.Error("cached rerun diverges from cold run")
		}
		if first[0].Tables[i].CSV == "" {
			t.Error("CSV rendering empty")
		}
	}
}

// TestSystemBoundSuite proves a customized System hands its
// configuration to its Suite: the experiments run on the System's NPU
// and reuse its generator, so the tables differ from the default
// configuration's.
func TestSystemBoundSuite(t *testing.T) {
	cfg := DefaultNPUConfig()
	cfg.SW, cfg.SH = 64, 64
	sys := newSystem(t, WithNPU(cfg))

	suite, err := sys.NewSuite(SuiteOptions{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if suite.inner.NPU.SW != 64 || suite.inner.Gen != sys.gen {
		t.Fatal("bound suite does not run on the System's NPU and generator")
	}
	bound, err := suite.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewSuite(SuiteOptions{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	def, err := other.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if bound[0].Tables[0].Text == def[0].Tables[0].Text {
		t.Error("a 64x64 System rendered the default configuration's fig11")
	}
}

// TestSuiteErrors covers the suite error paths.
func TestSuiteErrors(t *testing.T) {
	suite, err := NewSuite(SuiteOptions{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if suite.inner.Cache == nil {
		t.Error("zero-value options should enable the cache")
	}
	if _, err := suite.Run("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
	if _, err := NewSuite(SuiteOptions{Runs: -3}); err == nil {
		t.Error("negative Runs should be rejected")
	}
	if _, err := NewSuite(SuiteOptions{Parallel: -4}); err == nil {
		t.Error("negative Parallel should be rejected")
	}
	if len(Experiments()) < 15 {
		t.Errorf("only %d experiments exposed", len(Experiments()))
	}
}
