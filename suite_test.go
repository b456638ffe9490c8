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
	cold := suite.Simulations()
	if cold == 0 {
		t.Fatal("cold run did not simulate")
	}
	second, err := suite.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.Simulations(); got != cold {
		t.Errorf("repeat run simulated %d extra times; the cache should answer", got-cold)
	}
	if suite.CacheStats().Hits == 0 {
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

// TestSuiteDiskCache proves SuiteOptions.CacheDir: a second process
// (modelled by a second Suite) renders byte-identical tables without
// simulating at all.
func TestSuiteDiskCache(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewSuite(SuiteOptions{Runs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cold.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := NewSuite(SuiteOptions{Runs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second, err := warm.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("warm suite simulated %d times; disk cache should answer everything", got)
	}
	for i := range first[0].Tables {
		if first[0].Tables[i].Text != second[0].Tables[i].Text {
			t.Error("warm table bytes diverge from cold")
		}
	}
}

// TestSystemBoundSuite proves a customized System hands its
// configuration to its Suite: the experiments run on the System's NPU,
// and the disk-cache fingerprint separates it from the default
// configuration's cache.
func TestSystemBoundSuite(t *testing.T) {
	cfg := DefaultNPUConfig()
	cfg.SW, cfg.SH = 64, 64
	sys := newSystem(t, WithNPU(cfg))
	dir := t.TempDir()

	suite, err := sys.NewSuite(SuiteOptions{Runs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := suite.Run("fig11"); err != nil {
		t.Fatal(err)
	}
	if suite.Simulations() == 0 {
		t.Fatal("bound suite did not simulate")
	}
	if err := suite.Close(); err != nil {
		t.Fatal(err)
	}

	// The default configuration must not see the 64x64 cache.
	other, err := NewSuite(SuiteOptions{Runs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run("fig11"); err != nil {
		t.Fatal(err)
	}
	if other.Simulations() == 0 {
		t.Error("default suite was answered from a different configuration's disk cache")
	}
}

// TestSuiteErrors covers the suite error paths.
func TestSuiteErrors(t *testing.T) {
	suite, err := NewSuite(SuiteOptions{Runs: 2, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if suite.Cached() {
		t.Error("NoCache suite reports an enabled cache")
	}
	if _, err := suite.Run("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
	if got := suite.CacheStats(); got.Entries != 0 {
		t.Errorf("cacheless suite reports %d entries", got.Entries)
	}
	if cached, err := NewSuite(SuiteOptions{}); err != nil || !cached.Cached() {
		t.Errorf("zero-value options should enable the cache: %v", err)
	}
	if _, err := NewSuite(SuiteOptions{NoCache: true, CacheDir: t.TempDir()}); err == nil {
		t.Error("NoCache with CacheDir should be rejected")
	}
	if len(Experiments()) < 15 {
		t.Errorf("only %d experiments exposed", len(Experiments()))
	}
}
