package prema

// suite.go is the experiment surface: one Suite shares a workload
// generator, a compiled-program cache and a simulation-result cache
// across every paper experiment it runs, so overlapping sweeps (the
// NP-FCFS baseline, the Static-*/Dynamic-* configurations shared between
// figures, ...) simulate once per process — and, with CacheDir set, once
// per machine.

import (
	"fmt"

	"repro/internal/exp"
)

// SuiteOptions configures an experiment suite.
type SuiteOptions struct {
	// Runs is the per-configuration simulation-run count (0 selects the
	// paper's 25).
	Runs int
	// Seed drives all workload randomness (0 selects the default).
	Seed uint64
	// Parallel bounds the engine's worker pool (0 = GOMAXPROCS, 1 =
	// sequential; results are byte-identical for every value).
	Parallel int
	// NoCache disables the simulation-result cache that otherwise
	// shares runs across overlapping experiments. Cached and fresh
	// results are bit-identical, so caching changes runtime, never
	// output — NoCache exists for benchmarking the simulator itself.
	NoCache bool
	// CacheDir additionally persists cached outcomes on disk across
	// processes (incompatible with NoCache), versioned by the NPU
	// configuration and profile seed; corrupt or mismatched files are
	// ignored. Call Close to write back.
	CacheDir string
}

// Table is one rendered experiment table.
type Table struct {
	// ID matches the experiment registry ("fig12", ...).
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Text is the aligned human-readable rendering.
	Text string
	// CSV is the comma-separated rendering.
	CSV string
}

// ExperimentResult is one experiment's regenerated output.
type ExperimentResult struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Tables are the rendered panels.
	Tables []Table
}

// CacheStats snapshots the suite cache's effectiveness.
type CacheStats = exp.CacheStats

// Suite runs paper experiments over one shared simulation cache.
type Suite struct {
	inner *exp.Suite
}

// NewSuite builds an experiment suite against the paper's default
// configuration. Use System.NewSuite to run the experiments against a
// customized System.
func NewSuite(opt SuiteOptions) (*Suite, error) {
	inner, err := exp.NewSuite()
	if err != nil {
		return nil, err
	}
	return newSuite(inner, opt)
}

// NewSuite builds an experiment suite bound to this System: the
// experiments run against its NPU and scheduler configuration, share
// its compiled-program cache, and — with CacheDir set — persist under a
// fingerprint derived from its configuration.
func (s *System) NewSuite(opt SuiteOptions) (*Suite, error) {
	inner, err := exp.NewSuiteFor(s.opt.NPU, s.opt.Sched, s.gen, s.opt.ProfileSeed)
	if err != nil {
		return nil, err
	}
	return newSuite(inner, opt)
}

func newSuite(inner *exp.Suite, opt SuiteOptions) (*Suite, error) {
	if opt.Runs > 0 {
		inner.Runs = opt.Runs
	}
	if opt.Seed != 0 {
		inner.Seed = opt.Seed
	}
	if opt.Parallel > 0 {
		inner.Workers = opt.Parallel
	}
	if opt.NoCache {
		if opt.CacheDir != "" {
			return nil, fmt.Errorf("prema: SuiteOptions.CacheDir requires the cache (drop NoCache)")
		}
		inner.Cache = nil
	}
	if opt.CacheDir != "" {
		if err := inner.AttachDiskCache(opt.CacheDir); err != nil {
			return nil, err
		}
	}
	return &Suite{inner: inner}, nil
}

// ExperimentInfo identifies one registered experiment.
type ExperimentInfo struct {
	// ID is the registry key passed to Suite.Run; Title describes what
	// the experiment regenerates.
	ID, Title string
}

// Experiments lists the registered paper experiments in ID order.
func (s *Suite) Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range exp.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// Cached reports whether the suite's simulation-result cache is
// enabled.
func (s *Suite) Cached() bool { return s.inner.Cache != nil }

// Run regenerates the named experiments (all of them when none are
// given), sharing the suite's simulation cache across the whole
// selection. Results are returned in the requested order.
func (s *Suite) Run(ids ...string) ([]ExperimentResult, error) {
	var selected []exp.Experiment
	if len(ids) == 0 {
		selected = exp.All()
	} else {
		for _, id := range ids {
			e, err := exp.ByID(id)
			if err != nil {
				return nil, err
			}
			selected = append(selected, e)
		}
	}
	var out []ExperimentResult
	for _, e := range selected {
		tables, err := e.Run(s.inner)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		res := ExperimentResult{ID: e.ID, Title: e.Title}
		for _, t := range tables {
			res.Tables = append(res.Tables, Table{
				ID: t.ID, Title: t.Title, Text: t.String(), CSV: t.CSV(),
			})
		}
		out = append(out, res)
	}
	return out, nil
}

// CacheStats snapshots the suite's simulation-result cache counters
// (zero when caching is disabled).
func (s *Suite) CacheStats() CacheStats {
	if s.inner.Cache == nil {
		return CacheStats{}
	}
	return s.inner.Cache.Stats()
}

// Simulations reports how many simulations the suite actually executed
// (cache hits excluded).
func (s *Suite) Simulations() int64 { return s.inner.Simulations() }

// Close flushes the on-disk cache, if one is attached. The suite
// remains usable afterwards.
func (s *Suite) Close() error { return s.inner.FlushDiskCache() }

// Experiments lists the registered paper experiment IDs.
func Experiments() []string { return exp.IDs() }
