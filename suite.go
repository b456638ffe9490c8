package prema

// suite.go is the experiment surface: one Suite shares a workload
// generator, a compiled-program cache and a simulation-result cache
// across every paper experiment it runs, so overlapping sweeps (the
// NP-FCFS baseline, the Static-*/Dynamic-* configurations shared between
// figures, ...) simulate once per process.

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
// experiments run against its NPU and scheduler configuration and share
// its compiled-program cache.
func (s *System) NewSuite(opt SuiteOptions) (*Suite, error) {
	inner, err := exp.NewSuiteFor(s.opt.NPU, s.opt.Sched, s.gen, s.opt.ProfileSeed)
	if err != nil {
		return nil, err
	}
	return newSuite(inner, opt)
}

func newSuite(inner *exp.Suite, opt SuiteOptions) (*Suite, error) {
	if opt.Runs < 0 {
		return nil, fmt.Errorf("prema: negative SuiteOptions.Runs %d", opt.Runs)
	}
	if opt.Parallel < 0 {
		return nil, fmt.Errorf("prema: negative SuiteOptions.Parallel %d", opt.Parallel)
	}
	if opt.Runs > 0 {
		inner.Runs = opt.Runs
	}
	if opt.Seed != 0 {
		inner.Seed = opt.Seed
	}
	inner.Workers = opt.Parallel
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

// Experiments lists the registered paper experiment IDs.
func Experiments() []string { return exp.IDs() }
