package main

// papermix.go is the paper-mix workload: the paper's Section III
// methodology, run the way the experiment engine's simulateOne runs it.
// Each mix of eight tasks (drawn from the eight-model suite, batch sizes
// {1, 4, 16}, random priorities, a 20 ms arrival window) runs once under
// NP-FCFS and once under preemptive PREMA with the dynamic checkpoint
// selector; one op is one mix under both configurations, the pair the
// engine runs per run index. (Per configuration, op times would be
// bimodal: the first configuration compiles the mix's RNN programs and
// the second finds them cached, which puts the median between modes.)
//
// Why: this is where premabench and the experiment tests spend their
// time and memory. Every RNN instance compiles a new unrolled program,
// so generation dominates and the generator's program cache grows with
// every mix. The ready queue never exceeds eight tasks, so scheduler
// changes should leave this workload flat.

import (
	"fmt"
	"hash/fnv"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// paperMixes is the number of mixes in one pass: enough that the
	// simulated averages are steady from seed to seed.
	paperMixes = 1000
	// paperBlock mixes share one generator, as one experiment suite's
	// runs share its generator; a block's programs are dropped with it,
	// which bounds the heap while keeping the cache's growth within a
	// block.
	paperBlock = 25
	// paperSLA is the SLA target: turnaround within 4x isolated time.
	paperSLA = 4
	// paperCheckMixes is how many mixes the identity check re-runs
	// through exp.Suite.RunConfigs.
	paperCheckMixes = 3
)

// paperConfigs are the two scheduler configurations every mix runs;
// the simulated metrics are PREMA's.
var paperConfigs = []exp.SchedulerConfig{exp.NP("FCFS"), exp.DynamicCkpt("PREMA")}

const premaConfig = 1

type paperMix struct {
	b    *bench
	gen  *workload.Generator
	seen programSet

	// First-pass results, by mix and configuration.
	runs [][2]metrics.Run
	// PREMA's first-pass turnaround percentiles by mix (ms), and its
	// SLA-violation rates summed over mixes.
	p50, p99 []float64
	sla      float64
	first    [paperCheckMixes][2][]int64 // per-task completion cycles, for the exp check

	// Simulated per-layer counts over one pass, PREMA ops only.
	ckpts, kills, drains         int64
	savedBytes, latCycles        int64
	wastedCycles, waited, nTasks int64

	// The last op's results by configuration, which finish checks,
	// digests and records.
	last [2]*sim.Result
}

func newPaperMix(b *bench) *paperMix {
	return &paperMix{b: b,
		runs: make([][2]metrics.Run, paperMixes),
		p50:  make([]float64, paperMixes),
		p99:  make([]float64, paperMixes),
	}
}

func (p *paperMix) ops() int { return paperMixes }

func (p *paperMix) block() int { return paperBlock }

func (p *paperMix) setup(int) error {
	gen, err := p.b.newGenerator()
	if err != nil {
		return err
	}
	p.gen, p.seen = gen, programSet{}
	return nil
}

func (p *paperMix) run(k int, c opCtx) (int, error) {
	n := 0
	for ci := range paperConfigs {
		res, err := p.runConfig(k, ci, c)
		if err != nil {
			return n, err
		}
		p.last[ci] = res
		n += len(res.Tasks)
	}
	return n, nil
}

// runConfig is the engine's simulateOne for mix k under configuration
// ci: fresh policy and selector, the mix regenerated from its RNG, one
// simulator.
func (p *paperMix) runConfig(k, ci int, c opCtx) (*sim.Result, error) {
	cfg := paperConfigs[ci]
	label := cfg.Policy
	if cfg.Policy == "PREMA" {
		label = premaLabel(c.traced)
	}
	policy, err := sched.ByName(label, p.b.sch)
	if err != nil {
		return nil, err
	}
	var selector sched.MechanismSelector
	if cfg.Selector != "" {
		if selector, err = sched.SelectorByName(cfg.Selector); err != nil {
			return nil, err
		}
	}
	lc := &p.b.lc
	var tasks []*workload.Task
	err = layerCall(c, "workload.generate", &lc.generateAlloc, func() error {
		var err error
		tasks, err = p.gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(p.b.seed, k))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate mix %d: %w", k, err)
	}
	var res *sim.Result
	err = layerCall(c, "sim.run", &lc.simAlloc, func() error {
		s, err := sim.New(sim.Options{
			NPU: p.b.npu, Sched: p.b.sch,
			Policy: policy, Preemptive: cfg.Preemptive, Selector: selector,
		}, workload.SchedTasks(tasks))
		if err != nil {
			return err
		}
		res, err = s.Run()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s mix %d: %w", cfg.Label, k, err)
	}
	if c.count {
		p.seen.count(lc, tasks)
	}
	return res, nil
}

func (p *paperMix) finish(k int, c opCtx) (uint64, error) {
	h := fnv.New64a()
	for ci, res := range p.last {
		m, err := metrics.FromTasks(res.Tasks)
		if err != nil {
			return 0, fmt.Errorf("%s mix %d: %w", paperConfigs[ci].Label, k, err)
		}
		for _, t := range res.Tasks {
			fmt.Fprintf(h, "%d %d %d %d;", t.ID, t.Completion, t.Waited, t.Preemptions)
		}
		for _, e := range res.Preemptions {
			fmt.Fprintf(h, "%d %d %d %d;", e.Cycle, e.Cost.Mechanism, e.Cost.SavedBytes, e.Cost.WastedCycles)
		}
		if c.first {
			p.runs[k][ci] = m
			if k < paperCheckMixes {
				for _, t := range res.Tasks {
					p.first[k][ci] = append(p.first[k][ci], t.Completion)
				}
			}
			if ci == premaConfig {
				msPerCycle := p.b.npu.Millis(1)
				p.p50[k] = metrics.TailLatency(res.Tasks, 50, nil) * msPerCycle
				p.p99[k] = metrics.TailLatency(res.Tasks, 99, nil) * msPerCycle
				p.sla += metrics.SLAViolationRate(res.Tasks, paperSLA)
			}
		}
		if c.count {
			p.b.lc.wakes += res.Wakes
			if ci == premaConfig {
				p.countPreemptions(res)
			}
		}
	}
	return h.Sum64(), nil
}

func (p *paperMix) countPreemptions(res *sim.Result) {
	for _, e := range res.Preemptions {
		switch e.Cost.Mechanism {
		case preempt.Checkpoint:
			p.ckpts++
			p.savedBytes += e.Cost.SavedBytes
		case preempt.Drain:
			p.drains++
			continue
		default:
			p.kills++
		}
		p.latCycles += e.Cost.Latency()
		p.wastedCycles += e.Cost.WastedCycles
	}
	for _, t := range res.Tasks {
		p.waited += t.Waited
		p.nTasks++
	}
}

func (p *paperMix) simulated() simMetrics {
	var s simMetrics
	for k, r := range p.runs {
		s.antt += r[premaConfig].ANTT
		s.stp += r[premaConfig].STP
		s.latP50 += p.p50[k]
		s.latP99 += p.p99[k]
	}
	s.antt /= paperMixes
	s.stp /= paperMixes
	s.latP50 /= paperMixes
	s.latP99 /= paperMixes
	s.sla = p.sla / paperMixes
	return s
}

// check re-runs the first mixes through the experiment engine and
// requires identical per-mix metrics and completion cycles.
func (p *paperMix) check() error {
	suite, err := exp.NewSuiteFor(p.b.npu, p.b.sch, nil, profileSeed)
	if err != nil {
		return err
	}
	suite.Seed = p.b.seed
	suite.Workers = 1
	suite.Cache = nil
	results, err := suite.RunConfigs(paperConfigs, workload.Spec{Tasks: 8}, paperCheckMixes)
	if err != nil {
		return err
	}
	for ci, mr := range results {
		perRun := make([]metrics.Run, paperCheckMixes)
		for mix := range perRun {
			perRun[mix] = p.runs[mix][ci]
		}
		if got, want := metrics.Averaged(perRun), mr.Agg; got != want {
			return fmt.Errorf("%s: benchmark aggregate %+v, exp.RunConfigs %+v", mr.Config.Label, got, want)
		}
		pooled := 0
		for mix := 0; mix < paperCheckMixes; mix++ {
			for _, c := range p.first[mix][ci] {
				if t := mr.Tasks[pooled]; t.Completion != c {
					return fmt.Errorf("%s mix %d: task %d completes at %d, exp.RunConfigs says %d",
						mr.Config.Label, mix, t.ID, c, t.Completion)
				}
				pooled++
			}
		}
	}
	return nil
}

func (p *paperMix) layers(m metricSet) {
	ms := func(cycles int64) float64 { return p.b.npu.Millis(cycles) }
	nonDrain := p.ckpts + p.kills
	m.set("preempt.checkpoints", "count", float64(p.ckpts))
	m.set("preempt.kills", "count", float64(p.kills))
	m.set("preempt.drains", "count", float64(p.drains))
	m.set("preempt.saved_mb", "MB", float64(p.savedBytes)/(1<<20))
	m.set("preempt.latency_us_mean", "us", ratio(p.b.npu.Micros(p.latCycles), float64(nonDrain)))
	m.set("npu.wasted_ms", "ms", ms(p.wastedCycles))
	m.set("sched.wait_ms_mean", "ms", ratio(ms(p.waited), float64(p.nTasks)))
}
