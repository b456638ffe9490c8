package main

// overload.go is the serve-overload workload: one NodeSession with two
// homogeneous NPUs, least-work routing and preemptive PREMA. One op
// generates a 3 s Poisson stream of batch-1 requests over the four CNNs
// at offered load 4 (twice the node's capacity), submits it in arrival
// order, and drains the node once.
//
// The stream is generated as 24 consecutive 125 ms Server.Generate
// segments at the same load, as a scenario's constant load ramp is. One
// Generate call calibrates its arrival rate from 24 sampled requests,
// and the four CNNs' service times span 0.44 to 6.5 ms, so the load one
// call realizes ranges from about 3 to 6 (5th to 95th percentile) for a
// nominal 4. Over one call per stream, the backlog's growth rate would
// vary fourfold from seed to seed; over 24 calls the calibration
// averages out.
//
// Why: the backlog grows for the whole stream, so PREMA's Pick and the
// token update do O(queue) work on every scheduler wake. Only four
// programs exist, so the compiler is bypassed; what generation still
// costs is the per-request model lookup.

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/workload"
)

const (
	// overloadStreams is the number of distinct streams in one pass.
	overloadStreams = 12
	// A stream is overloadSegments Generate calls of overloadSegment
	// each, 3 s in all.
	overloadSegments = 24
	overloadSegment  = 125 * time.Millisecond
	overloadLoad     = 4
	overloadNPUs     = 2
)

var overloadModels = []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN"}

type serveOverload struct {
	b    *bench
	srv  *serving.Server
	seen programSet

	// First-pass node statistics, by stream.
	stats []serving.NodeStats

	// Shadow-router replays: decisions made over one pass, and host time
	// per decision over traced ops.
	decides, decideCalls, decideNS int64
	backends                       int64

	// The last op's stream and outcome, which finish checks and records.
	lastTasks  []*workload.Task
	lastStats  serving.NodeStats
	lastRouted []int
}

func newServeOverload(b *bench) *serveOverload {
	return &serveOverload{b: b, stats: make([]serving.NodeStats, overloadStreams)}
}

func (o *serveOverload) ops() int { return overloadStreams }

// Every stream gets a fresh generator and server, so every op pays the
// cold caches a fresh invocation pays.
func (o *serveOverload) block() int { return 1 }

func (o *serveOverload) setup(int) error {
	gen, err := o.b.newGenerator()
	if err != nil {
		return err
	}
	o.srv, o.seen = serving.NewServer(o.b.npu, o.b.sch, gen), programSet{}
	return nil
}

func (o *serveOverload) run(k int, c opCtx) (n int, rerr error) {
	lc := &o.b.lc
	ns, err := o.srv.OpenNode(serving.NodeConfig{
		NPUs:    overloadNPUs,
		Routing: cluster.LeastWork,
		Session: serving.SessionConfig{Policy: premaLabel(c.traced), Preemptive: true},
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		if err := ns.Close(); err != nil && rerr == nil {
			rerr = fmt.Errorf("closing node session: %w", err)
		}
	}()
	loads := make([]float64, overloadSegments)
	for i := range loads {
		loads[i] = overloadLoad
	}
	tasks, err := o.b.offerRamp(c, o.srv, ns, serving.Spec{
		Horizon: overloadSegment, Models: overloadModels, BatchSizes: []int{1},
	}, loads, workload.RNGFor(o.b.seed, k))
	if err != nil {
		return 0, fmt.Errorf("stream %d: %w", k, err)
	}
	var st serving.NodeStats
	err = layerCall(c, "serving.drain", &lc.drainAlloc, func() error {
		var err error
		st, err = ns.Drain()
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("drain stream %d: %w", k, err)
	}
	if st.Requests != len(tasks) {
		return 0, fmt.Errorf("stream %d: node completed %d of %d submitted requests", k, st.Requests, len(tasks))
	}
	o.lastTasks, o.lastStats, o.lastRouted = tasks, st, ns.Routed()
	return st.Requests, nil
}

func (o *serveOverload) finish(k int, c opCtx) (uint64, error) {
	if err := o.shadow(c, o.lastTasks, o.lastRouted); err != nil {
		return 0, fmt.Errorf("stream %d: %w", k, err)
	}
	if c.first {
		o.stats[k] = o.lastStats
	}
	if c.count {
		o.seen.count(&o.b.lc, o.lastTasks)
		o.backends += int64(len(o.lastRouted))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %v", o.lastStats.BatchStats, o.lastRouted)
	return h.Sum64(), nil
}

// shadow replays the stream through a fresh cluster router and state,
// Decide then Commit per request as NodeSession.Submit does, and
// requires the same per-NPU split as the node's. It runs after the op's
// timing stops; on traced ops its Decide and Commit time feeds the
// cluster layer's counters.
func (o *serveOverload) shadow(c opCtx, tasks []*workload.Task, routed []int) error {
	r, err := cluster.NewRouter(cluster.LeastWork)
	if err != nil {
		return err
	}
	st := cluster.NewState(overloadNPUs)
	got := make([]int, overloadNPUs)
	start := time.Now()
	for _, t := range tasks {
		i := r.Decide(t, st)
		st.Commit(i, t)
		got[i]++
	}
	if c.traced {
		o.decideCalls += int64(len(tasks))
		o.decideNS += int64(time.Since(start))
	}
	if c.count {
		o.decides += int64(len(tasks))
	}
	for i := range got {
		if got[i] != routed[i] {
			return fmt.Errorf("shadow router split %v, NodeSession.Routed() %v", got, routed)
		}
	}
	return nil
}

func (o *serveOverload) simulated() simMetrics {
	var s simMetrics
	for _, st := range o.stats {
		s.antt += st.MeanNTT
		s.sla += st.SLAViolations4x
		s.latP50 += st.P50LatencyMS
		s.latP99 += st.P99LatencyMS
	}
	n := float64(len(o.stats))
	s.antt /= n
	s.sla /= n
	s.latP50 /= n
	s.latP99 /= n
	return s
}

// check: the shadow router is compared on every op (see shadow).
func (o *serveOverload) check() error { return nil }

func (o *serveOverload) layers(m metricSet) {
	m.set("cluster.decides", "count", float64(o.decides))
	m.set("cluster.decide_ns_mean", "ns", ratio(float64(o.decideNS), float64(o.decideCalls)))
	m.set("serving.backends", "count", float64(o.backends))
}
