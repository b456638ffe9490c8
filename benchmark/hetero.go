package main

// hetero.go is the hetero-chaos workload: repeated sessions in the shape
// of scenarios/hetero-stress.scn, driven through the serving API
// directly. A 70%:fast / 30%:slow tiered fleet grows from 6 to at most
// 12 NPUs under the queue-depth scaler at an 8 ms SLO, rides the load
// ramp 1 2.5 4 4 2.5 1, loses npu1 to a failure and has npu4 cordoned
// and uncordoned at the scenario's fractions of the span. The telemetry
// Trace is attached and exported as JSONL in every session. Each
// session draws its own arrival seed and a segment length between 40
// and 120 ms from the benchmark seed; one op is one session.
//
// Why: the serving layer used the other way from serve-overload. Queues
// stay short, and the time goes to stretching programs for the slow
// tier, failure reclaim, autoscale ticks and telemetry. Changes there
// show here; serve-overload's scheduler gains should not.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

const (
	// heteroSessions is the number of distinct sessions in one pass.
	heteroSessions = 100
	heteroFleet    = "70%:fast,30%:slow"
	heteroSLO      = 8 * time.Millisecond
)

// heteroLoads is hetero-stress.scn's ramp, and heteroModels the
// scenario format's default interactive mix.
var (
	heteroLoads  = []float64{1, 2.5, 4, 4, 2.5, 1}
	heteroModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}
)

// session is one hetero-chaos session's inputs.
type session struct {
	segment time.Duration
	seed    uint64
}

// chaos is the scenario's fault schedule: hetero-stress.scn fails npu1
// at 70 ms, cordons npu4 at 120 ms and uncordons it at 170 ms of its
// 240 ms span, i.e. after 7/4, 3 and 17/4 segments.
func (s session) chaos() []scenario.Event {
	at := func(quarters int64) time.Duration { return s.segment * time.Duration(quarters) / 4 }
	return []scenario.Event{
		{At: at(7), Op: serving.NodeOp{Kind: serving.FailNPU, NPU: 1}},
		{At: at(12), Op: serving.NodeOp{Kind: serving.CordonNPU, NPU: 4}},
		{At: at(17), Op: serving.NodeOp{Kind: serving.UncordonNPU, NPU: 4}},
	}
}

func (s session) span() time.Duration { return s.segment * time.Duration(len(heteroLoads)) }

// text renders the session as scenario text, for the identity check
// against scenario.RunWithTrace.
func (s session) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario hetero-chaos\nfleet initial=6 min=6 max=12 tiers=%s\n", heteroFleet)
	fmt.Fprintf(&b, "routing least-work\npolicy PREMA preemptive\nscaler queue-depth slo=%v\n", heteroSLO)
	fmt.Fprintf(&b, "seed %d\nsegment %v\nload", s.seed, s.segment)
	for _, l := range heteroLoads {
		fmt.Fprintf(&b, " %v", l)
	}
	b.WriteString("\n")
	for _, e := range s.chaos() {
		fmt.Fprintf(&b, "at %v %s npu%d\n", e.At, e.Op.Kind, e.Op.NPU)
	}
	return b.String()
}

type heteroChaos struct {
	b        *bench
	sessions []session
	srv      *serving.Server
	tiers    []serving.Tier
	seen     programSet

	// First-pass node statistics and the first session's JSONL.
	stats      []serving.NodeStats
	firstJSONL []byte

	// Per-layer counts over one pass.
	ticks, scaleEvents, stretched, reclaimed int64
	backends, events, jsonlBytes             int64

	// The last op's outcome, which finish checks and records.
	last      serving.NodeStats
	lastJSONL []byte
	lastN     int
	lastNS    *serving.NodeSession
	lastTrace *telemetry.Trace
	lastEv    []telemetry.Event
}

func newHeteroChaos(b *bench) *heteroChaos {
	h := &heteroChaos{b: b, stats: make([]serving.NodeStats, heteroSessions)}
	for k := 0; k < heteroSessions; k++ {
		rng := workload.RNGFor(b.seed, k)
		h.sessions = append(h.sessions, session{
			segment: time.Duration(40+4*rng.IntN(21)) * time.Millisecond,
			seed:    rng.Uint64N(1<<53) + 1,
		})
	}
	return h
}

func (h *heteroChaos) ops() int { return heteroSessions }

// Every session gets a fresh generator and server, as each premasim
// -scenario invocation does.
func (h *heteroChaos) block() int { return 1 }

func (h *heteroChaos) setup(int) error {
	gen, err := h.b.newGenerator()
	if err != nil {
		return err
	}
	h.srv, h.seen = serving.NewServer(h.b.npu, h.b.sch, gen), programSet{}
	h.tiers, err = serving.FleetFromTemplate(h.srv.NPU(), heteroFleet)
	return err
}

func (h *heteroChaos) run(k int, c opCtx) (_ int, rerr error) {
	s := h.sessions[k]
	lc := &h.b.lc
	tr := telemetry.New()
	var ns *serving.NodeSession
	err := layerCall(c, "serving.open", new(uint64), func() error {
		var err error
		ns, err = h.srv.OpenNode(serving.NodeConfig{
			NPUs:    6,
			Fleet:   h.tiers,
			Routing: cluster.LeastWork,
			Trace:   tr,
			Session: serving.SessionConfig{Policy: premaLabel(c.traced), Preemptive: true, Horizon: s.span()},
			Autoscale: &serving.AutoscaleConfig{
				Scaler: "queue-depth", SLO: heteroSLO, MinNPUs: 6, MaxNPUs: 12,
			},
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		if err := ns.Close(); err != nil && rerr == nil {
			rerr = fmt.Errorf("closing node session: %w", err)
		}
	}()
	for _, e := range s.chaos() {
		if err := ns.Schedule(e.At, e.Op); err != nil {
			return 0, err
		}
	}
	tasks, err := h.b.offerRamp(c, h.srv, ns, serving.Spec{
		Horizon: s.segment, Models: heteroModels, BatchSizes: []int{1},
	}, heteroLoads, workload.RNGFor(s.seed, 0))
	if err != nil {
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	if c.count {
		h.seen.count(lc, tasks)
	}
	err = layerCall(c, "serving.advance", new(uint64), func() error { return ns.AdvanceTo(s.span()) })
	if err != nil {
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	var st serving.NodeStats
	err = layerCall(c, "serving.drain", &lc.drainAlloc, func() error {
		var err error
		st, err = ns.Drain()
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	var events []telemetry.Event
	var jsonl []byte
	err = layerCall(c, "telemetry.export", new(uint64), func() error {
		var err error
		if events, err = ns.TraceEvents(); err != nil {
			return err
		}
		jsonl, err = telemetry.EncodeJSONL(events, tr.Recorder.Samples())
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	h.last, h.lastJSONL, h.lastN, h.lastNS, h.lastTrace, h.lastEv = st, jsonl, len(tasks), ns, tr, events
	return st.Requests, nil
}

func (h *heteroChaos) finish(k int, c opCtx) (uint64, error) {
	st := h.last
	if st.Requests != h.lastN {
		return 0, fmt.Errorf("session %d: node completed %d of %d submitted requests", k, st.Requests, h.lastN)
	}
	if st.Scaling == nil {
		return 0, fmt.Errorf("session %d: no scaling statistics", k)
	}
	if c.first {
		h.stats[k] = st
		if k == 0 {
			h.firstJSONL = h.lastJSONL
		}
	}
	if c.count {
		h.ticks += int64(h.lastTrace.Recorder.Total())
		for _, e := range h.lastNS.Timeline() {
			if e.Kind == "scale" {
				h.scaleEvents++
			}
		}
		for _, e := range h.lastEv {
			switch e.Kind {
			case telemetry.KindStretch:
				h.stretched++
			case telemetry.KindReclaim:
				h.reclaimed++
			}
		}
		h.backends += int64(h.lastNS.NPUs())
		h.events += int64(len(h.lastEv))
		h.jsonlBytes += int64(len(h.lastJSONL))
	}
	d := fnv.New64a()
	fmt.Fprintf(d, "%+v %+v %v;", st.BatchStats, *st.Scaling, h.lastNS.Routed())
	d.Write(h.lastJSONL)
	return d.Sum64(), nil
}

func (h *heteroChaos) simulated() simMetrics {
	var s simMetrics
	for _, st := range h.stats {
		s.antt += st.MeanNTT
		s.sla += st.SLAViolations4x
		s.latP50 += st.P50LatencyMS
		s.latP99 += st.P99LatencyMS
		if st.Scaling != nil {
			s.slo += st.Scaling.SLOViolationFrac
		}
	}
	n := float64(len(h.stats))
	s.antt /= n
	s.sla /= n
	s.latP50 /= n
	s.latP99 /= n
	s.slo /= n
	return s
}

// check replays the first session as scenario text through
// scenario.RunWithTrace on a fresh server and requires the identical
// JSONL trace and summary.
func (h *heteroChaos) check() error {
	sc, err := scenario.Parse(h.sessions[0].text())
	if err != nil {
		return err
	}
	gen, err := h.b.newGenerator()
	if err != nil {
		return err
	}
	rep, err := scenario.RunWithTrace(serving.NewServer(h.b.npu, h.b.sch, gen), sc, telemetry.New())
	if err != nil {
		return err
	}
	jsonl, err := telemetry.EncodeJSONL(rep.Events, rep.Samples)
	if err != nil {
		return err
	}
	if string(jsonl) != string(h.firstJSONL) {
		return fmt.Errorf("session 0: JSONL trace differs from scenario.RunWithTrace's (%d vs %d bytes)", len(h.firstJSONL), len(jsonl))
	}
	st := h.stats[0]
	if got, want := [3]float64{st.P50LatencyMS, st.P99LatencyMS, st.Scaling.SLOViolationFrac},
		[3]float64{rep.Summary.P50LatencyMS, rep.Summary.P99LatencyMS, rep.Summary.SLOViolationFrac}; got != want {
		return fmt.Errorf("session 0: p50/p99/SLO %v, scenario.RunWithTrace %v", got, want)
	}
	return nil
}

func (h *heteroChaos) layers(m metricSet) {
	m.set("autoscale.ticks", "count", float64(h.ticks))
	m.set("autoscale.scale_events", "count", float64(h.scaleEvents))
	m.set("serving.stretched", "count", float64(h.stretched))
	m.set("serving.reclaimed", "count", float64(h.reclaimed))
	m.set("serving.backends", "count", float64(h.backends))
	m.set("telemetry.events", "count", float64(h.events))
	m.set("telemetry.jsonl_mb", "MB", float64(h.jsonlBytes)/(1<<20))
}
