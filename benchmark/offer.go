package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/serving"
	"repro/internal/workload"
)

// offerRamp is NodeSession.OfferRamp unrolled, so that generation and
// submission are timed apart: segment i offers loads[i] over
// [i*base.Horizon, (i+1)*base.Horizon) from one RNG stream, and a
// segment that draws no arrivals is skipped. It returns the submitted
// requests in order.
func (b *bench) offerRamp(c opCtx, srv *serving.Server, ns *serving.NodeSession,
	base serving.Spec, loads []float64, rng *rand.Rand) ([]*workload.Task, error) {
	var all []*workload.Task
	for i, load := range loads {
		seg := base
		seg.OfferedLoad = load
		seg.Offset = base.Offset + time.Duration(i)*base.Horizon
		var tasks []*workload.Task
		err := layerCall(c, "workload.generate", &b.lc.generateAlloc, func() error {
			var err error
			tasks, err = srv.Generate(seg, rng)
			return err
		})
		if errors.Is(err, serving.ErrNoArrivals) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if err := b.submitAll(c, ns, tasks); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		all = append(all, tasks...)
	}
	return all, nil
}

// submitAll submits tasks in order, timing every call: the host time
// per arrival that a control plane's clock loop pays.
func (b *bench) submitAll(c opCtx, ns *serving.NodeSession, tasks []*workload.Task) error {
	var a0 uint64
	if c.traced {
		a0 = allocBytes()
	}
	for _, t := range tasks {
		start := time.Now()
		err := ns.Submit(t)
		d := time.Since(start)
		b.submitNS = append(b.submitNS, float64(d))
		trc.add("serving.submit", start, d)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
	}
	if c.traced {
		b.lc.submitAlloc += allocBytes() - a0
	}
	return nil
}
