package scenario

import (
	"testing"
	"time"
)

// TestBadSpeedFactorsRejected: every service-time factor a scenario can
// name — a slowdown, a fleet tier's @factor, or the two stacked — passes
// serving.CheckFactor, so NaN, infinities and runaway factors fail
// fast with an error instead of wrapping tile latencies or stalling
// the simulator.
func TestBadSpeedFactorsRejected(t *testing.T) {
	const base = "scenario s\nfleet initial=2\nsegment 40ms\nload 1\n"
	const tiered = "scenario s\nfleet initial=2 tiers=50%:fast,50%:ancient@600\nsegment 40ms\nload 1\n"
	for _, src := range []string{
		base + "at 10ms slowdown npu0 xNaN\n",
		base + "at 10ms slowdown npu0 xInf\n",
		base + "at 10ms slowdown npu0 x1e12\n",
		base + "at 10ms slowdown npu0 x-Inf\n",
		"scenario s\nfleet initial=2 tiers=50%:fast,50%:odd@NaN\nsegment 40ms\nload 1\n",
		"scenario s\nfleet initial=2 tiers=50%:fast,50%:odd@Inf\nsegment 40ms\nload 1\n",
		"scenario s\nfleet initial=2 tiers=50%:fast,50%:odd@1e12\nsegment 40ms\nload 1\n",
		// x2 on the x600 tier stacks to x1200.
		tiered + "at 10ms slowdown npu1 x2\n",
	} {
		start := time.Now()
		sc, err := Parse(src)
		if err == nil {
			_, err = Run(newServer(t), sc)
		}
		if err == nil {
			t.Errorf("scenario accepted:\n%s", src)
		} else {
			t.Log(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("rejecting took %v, want under 1s:\n%s", d, src)
		}
	}
}
