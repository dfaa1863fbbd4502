package functor

import (
	"math"
	"slices"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// exactStage is the per-packet record a stopwatch keeps for one stage, in
// nanoseconds, beside the stage's three latency histograms.
type exactStage struct{ wait, service, latency []int64 }

// stopwatch wraps a kernel and measures what Instance.run measures, without
// buckets: run calls Compares at the instant it dequeued the packet (before
// charging the CPU) and reads the clock again right after Process returns.
type stopwatch struct {
	Kernel
	sim   *sim.Sim
	start sim.Time
	into  *exactStage
}

func (s *stopwatch) ASUEligible() {}

func (s *stopwatch) Compares(pk container.Packet) float64 {
	s.start = s.sim.Now()
	return s.Kernel.Compares(pk)
}

func (s *stopwatch) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	wait := int64(ctx.Instance.In.LastWait())
	s.Kernel.Process(ctx, pk, emit)
	svc := int64(ctx.Proc.Now() - s.start)
	s.into.wait = append(s.into.wait, wait)
	s.into.service = append(s.into.service, svc)
	s.into.latency = append(s.into.latency, wait+svc)
}

// TestStageQuantilesTrackExactValues: the per-stage queue_wait / service /
// latency distributions report p50, p90 and p99 within one sub-bucket (1/32
// relative, never below) of the exact nearest-rank value over the same
// packets.
func TestStageQuantilesTrackExactValues(t *testing.T) {
	cl := testClusterWith(1, 4, cluster.Observers{Telemetry: telemetry.NewRegistry()})
	exact := map[string]*exactStage{"dist": {}, "sort": {}}
	elapsed := distSortRun(t, cl, 4096, 32, func(stage string, k Kernel) Kernel {
		return &stopwatch{Kernel: k, sim: cl.Sim, into: exact[stage]}
	})
	reported := map[string]telemetry.LatencyReport{}
	for _, l := range cl.BuildReport("exact", 0, elapsed).Latencies {
		reported[l.Name] = l
	}
	for stage, ex := range exact {
		for what, vals := range map[string][]int64{"queue_wait": ex.wait, "service": ex.service, "latency": ex.latency} {
			name := "functor." + stage + "." + what
			rep, ok := reported[name]
			if !ok || rep.Count != int64(len(vals)) || len(vals) < 100 {
				t.Errorf("%s: report has %d observations (present %v), the stopwatch %d", name, rep.Count, ok, len(vals))
				continue
			}
			slices.Sort(vals)
			for _, q := range []struct {
				q   float64
				got int64
			}{{0.50, rep.P50Ns}, {0.90, rep.P90Ns}, {0.99, rep.P99Ns}} {
				want := vals[int(math.Ceil(q.q*float64(len(vals))))-1]
				if q.got < want || q.got-want > want/32 {
					t.Errorf("%s p%g = %d ns, exact nearest-rank %d ns (max %d): off by more than 1/32",
						name, q.q*100, q.got, want, vals[len(vals)-1])
				}
			}
		}
	}
}
