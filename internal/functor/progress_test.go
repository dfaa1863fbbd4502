package functor

import (
	"strings"
	"testing"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// distSortRun seeds perASU records on every ASU of cl, in packets of
// pktRecords, runs a distribute → sort pipeline over them with every stage
// kernel passed through wrap, and returns the elapsed virtual time.
func distSortRun(t *testing.T, cl *cluster.Cluster, perASU, pktRecords int, wrap func(stage string, k Kernel) Kernel) sim.Duration {
	t.Helper()
	var sets []*container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		for i, asu := range cl.ASUs {
			set := container.NewSet("in", bte.NewDisk(asu.Disk), recSize)
			buf := records.Generate(perASU, recSize, int64(i), records.Uniform{})
			for off := 0; off < perASU; off += pktRecords {
				set.Add(p, container.NewPacket(buf.Slice(off, off+pktRecords).Clone()))
			}
			sets = append(sets, set)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(cl)
	dist := pl.AddStage("dist", cl.ASUs, func() Kernel { return wrap("dist", Adapt(NewDistribute(8), recSize, 64)) })
	srt := pl.AddStage("sort", cl.Hosts, func() Kernel { return wrap("sort", NewBlockSort(64, recSize)) })
	dist.ConnectTo(srt, &route.RoundRobin{})
	srt.Terminal()
	for i, set := range sets {
		pl.AddSource("r", cl.ASUs[i], set.Scan(0, false), dist, route.Pin(i))
	}
	elapsed, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// sampledRun is distSortRun on a 1-host cluster with one input packet per
// ASU, returning the elapsed virtual time and the run's report. every > 0
// attaches the cluster's gauge sampler.
func sampledRun(t *testing.T, asus, perASU int, every sim.Duration) (sim.Duration, *telemetry.RunReport) {
	t.Helper()
	cl := testClusterWith(1, asus, cluster.Observers{Telemetry: telemetry.NewRegistry(), GaugeEvery: every})
	elapsed := distSortRun(t, cl, perASU, perASU, func(_ string, k Kernel) Kernel { return k })
	cl.FinishSampling()
	return elapsed, cl.BuildReport("progress", 0, elapsed)
}

// TestSamplerSeesStageProgress: a pipeline started with the gauge sampler
// attached registers one records-in probe per stage; the sampled series are
// monotone and end at the full input, and the busy-time series beside them
// are monotone with cumulative utilization within [0,1].
func TestSamplerSeesStageProgress(t *testing.T) {
	_, rep := sampledRun(t, 2, 4096, sim.Millisecond)
	gauges := map[string][]telemetry.GaugeSample{}
	for _, g := range rep.Gauges {
		gauges[g.Name] = g.Samples
	}
	for _, st := range []string{"dist", "sort"} {
		series := gauges["stage."+st+".records_in"]
		if len(series) < 2 {
			t.Fatalf("stage %s: %d samples", st, len(series))
		}
		for i := 1; i < len(series); i++ {
			if series[i].V < series[i-1].V {
				t.Fatalf("stage %s records regressed at sample %d", st, i)
			}
		}
		if last := series[len(series)-1].V; last != 8192 {
			t.Fatalf("stage %s ends at %v records, want 8192", st, last)
		}
	}
	sawBusy := false
	for name, series := range gauges {
		if !strings.HasPrefix(name, "node.") {
			continue
		}
		// A hold is booked when it ends, so an interval's busy delta can
		// exceed the interval (the sampler's display clamps it); what always
		// holds is that busy time only grows and never outruns the clock.
		for i, smp := range series {
			u := smp.V / sim.Time(smp.T).Seconds()
			if u < 0 || u > 1 || (i > 0 && smp.V < series[i-1].V) {
				t.Fatalf("%s sample %d: busy %vs at t=%v", name, i, smp.V, sim.Time(smp.T))
			}
			if u > 0.5 {
				sawBusy = true
			}
		}
	}
	if !sawBusy {
		t.Fatal("no node ever busy; sampling broken")
	}
}

// TestSamplerStopsWithPipeline: the sampler is a daemon, so the simulation
// drains when the pipeline does — at the instant it drains unobserved, even
// when the sampling interval is far longer than the run.
func TestSamplerStopsWithPipeline(t *testing.T) {
	bare, _ := sampledRun(t, 1, 64, 0)
	for _, every := range []sim.Duration{sim.Millisecond / 4, 10 * sim.Second} {
		if got, _ := sampledRun(t, 1, 64, every); got != bare {
			t.Errorf("sampling every %v: pipeline ran %v, unobserved %v", every, got, bare)
		}
	}
}
