package functor

import (
	"testing"

	"lmas/internal/bte"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// driveKernel pushes packets through a kernel in a bare sim context.
func driveKernel(b *testing.B, k Kernel, pk container.Packet, rounds int) {
	b.Helper()
	cl := testCluster(1, 1)
	cl.Sim.Spawn("bench", func(p *sim.Proc) {
		ctx := &Ctx{Cluster: cl, Node: cl.Hosts[0], Proc: p}
		emit := func(container.Packet) {}
		for i := 0; i < rounds; i++ {
			k.Process(ctx, pk, emit)
		}
		k.Flush(ctx, emit)
	})
	if err := cl.Sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDistributeKernel(b *testing.B) {
	buf := records.Generate(1024, recSize, 1, records.Uniform{})
	pk := container.NewPacket(buf)
	b.SetBytes(int64(recSize))
	k := Adapt(NewDistribute(256), recSize, 64)
	b.ResetTimer()
	driveKernel(b, k, pk, b.N/1024+1)
}

func BenchmarkBlockSortKernel(b *testing.B) {
	buf := records.Generate(1024, recSize, 1, records.Uniform{})
	pk := container.NewPacket(buf)
	pk.Bucket = 0
	b.SetBytes(int64(recSize))
	k := NewBlockSort(256, recSize)
	b.ResetTimer()
	driveKernel(b, k, pk, b.N/1024+1)
}

func BenchmarkAggregateKernel(b *testing.B) {
	buf := records.Generate(1024, recSize, 1, records.Uniform{})
	pk := container.NewPacket(buf)
	b.SetBytes(int64(recSize))
	k := NewAggregate(64)
	b.ResetTimer()
	driveKernel(b, k, pk, b.N/1024+1)
}

// BenchmarkPipelineEndToEnd measures the full stage/courier/edge machinery
// on a small three-stage pipeline.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := testCluster(1, 2)
		var sets []*container.Set
		cl.Sim.Spawn("seed", func(p *sim.Proc) {
			for j, asu := range cl.ASUs {
				_ = asu
				set := container.NewSet("in", bte.NewMemory(), recSize)
				set.Add(p, container.NewPacket(records.Generate(2048, recSize, int64(j), records.Uniform{})))
				sets = append(sets, set)
			}
		})
		cl.Sim.Run()
		pl := NewPipeline(cl)
		dist := pl.AddStage("d", cl.ASUs, func() Kernel { return Adapt(NewDistribute(16), recSize, 64) })
		srt := pl.AddStage("s", cl.Hosts, func() Kernel { return NewBlockSort(64, recSize) })
		sink := pl.AddStage("k", cl.Hosts, func() Kernel { return &Sink{Label: "x", Fn: func(*Ctx, container.Packet) {}} })
		dist.ConnectTo(srt, &route.RoundRobin{})
		srt.ConnectTo(sink, &route.RoundRobin{})
		sink.Terminal()
		for j, set := range sets {
			pl.AddSource("r", cl.ASUs[j], set.Scan(0, false), dist, route.Pin(j))
		}
		if _, err := pl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
