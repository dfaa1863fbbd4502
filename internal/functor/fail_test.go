package functor

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lmas/internal/bte"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// TestFailingKernelFailsTheRun: a kernel that fails its proc, or panics,
// mid-stream ends Pipeline.Run with that failure while sources, couriers
// and upstream instances are still blocked on backpressure; Run kills them,
// so the goroutine count is back where it started.
func TestFailingKernelFailsTheRun(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		fail  func(ctx *Ctx)
		check func(err error) bool
	}{
		{"Fail", func(ctx *Ctx) { ctx.Proc.Fail(errBoom) }, func(err error) bool { return errors.Is(err, errBoom) }},
		{"panic", func(ctx *Ctx) { panic("kaboom") }, func(err error) bool {
			var pe *sim.ProcPanicError
			return errors.As(err, &pe) && pe.Value == "kaboom"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := testCluster(1, 2)
			var sets []*container.Set
			cl.Sim.Spawn("seed", func(p *sim.Proc) {
				for i, asu := range cl.ASUs {
					set := container.NewSet(fmt.Sprintf("in%d", i), bte.NewDisk(asu.Disk), recSize)
					buf := records.Generate(400, recSize, int64(i+1), records.Uniform{})
					for off := 0; off < 400; off += 10 {
						set.Add(p, container.NewPacket(buf.Slice(off, off+10).Clone()))
					}
					sets = append(sets, set)
				}
			})
			if err := cl.Sim.Run(); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			pl := NewPipeline(cl)
			dist := pl.AddStage("dist", cl.ASUs, func() Kernel { return Adapt(NewDistribute(4), recSize, 8) })
			seen := 0
			sink := pl.AddStage("sink", cl.Hosts, func() Kernel {
				return &Sink{Label: "out", Fn: func(ctx *Ctx, pk container.Packet) {
					if seen++; seen == 5 {
						tc.fail(ctx)
					}
				}}
			})
			dist.ConnectTo(sink, &route.RoundRobin{})
			sink.Terminal()
			for i, set := range sets {
				pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(0, false), dist, localFirst(i))
			}
			_, err := pl.Run()
			if !tc.check(err) {
				t.Fatalf("Run = %v, want the kernel's failure", err)
			}
			if seen != 5 {
				t.Errorf("sink saw %d packets, want the run to stop at the failing 5th", seen)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before, %d after", before, after)
			}
		})
	}
}
