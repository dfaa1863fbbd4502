package cluster

import (
	"math"
	"strings"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

func TestNewBuildsRequestedShape(t *testing.T) {
	p := DefaultParams()
	p.Hosts, p.ASUs = 2, 16
	c := New(p)
	if len(c.Hosts) != 2 || len(c.ASUs) != 16 {
		t.Fatalf("built %d hosts, %d ASUs", len(c.Hosts), len(c.ASUs))
	}
	if len(c.Nodes()) != 18 {
		t.Fatalf("Nodes() = %d", len(c.Nodes()))
	}
	for _, h := range c.Hosts {
		if h.Kind != Host || h.Disk != nil || h.NIC == nil {
			t.Fatalf("bad host %v", h)
		}
	}
	for _, a := range c.ASUs {
		if a.Kind != ASU || a.Disk == nil || a.NIC == nil {
			t.Fatalf("bad ASU %v", a)
		}
	}
}

func TestPowerRatio(t *testing.T) {
	p := DefaultParams()
	p.C = 8
	c := New(p)
	got := c.Hosts[0].OpsPerSec / c.ASUs[0].OpsPerSec
	if math.Abs(got-8) > 1e-9 {
		t.Fatalf("host/ASU ops ratio = %v, want 8", got)
	}
}

func TestComputeScalesWithNodeSpeed(t *testing.T) {
	p := DefaultParams()
	p.C = 4
	c := New(p)
	var hostT, asuT sim.Time
	c.Sim.Spawn("h", func(pr *sim.Proc) {
		c.Hosts[0].Compute(pr, 1e6)
		hostT = pr.Now()
	})
	c.Sim.Spawn("a", func(pr *sim.Proc) {
		c.ASUs[0].Compute(pr, 1e6)
		asuT = pr.Now()
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(asuT) / float64(hostT)
	if math.Abs(ratio-4) > 1e-6 {
		t.Fatalf("same work took %vx longer on ASU, want 4x", ratio)
	}
}

func TestComputeSerializesOnOneCPU(t *testing.T) {
	p := DefaultParams()
	c := New(p)
	n := c.Hosts[0]
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		c.Sim.Spawn("w", func(pr *sim.Proc) {
			n.Compute(pr, p.HostOpsPerSec) // exactly 1 second of work
			done[i] = pr.Now()
		})
	}
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != sim.Time(sim.Second) || done[1] != sim.Time(2*sim.Second) {
		t.Fatalf("done = %v; CPU must serialize", done)
	}
}

func TestZeroOpsFree(t *testing.T) {
	c := New(DefaultParams())
	var total sim.Time
	c.Sim.Spawn("z", func(pr *sim.Proc) {
		c.Hosts[0].Compute(pr, 0)
		c.Hosts[0].Compute(pr, -5)
		total = pr.Now()
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("zero ops took %v", total)
	}
}

func TestUtilTraceAttached(t *testing.T) {
	p := DefaultParams()
	p.UtilWindow = 100 * sim.Millisecond
	c := New(p)
	c.Sim.Spawn("w", func(pr *sim.Proc) {
		c.Hosts[0].Compute(pr, p.HostOpsPerSec/10) // 100 ms of work
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr := c.Hosts[0].CPUTrace
	if tr == nil {
		t.Fatal("no CPU trace attached")
	}
	if got := tr.At(0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("window 0 utilization = %v, want 1.0", got)
	}
}

// TestUtilTracesInstalledOnce: the cluster owns the devices' recorder slots
// and fills them when it is built — Params.UtilWindow wide when that is set
// (a registry does not change the window), 100ms when only a registry is
// given, and not at all on a bare cluster.
func TestUtilTracesInstalledOnce(t *testing.T) {
	p := DefaultParams()
	p.UtilWindow = 10 * sim.Millisecond
	for _, obs := range []Observers{{}, {Telemetry: telemetry.NewRegistry()}} {
		c := NewObserved(p, obs)
		asu := c.ASUs[0]
		cpu, dsk, nic := asu.CPUTrace, asu.DiskTrace, asu.NICTrace
		if cpu == nil || dsk == nil || nic == nil || c.Hosts[0].DiskTrace != nil {
			t.Fatalf("UtilWindow set: cpu=%v disk=%v nic=%v host disk=%v", cpu, dsk, nic, c.Hosts[0].DiskTrace)
		}
		if cpu.Window != p.UtilWindow || dsk.Window != p.UtilWindow || nic.Window != p.UtilWindow {
			t.Fatalf("UtilWindow %v: trace windows %v %v %v", p.UtilWindow, cpu.Window, dsk.Window, nic.Window)
		}
	}

	c := NewObserved(DefaultParams(), Observers{Telemetry: telemetry.NewRegistry()})
	cpu := c.ASUs[0].CPUTrace
	if cpu == nil || cpu.Window != 100*sim.Millisecond || c.ASUs[0].DiskTrace == nil || c.Hosts[0].NICTrace == nil {
		t.Fatal("a registry did not bring 100ms traces on every device")
	}

	// perf's bare stage spans build bare clusters: they must stay trace-free.
	for _, n := range New(DefaultParams()).Nodes() {
		if n.CPUTrace != nil || n.DiskTrace != nil || n.NICTrace != nil {
			t.Fatalf("bare cluster: %s has a utilization trace", n.Name)
		}
	}
}

// TestEveryObserverStreamsEachEventOnce builds a cluster with all six
// observers on and drives every traced layer (procs, CPU holds, disk, NIC, a
// watched queue, a logged decision): the stored segment holds exactly the
// sink's events as spans — none lost before the samplers' spawn instants, none
// replayed — beside the samples and the decision, and the gauges reached the
// report.
func TestEveryObserverStreamsEachEventOnce(t *testing.T) {
	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := st.NewRun()
	rec.Begin(&recorder.Header{Experiment: "exp", Name: "all"})
	sink := trace.New()
	reg := telemetry.NewRegistry()
	p := DefaultParams()
	p.ASUs = 2
	c := NewObserved(p, Observers{
		Telemetry:   reg,
		Trace:       sink,
		Critpath:    true,
		Recorder:    rec,
		SampleEvery: 10 * sim.Millisecond,
		GaugeEvery:  10 * sim.Millisecond,
	})
	if c.Profiler == nil || c.Sim.Profiler() == nil || c.Sim.Tracer() != sink {
		t.Fatal("an observer was not wired in")
	}
	q := sim.NewQueue[int](c.Sim, "q", 4)
	c.WatchQueue(q)
	host, asu := c.Hosts[0], c.ASUs[0]
	c.Sim.SpawnOn(asu.Part, "producer", func(pr *sim.Proc) {
		for i := 0; i < 8; i++ {
			asu.Disk.Read(pr, 1<<20)
			asu.Compute(pr, 1e4)
			c.Net.Stream(pr, asu.NIC, host.NIC, 1<<16)
			q.Put(pr, i)
		}
		q.Close()
	})
	c.Sim.SpawnOn(host.Part, "consumer", func(pr *sim.Proc) {
		for {
			if _, ok := q.Get(pr); !ok {
				break
			}
			host.Compute(pr, 1e5)
		}
		reg.Decide(pr.Now(), "test", "done", "")
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := sim.Duration(c.Sim.Now())
	c.FinishSampling()
	rep := c.BuildReport("all", 1, elapsed)
	rec.Finish(rep)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("store: %d runs, err %v", len(runs), err)
	}
	run := runs[0]
	if got, want := len(run.Spans()), sink.Events(); got != want || want == 0 {
		t.Errorf("segment holds %d spans, sink recorded %d events", got, want)
	}
	if first := run.Spans()[0]; first.Track != "recorder.sampler" || first.Name != "spawn" {
		t.Errorf("first span = %s on %q, want the recorder sampler's spawn instant", first.Name, first.Track)
	}
	if len(run.Samples()) < int(elapsed/(10*sim.Millisecond)) {
		t.Errorf("%d samples over %v at 10ms", len(run.Samples()), elapsed)
	}
	if evs := run.Events(); len(evs) != 1 || evs[0].Action != "done" {
		t.Errorf("events = %+v, want the one decision", evs)
	}
	if rep.Critpath == nil {
		t.Error("report has no critpath section")
	}
	gauges := map[string]bool{}
	for _, g := range rep.Gauges {
		gauges[g.Name] = true
	}
	for _, want := range []string{"node.host0.cpu.busy_sec", "queue.q.depth"} {
		if !gauges[want] {
			t.Errorf("report lacks gauge %s", want)
		}
	}
}

// BenchmarkSinkSpanArgs records one transfer the way netsim does — a Span
// with an int and a string arg — on a sink whose streamer is the cluster's
// bridge into a store run: the whole call site → sink → bridge → span line
// path. It allocates only per storage chunk, 0 allocs/op (gated by `make
// bench-allocs`).
func BenchmarkSinkSpanArgs(b *testing.B) {
	st, err := recorder.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := st.NewRun()
	rec.Begin(&recorder.Header{Experiment: "bench", Name: "args", GitRev: "bench"})
	sink := trace.New()
	c := NewObserved(DefaultParams(), Observers{Trace: sink, Recorder: rec})
	asu, to := c.ASUs[0].Name, c.Hosts[0].Name
	tr := sink.SharedTrack(asu, asu+".nic")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := trace.Time(i) * 1000
		sink.Span(tr, ts, ts+800, "send", "net", trace.Int("bytes", int64(i)), trace.Str("to", to))
	}
	b.StopTimer()
	rec.Finish(nil)
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
}

// TestLog2Variants pins the two compare-count functions the cost model
// charges: they agree on powers of two and nowhere else above 2, which is why
// callers cannot swap one for the other without moving virtual time.
func TestLog2Variants(t *testing.T) {
	for n := -1; n < 2; n++ {
		if Log2(n) != 0 || CeilLog2(n) != 0 {
			t.Errorf("n=%d: Log2 %v, CeilLog2 %v, want 0", n, Log2(n), CeilLog2(n))
		}
	}
	for n := 2; n <= 1<<12; n++ {
		if got, want := CeilLog2(n), math.Ceil(math.Log2(float64(n))); got != want {
			t.Fatalf("CeilLog2(%d) = %v, want %v", n, got, want)
		}
		if got := Log2(n); got != math.Log2(float64(n)) {
			t.Fatalf("Log2(%d) = %v", n, got)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Hosts = 0 },
		func(p *Params) { p.ASUs = 0 },
		func(p *Params) { p.C = 0 },
		func(p *Params) { p.HostOpsPerSec = 0 },
		func(p *Params) { p.DiskRate = -1 },
		func(p *Params) { p.NetBandwidth = 0 },
		func(p *Params) { p.RecordSize = 4 },
		func(p *Params) { p.HostMemRecords = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: bad params validated", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestTouchCosts(t *testing.T) {
	cm := CostModel{CompareOps: 1, HostTouchOps: 4, ASUTouchOps: 5, ByteOps: 0.05}
	if got := cm.Touch(Host, 100); got != 9 {
		t.Fatalf("host touch = %v, want 9", got)
	}
	if got := cm.Touch(ASU, 100); got != 10 {
		t.Fatalf("asu touch = %v, want 10", got)
	}
}

func TestNodeNamesDistinct(t *testing.T) {
	p := DefaultParams()
	p.Hosts, p.ASUs = 3, 5
	c := New(p)
	seen := map[string]bool{}
	for _, n := range c.Nodes() {
		if seen[n.Name] {
			t.Fatalf("duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if n.Kind == Host && !strings.HasPrefix(n.Name, "host") {
			t.Fatalf("host named %q", n.Name)
		}
	}
}

func TestKindString(t *testing.T) {
	if Host.String() != "host" || ASU.String() != "asu" {
		t.Fatal("NodeKind strings wrong")
	}
}

func TestIsolationQuantumChunksCompute(t *testing.T) {
	p := DefaultParams()
	p.IsolationQuantum = 100 * sim.Microsecond
	c := New(p)
	asu := c.ASUs[0]
	// Functor work runs 10 ms; a request arriving mid-way must be
	// served within ~a quantum, not after the whole computation.
	var reqLatency sim.Duration
	c.Sim.Spawn("functor", func(pr *sim.Proc) {
		asu.Compute(pr, asu.OpsPerSec/100) // 10 ms of work
	})
	c.Sim.Spawn("request", func(pr *sim.Proc) {
		pr.Sleep(sim.Millisecond)
		start := pr.Now()
		asu.ServeRequest(pr, asu.OpsPerSec/10000) // 0.1 ms of work
		reqLatency = sim.Duration(pr.Now() - start)
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reqLatency > 400*sim.Microsecond {
		t.Fatalf("request latency %v with 100us quantum; isolation failed", reqLatency)
	}
}

func TestNoQuantumMeansMonolithicHolds(t *testing.T) {
	c := New(DefaultParams()) // IsolationQuantum zero
	asu := c.ASUs[0]
	var reqLatency sim.Duration
	c.Sim.Spawn("functor", func(pr *sim.Proc) {
		asu.Compute(pr, asu.OpsPerSec/100) // 10 ms hold
	})
	c.Sim.Spawn("request", func(pr *sim.Proc) {
		pr.Sleep(sim.Millisecond)
		start := pr.Now()
		asu.ServeRequest(pr, asu.OpsPerSec/10000)
		reqLatency = sim.Duration(pr.Now() - start)
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reqLatency < 8*sim.Millisecond {
		t.Fatalf("request latency %v; without isolation it must wait out the hold", reqLatency)
	}
}

func TestServeRequestJumpsQueuedFunctorWork(t *testing.T) {
	p := DefaultParams()
	c := New(p)
	asu := c.ASUs[0]
	var order []string
	// Two functor computations queued; the request must run after the
	// first (holding) one, before the second.
	for i := 0; i < 2; i++ {
		i := i
		c.Sim.Spawn("functor", func(pr *sim.Proc) {
			asu.Compute(pr, asu.OpsPerSec/1000)
			order = append(order, "functor")
			_ = i
		})
	}
	c.Sim.Spawn("request", func(pr *sim.Proc) {
		pr.Sleep(100 * sim.Microsecond)
		asu.ServeRequest(pr, asu.OpsPerSec/100000)
		order = append(order, "request")
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[1] != "request" {
		t.Fatalf("order %v; request must precede queued functor work", order)
	}
}
