package functor

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

const recSize = 16

func mkBuf(keys ...records.Key) records.Buffer {
	b := records.NewBuffer(len(keys), recSize)
	for i, k := range keys {
		b.SetKey(i, k)
	}
	return b
}

func testCluster(hosts, asus int) *cluster.Cluster {
	return testClusterWith(hosts, asus, cluster.Observers{})
}

func testClusterWith(hosts, asus int, obs cluster.Observers) *cluster.Cluster {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = hosts, asus
	p.RecordSize = recSize
	return cluster.NewObserved(p, obs)
}

// collectEmits runs a kernel over packets in a bare context and gathers
// everything it emits.
func runKernel(t *testing.T, k Kernel, pks ...container.Packet) []container.Packet {
	t.Helper()
	cl := testCluster(1, 1)
	var out []container.Packet
	cl.Sim.Spawn("drive", func(p *sim.Proc) {
		ctx := &Ctx{Cluster: cl, Node: cl.Hosts[0], Proc: p}
		emit := func(pk container.Packet) { out = append(out, pk) }
		for _, pk := range pks {
			k.Process(ctx, pk, emit)
		}
		k.Flush(ctx, emit)
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDistributeRoutesByKeyRange(t *testing.T) {
	d := NewDistribute(4)
	if d.Ports() != 4 || d.ComparesPerRecord() != 2 {
		t.Fatalf("ports=%d compares=%v", d.Ports(), d.ComparesPerRecord())
	}
	k := Adapt(d, recSize, 2)
	in := mkBuf(0, records.MaxKey, records.MaxKey/2, records.MaxKey/4)
	out := runKernel(t, k, container.NewPacket(in))
	buckets := map[int][]records.Key{}
	for _, pk := range out {
		for i := 0; i < pk.Len(); i++ {
			buckets[pk.Bucket] = append(buckets[pk.Bucket], pk.Buf.Key(i))
		}
	}
	sp := records.Splitters(4)
	for b, keys := range buckets {
		for _, k := range keys {
			if records.BucketOf(k, sp) != b {
				t.Fatalf("key %d landed in bucket %d", k, b)
			}
		}
	}
	total := 0
	for _, keys := range buckets {
		total += len(keys)
	}
	if total != 4 {
		t.Fatalf("%d records out, want 4", total)
	}
}

func TestAdaptPacksToSize(t *testing.T) {
	d := NewDistribute(1) // everything to port 0
	k := Adapt(d, recSize, 3)
	in := mkBuf(1, 2, 3, 4, 5, 6, 7)
	out := runKernel(t, k, container.NewPacket(in))
	if len(out) != 3 {
		t.Fatalf("got %d packets, want 3 (3+3+1)", len(out))
	}
	if out[0].Len() != 3 || out[1].Len() != 3 || out[2].Len() != 1 {
		t.Fatalf("packet sizes %d,%d,%d", out[0].Len(), out[1].Len(), out[2].Len())
	}
}

func TestFilterDropsRecords(t *testing.T) {
	f := &Filter{Keep: func(k records.Key) bool { return k%2 == 0 }}
	k := Adapt(f, recSize, 4)
	out := runKernel(t, k, container.NewPacket(mkBuf(1, 2, 3, 4, 5, 6)))
	n := 0
	for _, pk := range out {
		for i := 0; i < pk.Len(); i++ {
			if pk.Buf.Key(i)%2 != 0 {
				t.Fatal("odd key passed filter")
			}
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d records passed, want 3", n)
	}
}

func TestBlockSortFormsSortedRuns(t *testing.T) {
	k := NewBlockSort(4, recSize)
	in := container.NewPacket(mkBuf(9, 3, 7, 1, 8, 2))
	in.Bucket = 5
	out := runKernel(t, k, in)
	if len(out) != 2 {
		t.Fatalf("got %d runs, want 2 (full + partial)", len(out))
	}
	if out[0].Len() != 4 || out[1].Len() != 2 {
		t.Fatalf("run sizes %d,%d", out[0].Len(), out[1].Len())
	}
	for i, pk := range out {
		if !pk.Sorted || !pk.Buf.IsSorted() {
			t.Fatalf("run %d not sorted", i)
		}
		if pk.Bucket != 5 {
			t.Fatalf("run %d lost bucket: %d", i, pk.Bucket)
		}
		if pk.Run < 0 {
			t.Fatalf("run %d has no run id", i)
		}
	}
}

func TestBlockSortKeepsBucketsSeparate(t *testing.T) {
	k := NewBlockSort(8, recSize)
	a := container.NewPacket(mkBuf(5, 1))
	a.Bucket = 0
	b := container.NewPacket(mkBuf(9, 7))
	b.Bucket = 1
	out := runKernel(t, k, a, b)
	if len(out) != 2 {
		t.Fatalf("got %d runs, want 2 (one per bucket)", len(out))
	}
	for _, pk := range out {
		switch pk.Bucket {
		case 0:
			if pk.Buf.Key(0) != 1 || pk.Buf.Key(1) != 5 {
				t.Fatal("bucket 0 run wrong")
			}
		case 1:
			if pk.Buf.Key(0) != 7 || pk.Buf.Key(1) != 9 {
				t.Fatal("bucket 1 run wrong")
			}
		default:
			t.Fatalf("unexpected bucket %d", pk.Bucket)
		}
	}
}

// TestBlockSortProperty: for any input, runs are sorted, sized <= beta, and
// the output multiset equals the input multiset.
func TestBlockSortProperty(t *testing.T) {
	f := func(keys []uint32, betaRaw uint8) bool {
		beta := int(betaRaw%16) + 1
		buf := records.NewBuffer(len(keys), recSize)
		for i, kk := range keys {
			buf.SetKey(i, records.Key(kk))
		}
		var before records.Checksum
		before.Add(buf)
		out := runKernel(t, NewBlockSort(beta, recSize), container.NewPacket(buf))
		var after records.Checksum
		for _, pk := range out {
			if !pk.Buf.IsSorted() || pk.Len() > beta {
				return false
			}
			after.Add(pk.Buf)
		}
		return before.Equal(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedMatchesComposition(t *testing.T) {
	keys := []records.Key{100, 5, 2_000_000_000, 42, 3_000_000_000, 7, 1_500_000_000}
	mk := func() container.Packet { return container.NewPacket(mkBuf(keys...)) }

	fused := runKernel(t, NewFusedDistributeSort(4, 4, recSize), mk())

	// Composition: distribute, then block-sort per bucket.
	distOut := runKernel(t, Adapt(NewDistribute(4), recSize, 4), mk())
	composed := runKernel(t, NewBlockSort(4, recSize), distOut...)

	sum := func(pks []container.Packet) map[int]records.Checksum {
		m := map[int]records.Checksum{}
		for _, pk := range pks {
			c := m[pk.Bucket]
			c.Add(pk.Buf)
			m[pk.Bucket] = c
		}
		return m
	}
	fm, cm := sum(fused), sum(composed)
	if len(fm) != len(cm) {
		t.Fatalf("bucket sets differ: %d vs %d", len(fm), len(cm))
	}
	for b, c := range fm {
		if !c.Equal(cm[b]) {
			t.Fatalf("bucket %d differs", b)
		}
	}
	if got := NewFusedDistributeSort(4, 4, recSize).Compares(container.Packet{}); got != 4 {
		t.Fatalf("fused compares = %v, want log2(4)+log2(4)=4", got)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cl := testCluster(1, 2)
	// Input: one set per ASU on its disk.
	var inSum records.Checksum
	var sets []*container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		for i, asu := range cl.ASUs {
			set := container.NewSet(fmt.Sprintf("in%d", i), bte.NewDisk(asu.Disk), recSize)
			buf := records.Generate(100, recSize, int64(i+1), records.Uniform{})
			inSum.Add(buf)
			for off := 0; off < 100; off += 10 {
				set.Add(p, container.NewPacket(buf.Slice(off, off+10).Clone()))
			}
			sets = append(sets, set)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}

	pl := NewPipeline(cl)
	// distribute on ASUs -> sort on host -> sink on host.
	dist := pl.AddStage("dist", cl.ASUs, func() Kernel { return Adapt(NewDistribute(4), recSize, 8) })
	srt := pl.AddStage("sort", cl.Hosts, func() Kernel { return NewBlockSort(16, recSize) })
	var outSum records.Checksum
	var sortedRuns int
	sink := pl.AddStage("sink", cl.Hosts, func() Kernel {
		return &Sink{Label: "out", Fn: func(ctx *Ctx, pk container.Packet) {
			if !pk.Sorted || !pk.Buf.IsSorted() {
				t.Error("unsorted run reached sink")
			}
			outSum.Add(pk.Buf)
			sortedRuns++
		}}
	})
	dist.ConnectTo(srt, &route.RoundRobin{})
	srt.ConnectTo(sink, &route.RoundRobin{})
	sink.Terminal()
	for i, set := range sets {
		// Each ASU reads its own local set.
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(0, false), dist, localFirst(i))
	}
	elapsed, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("pipeline took no virtual time")
	}
	if !inSum.Equal(outSum) {
		t.Fatalf("records lost or corrupted: in %v out %v", inSum, outSum)
	}
	if sortedRuns == 0 {
		t.Fatal("no runs produced")
	}
}

// localFirst routes everything to endpoint i (source i feeds its own ASU's
// distribute instance).
func localFirst(i int) route.Policy { return route.Pin(i) }

func TestPipelineChargesNetworkOnlyCrossNode(t *testing.T) {
	cl := testCluster(1, 1)
	asu, host := cl.ASUs[0], cl.Hosts[0]
	var set *container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		set = container.NewSet("in", bte.NewMemory(), recSize)
		set.Add(p, container.NewPacket(mkBuf(3, 1, 2)))
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(cl)
	local := pl.AddStage("local", []*cluster.Node{asu}, func() Kernel { return &Passthrough{} })
	remote := pl.AddStage("remote", []*cluster.Node{host}, func() Kernel { return &Passthrough{} })
	edge := local.ConnectTo(remote, &route.RoundRobin{})
	remote.Terminal()
	pl.AddSource("src", asu, set.Scan(0, false), local, &route.RoundRobin{})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if edge.CrossNode != 1 || edge.NetBytes == 0 {
		t.Fatalf("cross-node edge: hops=%d bytes=%d", edge.CrossNode, edge.NetBytes)
	}
	sent, _, _, _ := asu.NIC.Stats()
	if sent != 1 {
		t.Fatalf("ASU sent %d messages, want 1", sent)
	}
	_, recvd, _, _ := host.NIC.Stats()
	if recvd != 1 {
		t.Fatalf("host received %d messages, want 1", recvd)
	}
}

func TestPipelineLocalDeliveryIsFreeOfNetwork(t *testing.T) {
	cl := testCluster(1, 1)
	asu := cl.ASUs[0]
	var set *container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		set = container.NewSet("in", bte.NewMemory(), recSize)
		set.Add(p, container.NewPacket(mkBuf(1)))
	})
	cl.Sim.Run()
	pl := NewPipeline(cl)
	a := pl.AddStage("a", []*cluster.Node{asu}, func() Kernel { return &Passthrough{} })
	b := pl.AddStage("b", []*cluster.Node{asu}, func() Kernel { return &Passthrough{} })
	edge := a.ConnectTo(b, &route.RoundRobin{})
	b.Terminal()
	pl.AddSource("src", asu, set.Scan(0, false), a, &route.RoundRobin{})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if edge.CrossNode != 0 || edge.NetBytes != 0 {
		t.Fatalf("same-node edge charged network: %d hops %d bytes", edge.CrossNode, edge.NetBytes)
	}
}

func TestPipelineComputeChargedAtNodeSpeed(t *testing.T) {
	// One packet of n records through a Passthrough with cost C on a
	// host vs an ASU: ASU must take c times longer.
	elapsed := func(onHost bool) sim.Duration {
		cl := testCluster(1, 1)
		node := cl.ASUs[0]
		if onHost {
			node = cl.Hosts[0]
		}
		var set *container.Set
		cl.Sim.Spawn("seed", func(p *sim.Proc) {
			set = container.NewSet("in", bte.NewMemory(), recSize)
			set.Add(p, container.NewPacket(records.Generate(1000, recSize, 1, records.Uniform{})))
		})
		cl.Sim.Run()
		pl := NewPipeline(cl)
		st := pl.AddStage("work", []*cluster.Node{node}, func() Kernel { return &Passthrough{CostCompares: 100} })
		st.Terminal()
		pl.AddSource("src", node, set.Scan(0, false), st, &route.RoundRobin{})
		d, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	h, a := elapsed(true), elapsed(false)
	ratio := float64(a) / float64(h)
	// Touch costs differ slightly between host and ASU; allow slack.
	if ratio < 6 || ratio > 10 {
		t.Fatalf("ASU/host elapsed ratio = %.2f, want ~8 (c=8)", ratio)
	}
}

func TestPipelineReplicationSpreadsLoad(t *testing.T) {
	cl := testCluster(2, 1)
	asu := cl.ASUs[0]
	var set *container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		set = container.NewSet("in", bte.NewMemory(), recSize)
		for i := 0; i < 40; i++ {
			set.Add(p, container.NewPacket(mkBuf(records.Key(i), records.Key(i+1))))
		}
	})
	cl.Sim.Run()
	pl := NewPipeline(cl)
	work := pl.AddStage("work", cl.Hosts, func() Kernel { return &Passthrough{CostCompares: 50} })
	work.Terminal()
	pl.AddSource("src", asu, set.Scan(0, false), work, &route.RoundRobin{})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	in0 := work.Instances()[0].PacketsIn
	in1 := work.Instances()[1].PacketsIn
	if in0 != 20 || in1 != 20 {
		t.Fatalf("round-robin split %d/%d, want 20/20", in0, in1)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	runOnce := func() (sim.Duration, records.Checksum) {
		cl := testCluster(1, 2)
		var sets []*container.Set
		cl.Sim.Spawn("seed", func(p *sim.Proc) {
			for i, asu := range cl.ASUs {
				set := container.NewSet(fmt.Sprintf("in%d", i), bte.NewDisk(asu.Disk), recSize)
				buf := records.Generate(64, recSize, int64(i), records.Uniform{})
				set.Add(p, container.NewPacket(buf))
				sets = append(sets, set)
			}
		})
		cl.Sim.Run()
		pl := NewPipeline(cl)
		dist := pl.AddStage("dist", cl.ASUs, func() Kernel { return Adapt(NewDistribute(8), recSize, 4) })
		srt := pl.AddStage("sort", cl.Hosts, func() Kernel { return NewBlockSort(8, recSize) })
		var sum records.Checksum
		snk := pl.AddStage("sink", cl.Hosts, func() Kernel {
			return &Sink{Label: "s", Fn: func(ctx *Ctx, pk container.Packet) { sum.Add(pk.Buf) }}
		})
		dist.ConnectTo(srt, route.NewSR(99))
		srt.ConnectTo(snk, &route.RoundRobin{})
		snk.Terminal()
		for i, set := range sets {
			pl.AddSource(fmt.Sprintf("r%d", i), cl.ASUs[i], set.Scan(0, false), dist, route.Pin(i))
		}
		d, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d, sum
	}
	d1, s1 := runOnce()
	d2, s2 := runOnce()
	if d1 != d2 || !s1.Equal(s2) {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", d1, s1, d2, s2)
	}
}

func TestStageWithoutOutputPanicsAtStart(t *testing.T) {
	cl := testCluster(1, 1)
	pl := NewPipeline(cl)
	pl.AddStage("dangling", cl.Hosts, func() Kernel { return &Passthrough{} })
	defer func() {
		if recover() == nil {
			t.Fatal("Start did not panic for unconnected stage")
		}
	}()
	pl.Start()
}

func TestUnvalidatedKernelRejectedOnASU(t *testing.T) {
	// FusedDistributeSort is a host-only baseline: it is deliberately
	// not marked ASU-eligible, and placing it on an ASU must fail fast.
	cl := testCluster(1, 1)
	pl := NewPipeline(cl)
	st := pl.AddStage("rogue", cl.ASUs, func() Kernel {
		return NewFusedDistributeSort(4, 16, recSize)
	})
	st.Terminal()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unvalidated kernel accepted on an ASU")
		}
		if !strings.Contains(fmt.Sprint(r), "not ASU-eligible") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	pl.Start()
}

func TestUnvalidatedKernelAllowedOnHost(t *testing.T) {
	cl := testCluster(1, 1)
	var set *container.Set
	cl.Sim.Spawn("seed", func(p *sim.Proc) {
		set = container.NewSet("in", bte.NewMemory(), recSize)
		set.Add(p, container.NewPacket(mkBuf(3, 1, 2)))
	})
	cl.Sim.Run()
	pl := NewPipeline(cl)
	st := pl.AddStage("host-fused", cl.Hosts, func() Kernel {
		return NewFusedDistributeSort(4, 16, recSize)
	})
	st.Terminal()
	pl.AddSource("src", cl.ASUs[0], set.Scan(0, false), st, &route.RoundRobin{})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptRejectsBadPacketSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Adapt(NewDistribute(2), recSize, 0)
}
