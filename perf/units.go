package main

import (
	"fmt"
	"os"
	"time"

	"lmas/internal/bte"
	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/disk"
	"lmas/internal/netsim"
	"lmas/internal/recorder"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// Unit costs: micro-drivers that call one layer's public API with the op
// sizes the workloads use. Each driver does its own set-up, times only the
// ops, and reports the elapsed time; unitCosts turns that into the median
// ns/op over unitReps repeats.

const (
	unitReps   = 5
	recordSize = 128  // cluster.DefaultParams().RecordSize
	sortBlock  = 1024 // β
)

// unitDriver runs ops operations and returns the time they took. pkt is the
// workload's packet size in records: the drivers that move packets use it, so
// a unit cost is measured at the op size its count was taken at.
type unitDriver struct {
	metric string
	ops    int
	run    func(ops, pkt int) (time.Duration, error)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

var unitDrivers = []unitDriver{
	{"sim.event_ns", 200000, simEvent},
	{"sim.far_timer_ns", 1000000, simFarTimer},
	{"sim.proc_switch_ns", 200000, simProcSwitch},
	{"sim.spawn_exit_ns", 100000, simSpawnExit},
	{"sim.queue_handoff_ns", 200000, simQueueHandoff},
	{"sim.resource_use_ns", 200000, simResourceUse},
	{"disk.read_ns", 100000, diskRead},
	{"disk.write_ns", 100000, diskWrite},
	{"netsim.stream_ns", 100000, netStream},
	{"cluster.compute_ns", 100000, clusterCompute},
	{"records.generate_ns_per_rec", 1 << 16, recordsGenerate},
	{"records.checksum_ns_per_rec", 1 << 16, recordsChecksum},
	{"records.sort_ns_per_rec", 1 << 16, recordsSort},
	{"records.clone_ns_per_rec", 1 << 16, recordsClone},
	{"bufpool.get_put_ns", 1000000, bufpoolGetPut},
	{"container.set_add_scan_ns_per_pkt", 4096, containerAddScan},
	{"route.pick_ns", 1000000, routePick},
	{"telemetry.observe_ns", 1000000, telemetryObserve},
	{"trace.span_ns", 200000, traceSpan},
	{"recorder.span_write_ns", 50000, recorderSpanWrite},
}

// unitCosts runs every driver and returns metric -> median ns/op.
func unitCosts(sz sizes, pkt int) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, d := range unitDrivers {
		ops := max(d.ops/sz.unitScale, 64)
		var perOp []float64
		for rep := 0; rep < unitReps; rep++ {
			took, err := d.run(ops, pkt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.metric, err)
			}
			perOp = append(perOp, float64(took.Nanoseconds())/float64(ops))
		}
		out[d.metric] = median(perOp)
	}
	return out, nil
}

// timedRun times s.Run().
func timedRun(s *sim.Sim) (time.Duration, error) {
	t0 := time.Now()
	err := s.Run()
	return time.Since(t0), err
}

// simEvent: At + dispatch with 1k events pending throughout.
func simEvent(ops, _ int) (time.Duration, error) {
	const pending = 1000
	const period = 500 * sim.Microsecond
	s := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+pending <= ops {
			s.At(s.Now().Add(period), tick)
		}
	}
	for i := 0; i < pending; i++ {
		s.At(sim.Time(0).Add(sim.Duration(i+1)*period/pending), tick)
	}
	return timedRun(s)
}

// simFarTimer: arm ops timers 1 to 3 s ahead (all in flight at once), then
// dispatch them.
func simFarTimer(ops, _ int) (time.Duration, error) {
	s := sim.New()
	nop := func() {}
	step := 2 * sim.Second / sim.Duration(ops)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		// 7919 is coprime to every power-of-two op count, so successive
		// deadlines hop across the 2-s span without sorting themselves.
		s.After(sim.Second+sim.Duration(i*7919%ops)*step, nop)
	}
	err := s.Run()
	return time.Since(t0), err
}

// simProcSwitch: one proc, ops Sleep round trips.
func simProcSwitch(ops, _ int) (time.Duration, error) {
	s := sim.New()
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	return timedRun(s)
}

// simSpawnExit: a generator spawns ops short-lived procs (one Sleep each),
// pacing itself so the free list recycles shells as openloop_churn does.
func simSpawnExit(ops, _ int) (time.Duration, error) {
	s := sim.New()
	work := func(q *sim.Proc) { q.Sleep(sim.Microsecond) }
	s.Spawn("gen", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			s.Spawn("w", work)
			p.Sleep(sim.Microsecond)
		}
	})
	return timedRun(s)
}

// simQueueHandoff: Put/Get across two procs through a one-slot queue, so
// every transfer blocks and resumes.
func simQueueHandoff(ops, _ int) (time.Duration, error) {
	s := sim.New()
	q := sim.NewQueue[int](s, "handoff", 1)
	var putErr error
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < ops && putErr == nil; i++ {
			putErr = q.Put(p, i)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	took, err := timedRun(s)
	if err == nil {
		err = putErr
	}
	return took, err
}

// simResourceUse: four procs contending one Resource.Use.
func simResourceUse(ops, _ int) (time.Duration, error) {
	const procs = 4
	s := sim.New()
	r := sim.NewResource(s, "cpu")
	for w := 0; w < procs; w++ {
		s.Spawn("worker", func(p *sim.Proc) {
			for i := 0; i < ops/procs; i++ {
				r.Use(p, sim.Microsecond)
			}
		})
	}
	return timedRun(s)
}

func newDisk(s *sim.Sim) *disk.Disk {
	p := cluster.DefaultParams()
	d := disk.New(s, "disk", p.DiskRate)
	d.SetSeek(p.DiskSeek)
	return d
}

// diskRead: packet-sized sequential reads on one stream.
func diskRead(ops, pkt int) (time.Duration, error) {
	s := sim.New()
	d := newDisk(s)
	s.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			d.Read(p, pkt*recordSize)
		}
		d.EndReadRun()
	})
	return timedRun(s)
}

// diskWrite: packet-sized write-behind writes, flushed at the end.
func diskWrite(ops, pkt int) (time.Duration, error) {
	s := sim.New()
	d := newDisk(s)
	s.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			d.Write(p, pkt*recordSize)
		}
		d.Flush(p)
	})
	return timedRun(s)
}

// netStream: one packet per Stream between two interfaces.
func netStream(ops, pkt int) (time.Duration, error) {
	params := cluster.DefaultParams()
	s := sim.New()
	net := netsim.New(s, params.NetLatency)
	src := netsim.NewIface(s, "src", params.NetBandwidth)
	dst := netsim.NewIface(s, "dst", params.NetBandwidth)
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			net.Stream(p, src, dst, pkt*recordSize)
		}
	})
	return timedRun(s)
}

// clusterCompute: Node.Compute on an otherwise idle host CPU.
func clusterCompute(ops, _ int) (time.Duration, error) {
	params := cluster.DefaultParams()
	params.Hosts, params.ASUs = 1, 1
	cl := cluster.New(params)
	host := cl.Hosts[0]
	cl.Sim.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			host.Compute(p, 1000)
		}
	})
	return timedRun(cl.Sim)
}

func recordsGenerate(ops, _ int) (time.Duration, error) {
	t0 := time.Now()
	b := records.Generate(ops, recordSize, 42, records.Uniform{})
	took := time.Since(t0)
	sink += uint64(b.Key(0))
	return took, nil
}

func recordsChecksum(ops, _ int) (time.Duration, error) {
	b := records.Generate(ops, recordSize, 42, records.Uniform{})
	var c records.Checksum
	t0 := time.Now()
	c.Add(b)
	took := time.Since(t0)
	sink += c.Sum
	return took, nil
}

// recordsSort: β-record block sorts over fresh (unsorted) uniform records.
func recordsSort(ops, _ int) (time.Duration, error) {
	b := records.Generate(ops, recordSize, 42, records.Uniform{})
	t0 := time.Now()
	for lo := 0; lo < ops; lo += sortBlock {
		hi := lo + sortBlock
		if hi > ops {
			hi = ops
		}
		b.Slice(lo, hi).Sort()
	}
	took := time.Since(t0)
	sink += uint64(b.Key(0))
	return took, nil
}

// recordsClone: ClonePooled + Release, one packet at a time.
func recordsClone(ops, pkt int) (time.Duration, error) {
	b := records.Generate(ops, recordSize, 42, records.Uniform{})
	t0 := time.Now()
	for lo := 0; lo+pkt <= ops; lo += pkt {
		c := b.Slice(lo, lo+pkt).ClonePooled()
		sink += uint64(c.Key(0))
		c.Release()
	}
	return time.Since(t0), nil
}

func bufpoolGetPut(ops, pkt int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		b := bufpool.Get(pkt * recordSize)
		b[0] = byte(i)
		bufpool.Put(b)
	}
	return time.Since(t0), nil
}

// containerAddScan: Set.Add of ops pooled packets onto a disk-backed engine,
// then a destructive Scan.Next over all of them, releasing each.
func containerAddScan(ops, pkt int) (time.Duration, error) {
	src := records.Generate(pkt, recordSize, 42, records.Uniform{})
	s := sim.New()
	set := container.NewSet("unit", bte.NewDisk(newDisk(s)), recordSize)
	s.Spawn("add-scan", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			set.Add(p, container.NewPacket(src.ClonePooled()))
		}
		set.Flush(p)
		scan := set.Scan(0, true)
		for {
			pk, ok := scan.Next(p)
			if !ok {
				return
			}
			pk.Release()
		}
	})
	return timedRun(s)
}

type unitEndpoint struct{}

func (unitEndpoint) Label() string { return "unit" }
func (unitEndpoint) Pending() int  { return 0 }

// routePick: the sr policy choosing between two host endpoints.
func routePick(ops, _ int) (time.Duration, error) {
	pol, err := route.ByName("sr", 16, 42)
	if err != nil {
		return 0, err
	}
	eps := []route.Endpoint{unitEndpoint{}, unitEndpoint{}}
	pk := route.PacketInfo{Bucket: 3, Records: 4}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sink += uint64(pol.Pick(pk, eps))
	}
	return time.Since(t0), nil
}

func telemetryObserve(ops, _ int) (time.Duration, error) {
	h := telemetry.NewRegistry().Latency("unit.latency")
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		h.Observe(sim.Duration(1000 + i*37))
	}
	took := time.Since(t0)
	sink += uint64(h.Count())
	return took, nil
}

// traceSpan: Begin + End on one track.
func traceSpan(ops, _ int) (time.Duration, error) {
	t := trace.New()
	tr := t.NewTrack("unit", "track")
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t.Begin(tr, int64(2*i), "op", "unit")
		t.End(tr, int64(2*i+1))
	}
	took := time.Since(t0)
	sink += uint64(t.Events())
	return took, nil
}

// recorderSpanWrite: Span records streamed into a store segment, including
// the final flush. The temp store is removed before returning.
func recorderSpanWrite(ops, _ int) (took time.Duration, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(outDir, "unit-store-")
	if err != nil {
		return 0, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	rec := st.NewRun()
	rec.Begin(&recorder.Header{Experiment: "perf", Name: "unit", GitRev: "unit"})
	sp := recorder.Span{Ph: "X", Group: "asu0", Track: "asu0.disk", TID: 3, Name: "read.prefetch", Cat: "disk",
		Args: []recorder.SpanArg{{Key: "bytes", Val: 8192}}}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sp.T, sp.DurNs = int64(i)*1000, 800
		rec.Span(sp)
	}
	rec.Finish(nil)
	took = time.Since(t0)
	return took, st.Err()
}
