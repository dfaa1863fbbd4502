package cluster

import (
	"lmas/internal/recorder"
	"lmas/internal/sim"
)

// This file is the cluster's periodic observers (Observers.Recorder and
// Observers.GaugeEvery): a daemon proc for each wakes on a virtual-time
// interval and snapshots per-node busy time and the watched queues and
// stages. Daemons never extend a run (Sim.Run ends when the last workload
// event dispatches; see sim daemon support), and the snapshot only reads
// state the simulation already computes, so a recorder or periodic gauges
// keep virtual time byte-identical.

// SampledQueue is what the samplers read of a queue; every *sim.Queue[T] is
// one.
type SampledQueue interface {
	Name() string
	Len() int
	WaitStats() (cumWait sim.Duration, highWater int)
}

// WatchQueue registers q for periodic sampling; a no-op on a cluster built
// without a sampler. Workloads register their queues as they build them, so
// registration order — and with it the sample order — is deterministic for a
// given workload.
func (c *Cluster) WatchQueue(q SampledQueue) {
	if len(c.samplers) > 0 {
		c.queues = append(c.queues, q)
	}
}

// stageProbe reads one computation stage's cumulative records consumed.
type stageProbe struct {
	name    string
	records func() int64
}

// WatchStage registers a stage's records-in count for periodic sampling,
// under the same rules as WatchQueue. Only the gauge sampler reads it
// (stage.<name>.records_in): the run record's sample lines keep their shape.
func (c *Cluster) WatchStage(name string, records func() int64) {
	if len(c.samplers) > 0 {
		c.stages = append(c.stages, stageProbe{name: name, records: records})
	}
}

// FlushQueueStats records q's end-of-run accounting — cumulative buffered
// time and high-water depth — as gauges, so the report's queue table shows
// where packets sat. No-op without telemetry.
func (c *Cluster) FlushQueueStats(q SampledQueue) {
	if c.Telemetry == nil {
		return
	}
	now := c.Sim.Now()
	cum, high := q.WaitStats()
	c.Telemetry.Gauge("queue."+q.Name()+".wait_sec").Set(now, cum.Seconds())
	c.Telemetry.Gauge("queue."+q.Name()+".high_water").Set(now, float64(high))
}

// FinishSampling flushes one final observation at the run's end instant and
// kills the sampler daemons (so sweep cells never leak parked goroutines).
// It also disconnects the recorder from the decision log and the trace
// stream: the run's record is complete. Call after Sim.Run returns and before
// BuildReport. Safe on a cluster without samplers, and more than once.
func (c *Cluster) FinishSampling() {
	now := c.Sim.Now()
	for _, s := range c.samplers {
		if now > s.prevT {
			s.tick(now)
		}
		c.Sim.Kill(s.proc)
	}
	c.samplers = nil
	c.queues = nil
	c.stages = nil
	c.Telemetry.SetOnDecide(nil)
	c.Sim.Tracer().SetStreamer(nil)
}

type clusterSampler struct {
	c      *Cluster
	rec    recorder.Recorder // nil: gauges only
	gauges bool
	proc   *sim.Proc
	// prev holds each node's cumulative (cpu, disk, nic) busy time at the
	// previous tick; interval utilization is the delta over the elapsed
	// interval.
	prev  [][3]sim.Duration
	prevT sim.Time
}

func (c *Cluster) startSampler(name string, every sim.Duration, rec recorder.Recorder, gauges bool) {
	s := &clusterSampler{
		c: c, rec: rec, gauges: gauges,
		prev: make([][3]sim.Duration, len(c.Hosts)+len(c.ASUs)),
	}
	s.proc = c.Sim.SpawnDaemon(name, func(p *sim.Proc) {
		for {
			p.Sleep(every)
			s.tick(p.Now())
		}
	})
	c.samplers = append(c.samplers, s)
}

// tick snapshots the cluster at virtual instant now. Utilization is derived
// from completed resource holds (a hold still in progress shows up when it
// ends), so a long hold completing within one interval can push the raw
// ratio past 1; it is clamped for display. The cumulative busy counter is
// exact and monotone — that is the reconcilable metric.
func (s *clusterSampler) tick(now sim.Time) {
	c := s.c
	dt := float64(now - s.prevT)
	var nodes []recorder.NodeSample
	for i, n := range c.Nodes() {
		// The devices' own O(1) totals: completed holds only, like the
		// utilization traces (RecordBusy fires when a hold ends).
		busy := [3]sim.Duration{0: n.CPU.Busy(), 2: n.NIC.Busy()}
		if n.Disk != nil {
			busy[1] = n.Disk.Busy()
		}
		if s.rec != nil {
			ns := recorder.NodeSample{Node: n.Name, CPUBusy: busy[0].Seconds()}
			if dt > 0 {
				ns.CPU = clamp01(float64(busy[0]-s.prev[i][0]) / dt)
				ns.Disk = clamp01(float64(busy[1]-s.prev[i][1]) / dt)
				ns.NIC = clamp01(float64(busy[2]-s.prev[i][2]) / dt)
			}
			nodes = append(nodes, ns)
		}
		if s.gauges {
			c.Telemetry.Gauge("node."+n.Name+".cpu.busy_sec").Set(now, busy[0].Seconds())
		}
		s.prev[i] = busy
	}
	var queues []recorder.QueueSample
	for _, q := range c.queues {
		_, high := q.WaitStats()
		if s.rec != nil {
			queues = append(queues, recorder.QueueSample{Queue: q.Name(), Depth: q.Len(), High: high})
		}
		if s.gauges {
			c.Telemetry.Gauge("queue."+q.Name()+".depth").Set(now, float64(q.Len()))
			c.Telemetry.Gauge("queue."+q.Name()+".high_water").Set(now, float64(high))
		}
	}
	if s.gauges {
		for _, sp := range c.stages {
			c.Telemetry.Gauge("stage."+sp.name+".records_in").Set(now, float64(sp.records()))
		}
	}
	var lats []recorder.LatencySnapshot
	if s.rec != nil {
		for _, h := range c.Telemetry.LatencyHistograms() {
			lats = append(lats, recorder.LatencySnapshot{
				Name:  h.Name(),
				Count: h.Count(),
				P50Ns: h.Quantile(0.50),
				P99Ns: h.Quantile(0.99),
			})
		}
	}
	s.prevT = now
	if s.rec != nil {
		s.rec.Sample(recorder.Sample{T: int64(now), Nodes: nodes, Queues: queues, Latencies: lats})
	}
}

func clamp01(v float64) float64 { return min(max(v, 0), 1) }
