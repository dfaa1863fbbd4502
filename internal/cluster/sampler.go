package cluster

import "lmas/internal/sim"

// This file is the cluster's gauge sampler (Observers.GaugeEvery): a daemon
// proc wakes on a virtual-time interval and records per-node busy time and
// the watched queues and stages as telemetry gauges. Daemons never extend a
// run (Sim.Run ends when the last workload event dispatches; see sim daemon
// support), and the snapshot only reads state the simulation already
// computes, so periodic gauges keep virtual time byte-identical.

// SampledQueue is what the sampler reads of a queue; every *sim.Queue[T] is
// one.
type SampledQueue interface {
	Name() string
	Len() int
	WaitStats() (cumWait sim.Duration, highWater int)
}

// WatchQueue registers q for periodic sampling; a no-op on a cluster built
// without a sampler (GaugeEvery 0). Workloads register their queues as they
// build them, so registration order — and with it the gauge order — is
// deterministic for a given workload.
func (c *Cluster) WatchQueue(q SampledQueue) {
	if c.sampler != nil {
		c.queues = append(c.queues, q)
	}
}

// stageProbe reads one computation stage's cumulative records consumed.
type stageProbe struct {
	name    string
	records func() int64
}

// WatchStage registers a stage's records-in count for periodic sampling
// (stage.<name>.records_in), under the same rules as WatchQueue.
func (c *Cluster) WatchStage(name string, records func() int64) {
	if c.sampler != nil {
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
// kills the sampler daemon (so sweep cells never leak parked goroutines). It
// also disconnects the recorder from the trace stream: the run's record is
// complete but for its report. Call after Sim.Run returns and before
// BuildReport. Safe on a cluster without observers, and more than once.
func (c *Cluster) FinishSampling() {
	if s := c.sampler; s != nil {
		if now := c.Sim.Now(); now > s.last {
			s.tick(now)
		}
		c.Sim.Kill(s.proc)
	}
	c.sampler = nil
	c.queues = nil
	c.stages = nil
	if c.spans != nil {
		c.Sim.Tracer().Detach(c.spans)
		c.spans = nil
	}
}

type clusterSampler struct {
	c    *Cluster
	proc *sim.Proc
	last sim.Time // the previous tick's instant
}

func (c *Cluster) startSampler(every sim.Duration) {
	s := &clusterSampler{c: c}
	s.proc = c.Sim.SpawnDaemon("gauge.sampler", func(p *sim.Proc) {
		for {
			p.Sleep(every)
			s.tick(p.Now())
		}
	})
	c.sampler = s
}

// tick records the cluster's gauges at virtual instant now. Busy time counts
// completed resource holds only (a hold still in progress shows up when it
// ends), like the utilization traces.
func (s *clusterSampler) tick(now sim.Time) {
	c := s.c
	for _, n := range c.Nodes() {
		c.Telemetry.Gauge("node."+n.Name+".cpu.busy_sec").Set(now, n.CPU.Busy().Seconds())
	}
	for _, q := range c.queues {
		_, high := q.WaitStats()
		c.Telemetry.Gauge("queue."+q.Name()+".depth").Set(now, float64(q.Len()))
		c.Telemetry.Gauge("queue."+q.Name()+".high_water").Set(now, float64(high))
	}
	for _, sp := range c.stages {
		c.Telemetry.Gauge("stage."+sp.name+".records_in").Set(now, float64(sp.records()))
	}
	s.last = now
}
