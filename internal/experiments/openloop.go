package experiments

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"

	"lmas/internal/cluster"
	"lmas/internal/critpath"
	"lmas/internal/plot"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// OpenLoopOptions parameterizes TAB-CHURN's macro workload: an open-loop
// stream of short storage jobs arriving at the hosts regardless of service
// progress, each routed to a (Zipf-skewed) ASU, queued, and served in
// batches. Every job is a short-lived proc and arms a far-future timeout
// timer, so the workload exercises exactly the kernel paths the scheduler
// tier, proc recycling, and batched queue ops optimize — at tens of
// thousands of lifecycles and millions of in-flight events.
type OpenLoopOptions struct {
	Hosts int
	ASUs  int
	// Jobs is the total number of arrivals.
	Jobs int
	// Rate is the arrival rate in jobs per second of virtual time; the
	// exponential inter-arrival times make the stream Poisson.
	Rate float64
	// ZipfS skews the ASU choice (1 < s; higher = hotter head). 0 means
	// uniform.
	ZipfS float64
	// HostOps and ASUOps are the per-job CPU costs on each side.
	HostOps float64
	ASUOps  float64
	// ReadBytes is the per-job payload read from the ASU's disk.
	ReadBytes int
	// QueueCap bounds each ASU's job queue.
	QueueCap int
	// Batch is the server's maximum GetN drain per wakeup.
	Batch int
	// Timeout arms a far-future deadline per job; jobs still queued when it
	// fires count as SLO misses. The horizon is what pushes timer load into
	// the wheel's outer levels.
	Timeout sim.Duration
	// Deadlines arms one probe per horizon i*Timeout (i = 1..Deadlines) per
	// job — multi-horizon SLO tracking. Every probe counts its horizon's
	// misses and captures the missing job's blame mix; the ladder also keeps
	// hundreds of thousands of far timers in flight, which is the in-flight
	// event load the scheduler tier is built to carry.
	Deadlines int
	Base      cluster.Params
	Seed      int64
	// Record, when non-nil, streams the run into a segment of this store:
	// its header, then the finished report. Recording is a pure observer —
	// the report stays byte-identical with or without it.
	Record *recorder.Store
	// Experiment names the recorded run's store experiment (default
	// "openloop"); only used when Record is set.
	Experiment string
}

// DefaultOpenLoopOptions sizes the workload so a run exercises every wheel
// level while finishing in well under a second of wall clock.
func DefaultOpenLoopOptions() OpenLoopOptions {
	return OpenLoopOptions{
		Hosts:     2,
		ASUs:      8,
		Jobs:      20000,
		Rate:      5e3,
		ZipfS:     1.3,
		HostOps:   200,
		ASUOps:    500,
		ReadBytes: 4 << 10,
		QueueCap:  256,
		Batch:     64,
		Timeout:   sim.Second,
		Deadlines: 10,
		Base:      cluster.DefaultParams(),
		Seed:      42,
	}
}

// OpenLoopResult holds one run's measurements.
type OpenLoopResult struct {
	Options   OpenLoopOptions
	Completed int
	// Misses counts jobs whose timeout fired before service finished.
	Misses int
	// Elapsed spans arrival of the first job to completion of the last;
	// the run itself extends further while leftover timeout timers drain.
	Elapsed        sim.Duration
	P50, P99, P999 sim.Duration
	// Goodput is completed jobs per second of Elapsed.
	Goodput float64
	Report  *telemetry.RunReport
}

// Table renders the headline numbers plus the scheduler counters that the
// run's report exports.
func (r *OpenLoopResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-CHURN: open-loop churn, %d jobs @ %.0f/s over %d hosts / %d ASUs",
			r.Options.Jobs, r.Options.Rate, r.Options.Hosts, r.Options.ASUs),
		"metric", "value")
	t.AddRow("completed", r.Completed)
	t.AddRow("SLO misses", r.Misses)
	t.AddRow("elapsed(s)", r.Elapsed.Seconds())
	t.AddRow("goodput(jobs/s)", r.Goodput)
	if slo := r.Report.SLO; slo != nil {
		t.AddRow("goodput in SLO(jobs/s)", slo.GoodputPerSec)
	}
	t.AddRow("p50(ms)", r.P50.Seconds()*1e3)
	t.AddRow("p99(ms)", r.P99.Seconds()*1e3)
	t.AddRow("p99.9(ms)", r.P999.Seconds()*1e3)
	for _, c := range r.Report.Counters {
		switch c.Name {
		case "sim.scheduler.wheel_hits", "sim.scheduler.heap_spills", "sim.scheduler.proc_reuses":
			t.AddRow(c.Name, c.Value)
		}
	}
	return t
}

type openJob struct {
	id      int
	arrival sim.Time
}

// Per-job blame classes, in the critpath charge vocabulary. A job's life is
// always in exactly one phase; phase transitions flush the elapsed interval
// onto the finishing class, so when an SLO probe fires mid-phase the miss's
// whole history is one cumulative vector plus one partial interval.
const (
	jobPhaseHostCPU = iota
	jobPhaseNet
	jobPhaseQueueWait
	jobPhaseASUCPU
	jobPhaseDisk
	jobNumPhases
	jobPhaseDone = -1
)

var jobPhaseClass = [jobNumPhases]critpath.Class{
	critpath.ClassHostCPU,
	critpath.ClassNet,
	critpath.ClassQueueWait,
	critpath.ClassASUCPU,
	critpath.ClassDisk,
}

// jobTrack is one job's latency provenance: where its time has gone so far.
// The slice of these is allocated once up front, so blame tracking never
// perturbs the workload's own churn-heavy allocation profile. Its phase is a
// separate []int8: SLO probes read only that, and it stays in cache.
type jobTrack struct {
	classNs [jobNumPhases]int64
	phaseAt sim.Time
	host    int32
	asu     int32
}

// RunOpenLoop executes the open-loop churn workload. The dispatch history is
// a pure function of the options: the generator is a single proc, every
// shared mutation happens inside dispatched events, and the report it builds
// must be byte-identical from run to run (CI cmps two runs).
func RunOpenLoop(opt OpenLoopOptions) (*OpenLoopResult, error) {
	switch {
	case opt.Jobs < 0:
		return nil, fmt.Errorf("openloop: jobs must be >= 0, have %d", opt.Jobs)
	case !(opt.Rate > 0) || math.IsInf(opt.Rate, 1):
		return nil, fmt.Errorf("openloop: rate must be finite and > 0 jobs/s, have %v", opt.Rate)
	case math.IsNaN(opt.ZipfS) || math.IsInf(opt.ZipfS, 0):
		// rand.Zipf never returns a draw at s = +Inf, and NaN would run uniform.
		return nil, fmt.Errorf("openloop: zipf must be finite, have %v", opt.ZipfS)
	case opt.Timeout <= 0:
		return nil, fmt.Errorf("openloop: timeout must be > 0, have %v", opt.Timeout)
	case opt.Deadlines < 0:
		return nil, fmt.Errorf("openloop: deadlines must be >= 0, have %d", opt.Deadlines)
	}
	params := opt.Base
	params.Hosts, params.ASUs = opt.Hosts, opt.ASUs
	exp := opt.Experiment
	if exp == "" {
		exp = "openloop"
	}
	workload := map[string]any{
		"program": "openloop-churn",
		"jobs":    opt.Jobs,
		"rate":    opt.Rate,
		"zipf_s":  opt.ZipfS,
		"batch":   opt.Batch,
		"timeout": int64(opt.Timeout),
	}
	run, err := startRun(params, observers{
		record:     opt.Record,
		experiment: exp,
	}, "openloop", opt.Seed, workload)
	if err != nil {
		return nil, err
	}
	defer run.close()
	cl := run.cl
	s := cl.Sim

	// The job latency histogram observes each job once, at completion: its
	// count and quantiles are the result's.
	latHist := cl.Telemetry.Latency("openloop.job.latency")

	queues := make([]*sim.Queue[openJob], opt.ASUs)
	for i := range queues {
		queues[i] = sim.NewQueue[openJob](s, fmt.Sprintf("asu%d.jobs", i), opt.QueueCap)
	}

	var (
		tracks    = make([]jobTrack, opt.Jobs)
		phases    = make([]int8, opt.Jobs)
		delivered = 0
		good      = 0
		firstAt   sim.Time
		lastAt    sim.Time
	)
	// horizonMiss[i] aggregates the blame of every job missing horizon i:
	// key = phase*numNodes + node index (hosts first).
	numNodes := opt.Hosts + opt.ASUs
	horizonMiss := make([]int64, opt.Deadlines+1)
	horizonBlame := make([]map[int]int64, opt.Deadlines+1)

	setPhase := func(id int, phase int8, now sim.Time) {
		tr := &tracks[id]
		if cur := phases[id]; cur >= 0 {
			tr.classNs[cur] += int64(now - tr.phaseAt)
		}
		phases[id], tr.phaseAt = phase, now
	}

	// The last delivery closes every queue, so each server drains what is
	// left and exits.
	closeQueues := func() {
		for _, q := range queues {
			q.Close()
		}
	}

	// Per-ASU server: drain the queue in batches and charge CPU and disk per
	// job.
	for i, asu := range cl.ASUs {
		i, asu := i, asu
		q := queues[i]
		s.Spawn(fmt.Sprintf("server@asu%d", i), func(p *sim.Proc) {
			batch := make([]openJob, opt.Batch)
			for {
				n, ok := q.GetN(p, batch)
				if !ok {
					return
				}
				for _, j := range batch[:n] {
					setPhase(j.id, jobPhaseASUCPU, p.Now())
					// Reads stream sequentially per ASU (read-ahead credit
					// applies): the workload stresses the scheduler, not
					// seek time.
					asu.Compute(p, opt.ASUOps+cl.Touch(asu))
					if opt.ReadBytes > 0 {
						setPhase(j.id, jobPhaseDisk, p.Now())
						asu.Disk.Read(p, opt.ReadBytes)
					}
					now := p.Now()
					setPhase(j.id, jobPhaseDone, now)
					lat := sim.Duration(now - j.arrival)
					latHist.Observe(lat)
					if lat <= opt.Timeout {
						good++
					}
					lastAt = now
				}
			}
		})
	}

	// Open-loop generator: Poisson arrivals, Zipf ASU choice, one
	// short-lived proc per job. The rng is touched only here, so the
	// schedule is a pure function of the seed.
	s.Spawn("generator", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(opt.Seed))
		var zipf *rand.Zipf
		if opt.ZipfS > 1 {
			zipf = rand.NewZipf(rng, opt.ZipfS, 1, uint64(opt.ASUs-1))
		}
		firstAt = p.Now()
		for id := 0; id < opt.Jobs; id++ {
			id := id
			hostIdx := id % opt.Hosts
			host := cl.Hosts[hostIdx]
			asuIdx := 0
			if zipf != nil {
				asuIdx = int(zipf.Uint64())
			} else {
				asuIdx = rng.Intn(opt.ASUs)
			}
			asu := cl.ASUs[asuIdx]
			arrival := p.Now()
			tracks[id] = jobTrack{
				phaseAt: arrival,
				host:    int32(hostIdx),
				asu:     int32(asuIdx),
			}
			phases[id] = jobPhaseHostCPU
			// SLO deadlines: a ladder of far-future probes per job,
			// cancel-by-flag. One closure serves the whole ladder (its
			// horizon is recovered from the fire time), so arming ten
			// horizons costs the same single allocation as one.
			probe := func() {
				if phases[id] == jobPhaseDone {
					return
				}
				now := s.Now()
				h := int(sim.Duration(now-arrival) / opt.Timeout)
				if h < 1 {
					h = 1
				} else if h > opt.Deadlines {
					h = opt.Deadlines
				}
				horizonMiss[h]++
				tr := &tracks[id]
				blame := horizonBlame[h]
				if blame == nil {
					blame = make(map[int]int64)
					horizonBlame[h] = blame
				}
				for ph := 0; ph < jobNumPhases; ph++ {
					ns := tr.classNs[ph]
					if ph == int(phases[id]) {
						ns += int64(now - tr.phaseAt)
					}
					if ns == 0 {
						continue
					}
					node := int(tr.host)
					if ph >= jobPhaseQueueWait {
						node = opt.Hosts + int(tr.asu)
					}
					blame[ph*numNodes+node] += ns
				}
			}
			for i := 1; i <= opt.Deadlines; i++ {
				s.After(sim.Duration(i)*opt.Timeout, probe)
			}
			// A constant proc name: a per-job Sprintf would dominate the
			// workload's own allocation profile at 100k+ jobs.
			s.Spawn("job", func(jp *sim.Proc) {
				host.Compute(jp, opt.HostOps+cl.Touch(host))
				setPhase(id, jobPhaseNet, jp.Now())
				cl.Net.Send(jp, host.NIC, asu.NIC, 256)
				setPhase(id, jobPhaseQueueWait, jp.Now())
				if err := queues[asuIdx].Put(jp, openJob{id: id, arrival: arrival}); err != nil {
					// Unreachable: the queues close after the last job's Put.
					jp.Fail(err)
				}
				if delivered++; delivered == opt.Jobs {
					closeQueues()
				}
			})
			p.Sleep(sim.DurationOf(rng.ExpFloat64() / opt.Rate))
		}
		if opt.Jobs == 0 {
			closeQueues()
		}
	})

	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("openloop: %w", err)
	}

	res := &OpenLoopResult{
		Options:   opt,
		Completed: int(latHist.Count()),
		Elapsed:   sim.Duration(lastAt - firstAt),
		P50:       sim.Duration(latHist.Quantile(0.50)),
		P99:       sim.Duration(latHist.Quantile(0.99)),
		P999:      sim.Duration(latHist.Quantile(0.999)),
	}
	// A job misses its SLO when the first horizon's probe finds it unserved.
	if opt.Deadlines > 0 {
		res.Misses = int(horizonMiss[1])
	}
	if res.Elapsed > 0 {
		res.Goodput = float64(res.Completed) / res.Elapsed.Seconds()
	}
	// The report's workload is the header's plus the run's outcome.
	outcome := maps.Clone(workload)
	outcome["misses"] = res.Misses
	outcome["p50_ns"] = int64(res.P50)
	outcome["p99_ns"] = int64(res.P99)
	outcome["p999_ns"] = int64(res.P999)
	outcome["goodput"] = res.Goodput
	outcome["complete"] = res.Completed
	res.Report = run.finish(res.Elapsed, nil, func(rep *telemetry.RunReport) {
		rep.Workload = outcome
		rep.SLO = buildSLO(cl, opt, res, good, horizonMiss, horizonBlame)
	})
	return res, nil
}

// buildSLO assembles the deadline-ladder report section: per-horizon miss
// counts with a blame mix sorted by attributed time (descending, ties by
// class order then node name), so the dominant resource is first.
func buildSLO(cl *cluster.Cluster, opt OpenLoopOptions, res *OpenLoopResult,
	good int, horizonMiss []int64, horizonBlame []map[int]int64) *telemetry.SLOReport {
	slo := &telemetry.SLOReport{TimeoutNs: int64(opt.Timeout)}
	if res.Elapsed > 0 {
		slo.GoodputPerSec = float64(good) / res.Elapsed.Seconds()
	}
	numNodes := opt.Hosts + opt.ASUs
	nodeName := func(idx int) string {
		if idx < opt.Hosts {
			return cl.Hosts[idx].Name
		}
		return cl.ASUs[idx-opt.Hosts].Name
	}
	for i := 1; i <= opt.Deadlines; i++ {
		hz := telemetry.SLOHorizon{
			Horizon:    i,
			DeadlineNs: int64(sim.Duration(i) * opt.Timeout),
			Misses:     horizonMiss[i],
		}
		blame := horizonBlame[i]
		var total int64
		for _, ns := range blame {
			total += ns
		}
		for key, ns := range blame {
			hz.Blame = append(hz.Blame, telemetry.SLOBlame{
				Class: string(jobPhaseClass[key/numNodes]),
				Node:  nodeName(key % numNodes),
				Ns:    ns,
				Share: math.Round(float64(ns)/float64(total)*1e6) / 1e6,
			})
		}
		sort.Slice(hz.Blame, func(a, b int) bool {
			ba, bb := hz.Blame[a], hz.Blame[b]
			if ba.Ns != bb.Ns {
				return ba.Ns > bb.Ns
			}
			if ba.Class != bb.Class {
				return ba.Class < bb.Class
			}
			return ba.Node < bb.Node
		})
		if len(hz.Blame) > 0 {
			hz.Dominant = hz.Blame[0].Class
		}
		slo.Horizons = append(slo.Horizons, hz)
	}
	return slo
}
