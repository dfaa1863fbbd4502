package dsmsort

import (
	"fmt"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/functor"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// RunStore holds the sorted runs produced by run formation, grouped by the
// ASU they are stored on and the distribute subset they belong to.
type RunStore struct {
	RecordSize int
	// Streams[asu][bucket] holds that subset's runs on that ASU (nil if
	// none landed there).
	Streams [][]*container.Stream
	engines []*bte.DiskEngine
}

// NewRunStore allocates run storage for d ASUs and alpha subsets on the
// given cluster.
func NewRunStore(cl *cluster.Cluster, alpha int) *RunStore {
	rs := &RunStore{RecordSize: cl.Params.RecordSize}
	rs.Streams = make([][]*container.Stream, len(cl.ASUs))
	for i := range rs.Streams {
		rs.Streams[i] = make([]*container.Stream, alpha)
		rs.engines = append(rs.engines, bte.NewDisk(cl.ASUs[i].Disk))
	}
	return rs
}

func (rs *RunStore) put(p *sim.Proc, asu int, pk container.Packet) {
	if pk.Bucket < 0 || pk.Bucket >= len(rs.Streams[asu]) {
		p.Fail(fmt.Errorf("run with bucket %d out of range on asu%d", pk.Bucket, asu))
	}
	st := rs.Streams[asu][pk.Bucket]
	if st == nil {
		st = container.NewStream(fmt.Sprintf("runs.asu%d.b%d", asu, pk.Bucket), rs.engines[asu], rs.RecordSize)
		rs.Streams[asu][pk.Bucket] = st
	}
	st.Append(p, pk)
}

// Free releases every stored run's storage back to the buffer pool; call it
// when the run store has been merged or validated and is no longer needed.
func (rs *RunStore) Free() {
	for _, row := range rs.Streams {
		for _, st := range row {
			if st != nil {
				st.FreeAll()
			}
		}
	}
}

// Runs reports the total number of stored runs.
func (rs *RunStore) Runs() int {
	n := 0
	for _, row := range rs.Streams {
		for _, st := range row {
			if st != nil {
				n += st.Packets()
			}
		}
	}
	return n
}

// Records reports the total records stored.
func (rs *RunStore) Records() int64 {
	var n int64
	for _, row := range rs.Streams {
		for _, st := range row {
			if st != nil {
				n += st.Records()
			}
		}
	}
	return n
}

// Checksum digests every stored record (order-independent). Validation
// reads the emulation host's memory directly and charges no virtual time.
func (rs *RunStore) Checksum() records.Checksum {
	var sum records.Checksum
	for _, row := range rs.Streams {
		for _, st := range row {
			if st == nil {
				continue
			}
			st.ForEach(func(pk container.Packet) bool {
				sum.Add(pk.Buf)
				return true
			})
		}
	}
	return sum
}

// Pass1Result reports run formation outcomes.
type Pass1Result struct {
	Elapsed sim.Duration
	Runs    int
	// HostOps / ASUOps are the total CPU ops charged per node class.
	HostOps, ASUOps float64
	// NetBytes is the interconnect traffic.
	NetBytes int64
	// HybridHostShare is the fraction of records whose distribute step
	// ran on a host (meaningful only for the Hybrid placement, where it
	// shows how much work migrated off the ASUs).
	HybridHostShare float64
}

// RunFormation executes DSM-Sort's first pass (distribute + block sort +
// collect) on cl, reading in and storing runs into the returned RunStore.
// This is the phase timed in Figure 9 ("timings from the first pass of
// sorting (run formation), omitting the final merge phases").
func RunFormation(cl *cluster.Cluster, cfg Config, in *Input) (*RunStore, *Pass1Result, error) {
	if err := cfg.Validate(cl.Params); err != nil {
		return nil, nil, err
	}
	if len(in.Sets) != len(cl.ASUs) {
		return nil, nil, fmt.Errorf("dsmsort: input striped over %d ASUs, cluster has %d", len(in.Sets), len(cl.ASUs))
	}
	recSize := cl.Params.RecordSize
	rs := NewRunStore(cl, cfg.Alpha)
	pl := functor.NewPipeline(cl)

	sortPolicy := cfg.SortPolicy
	if sortPolicy == nil {
		sortPolicy = route.Static{Buckets: cfg.Alpha}
	}
	if cl.Telemetry != nil {
		// Count per-sorter routing decisions so the report shows how the
		// policy actually spread packets. Counted delegates Pick, so the
		// routed destinations — and hence timings — are unchanged.
		sortPolicy = &route.Counted{Inner: sortPolicy, Reg: cl.Telemetry, Prefix: "route.sort"}
	}

	var distStage *functor.Stage // nil under Conventional, which fuses distribute into the sort
	var edges []*functor.Edge

	switch cfg.Placement {
	case Active, Hybrid:
		// ASU: distribute; host: block sort; ASU: collect runs. Each ASU's
		// reader feeds its own distribute instance.
		distNodes, inbox := cl.ASUs, 0 // 0: the default inbox depth
		source := func(i int) route.Policy { return route.Pin(i) }
		if cfg.Placement == Hybrid {
			// Distribute runs on ASUs AND hosts; each reader picks its
			// local ASU instance or a host instance by backlog, migrating
			// work toward spare capacity. Hosts also run the block sort,
			// so host-side distribute naturally throttles when sorting
			// saturates the host CPU.
			distNodes = append(append([]*cluster.Node{}, cl.ASUs...), cl.Hosts...)
			source = func(i int) route.Policy {
				return localOrHost{local: i, asus: len(cl.ASUs), c: cl.Params.C}
			}
			// Deeper inboxes make backlog a usable migration signal: a
			// saturated host shows a long queue well before backpressure
			// stalls the readers.
			inbox = 64
		}
		distStage = pl.AddStage("distribute", distNodes, func() functor.Kernel {
			return functor.Adapt(functor.NewDistribute(cfg.Alpha), recSize, cfg.PacketRecords)
		})
		distStage.InboxPackets = inbox
		sorter := pl.AddStage("blocksort", cl.Hosts, func() functor.Kernel {
			return functor.NewBlockSort(cfg.Beta, recSize)
		})
		collect := pl.AddStage("collect", cl.ASUs, func() functor.Kernel {
			return &functor.Sink{Label: "runs", Fn: func(ctx *functor.Ctx, pk container.Packet) {
				rs.put(ctx.Proc, ctx.Node.Index, pk)
			}}
		})
		edges = append(edges, distStage.ConnectTo(sorter, sortPolicy))
		edges = append(edges, sorter.ConnectTo(collect, &route.RoundRobin{}))
		collect.Terminal()
		for i, set := range in.Sets {
			pl.AddSource(fmt.Sprintf("read@asu%d", i), cl.ASUs[i], set.Scan(i, false), distStage, source(i))
		}

	case Conventional:
		// Dumb disks stream raw blocks to the hosts; hosts do
		// distribute + block sort fused in one pass; raw blocks are
		// written back to the storage units with no ASU computation.
		sorter := pl.AddStage("host-dist-sort", cl.Hosts, func() functor.Kernel {
			return functor.NewFusedDistributeSort(cfg.Alpha, cfg.Beta, recSize)
		})
		writeback := pl.AddStage("writeback", cl.ASUs, func() functor.Kernel {
			return &functor.Sink{Label: "runs", Fn: func(ctx *functor.Ctx, pk container.Packet) {
				rs.put(ctx.Proc, ctx.Node.Index, pk)
			}}
		})
		writeback.NoCPU = true // raw block DMA on conventional storage
		edges = append(edges, sorter.ConnectTo(writeback, &route.RoundRobin{}))
		writeback.Terminal()
		for i, set := range in.Sets {
			// Readers route packets across host sorters round-robin
			// (the host pulls blocks from all disks evenly).
			pl.AddSource(fmt.Sprintf("read@asu%d", i), cl.ASUs[i], set.Scan(i, false), sorter, &route.RoundRobin{})
		}
	default:
		return nil, nil, fmt.Errorf("dsmsort: unknown placement %v", cfg.Placement)
	}

	elapsed, err := pl.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("dsmsort: pass 1 failed: %w", err)
	}
	res := &Pass1Result{Elapsed: elapsed, Runs: rs.Runs()}
	if distStage != nil {
		var hostRecs, totalRecs int64
		for _, inst := range distStage.Instances() {
			totalRecs += inst.RecordsIn
			if inst.Node.Kind == cluster.Host {
				hostRecs += inst.RecordsIn
			}
		}
		if totalRecs > 0 {
			res.HybridHostShare = float64(hostRecs) / float64(totalRecs)
		}
	}
	for _, st := range pl.Stages() {
		for _, inst := range st.Instances() {
			if inst.Node.Kind == cluster.Host {
				res.HostOps += inst.OpsCharged
			} else {
				res.ASUOps += inst.OpsCharged
			}
		}
	}
	for _, e := range edges {
		res.NetBytes += e.NetBytes
	}
	// Integrity: every input record must be stored in exactly one run.
	if got := rs.Records(); got != int64(in.N) {
		return nil, nil, fmt.Errorf("dsmsort: stored %d records, want %d", got, in.N)
	}
	sum, err := rs.audit(cfg.Alpha)
	if err != nil {
		return nil, nil, err
	}
	if !sum.Equal(in.Checksum) {
		return nil, nil, fmt.Errorf("dsmsort: run store checksum mismatch")
	}
	if reg := cl.Telemetry; reg != nil {
		reg.Counter("dsmsort.pass1.runs").Add(int64(res.Runs))
		reg.Counter("dsmsort.pass1.net_bytes").Add(res.NetBytes)
		reg.Counter("dsmsort.pass1.host_ops").Add(int64(res.HostOps))
		reg.Counter("dsmsort.pass1.asu_ops").Add(int64(res.ASUOps))
		reg.Gauge("dsmsort.pass1.elapsed_sec").Set(cl.Sim.Now(), res.Elapsed.Seconds())
	}
	return rs, res, nil
}

// localOrHost is the hybrid migration policy: a reader chooses between its
// local ASU's distribute instance and the host instances by estimated
// completion time — backlog plus one, weighted by the node's relative
// processing cost (the ASU is c times slower). Work therefore drains to
// the hosts while they have spare capacity and returns to the ASUs as the
// hosts saturate, without any central coordination.
type localOrHost struct {
	local int     // index of the reader's ASU instance
	asus  int     // instances [0,asus) are ASU-resident; the rest are hosts
	c     float64 // host/ASU power ratio
}

func (localOrHost) Name() string { return "local-or-host" }

func (l localOrHost) Pick(pk route.PacketInfo, eps []route.Endpoint) int {
	best := l.local % len(eps)
	bestCost := float64(eps[best].Pending()+1) * l.c
	for i := l.asus; i < len(eps); i++ {
		if cost := float64(eps[i].Pending() + 1); cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
