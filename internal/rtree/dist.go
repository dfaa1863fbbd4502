package rtree

import (
	"fmt"
	"sort"

	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// Mode selects the distributed organization of Figure 5.
type Mode int

const (
	// Partition assigns each ASU a contiguous group of leaves and a
	// private subtree over them; the host routes each query to the
	// ASUs whose group regions it intersects. Queries spread across
	// ASUs — good concurrent throughput.
	Partition Mode = iota
	// Stripe scatters leaves round-robin across all ASUs; the host
	// keeps the whole internal tree and every query fans out to all
	// ASUs in parallel — bounded latency.
	Stripe
	// Replicated is the paper's hybrid: each subtree lives on several
	// ASUs ("replicating subtrees on multiple ASUs are also possible"),
	// and queries rotate across a group's replicas — so a hot region is
	// served by R units instead of one.
	Replicated
)

func (m Mode) String() string {
	switch m {
	case Partition:
		return "partition"
	case Stripe:
		return "stripe"
	default:
		return "replicated"
	}
}

// Distributed is an R-tree deployed across a cluster's host and ASUs.
type Distributed struct {
	cl     *cluster.Cluster
	mode   Mode
	fanout int

	// Partition / Replicated state.
	groupBox []Rect  // per-group MBR
	subtrees []*Tree // per-group subtree
	// replicaASUs[g] lists the ASUs holding group g's subtree
	// (singleton for Partition); nextReplica rotates among them.
	replicaASUs [][]int
	nextReplica []int
	// pending buffers online inserts per group until Maintain runs.
	pending map[int][]Entry

	// Stripe state.
	full *Tree

	entries []Entry
}

// NewDistributed builds and places the index. Building happens outside
// emulated time (bulk loading is an offline operation in the evaluation).
func NewDistributed(cl *cluster.Cluster, entries []Entry, fanout int, mode Mode) *Distributed {
	return newDistributed(cl, entries, fanout, mode, 1)
}

// NewReplicated builds the hybrid organization: subtrees partitioned into
// len(ASUs)/replicas groups, each group's subtree stored on `replicas`
// ASUs, with queries rotated across replicas.
func NewReplicated(cl *cluster.Cluster, entries []Entry, fanout, replicas int) *Distributed {
	if replicas < 1 {
		panic("rtree: replicas must be >= 1")
	}
	return newDistributed(cl, entries, fanout, Replicated, replicas)
}

func newDistributed(cl *cluster.Cluster, entries []Entry, fanout int, mode Mode, replicas int) *Distributed {
	dt := &Distributed{cl: cl, mode: mode, fanout: fanout, entries: entries}
	d := len(cl.ASUs)
	switch mode {
	case Partition, Replicated:
		groups := d
		if mode == Replicated {
			groups = d / replicas
			if groups < 1 {
				groups = 1
			}
		}
		t := Build(entries, fanout)
		leaves := t.Leaves()
		for g := 0; g < groups; g++ {
			lo := g * len(leaves) / groups
			hi := (g + 1) * len(leaves) / groups
			var reps []int
			for k := 0; k < replicas; k++ {
				reps = append(reps, (g+k*groups)%d)
			}
			dt.replicaASUs = append(dt.replicaASUs, reps)
			dt.nextReplica = append(dt.nextReplica, 0)
			if lo == hi {
				dt.groupBox = append(dt.groupBox, Rect{MinX: 1, MinY: 1, MaxX: -1, MaxY: -1})
				dt.subtrees = append(dt.subtrees, nil)
				continue
			}
			var es []Entry
			box := leaves[lo].Box
			for _, leaf := range leaves[lo:hi] {
				es = append(es, leaf.Entries...)
				box = box.Union(leaf.Box)
			}
			dt.groupBox = append(dt.groupBox, box)
			dt.subtrees = append(dt.subtrees, Build(es, fanout))
		}
	case Stripe:
		dt.full = Build(entries, fanout)
	default:
		panic(fmt.Sprintf("rtree: unknown mode %v", mode))
	}
	return dt
}

// Mode reports the organization.
func (dt *Distributed) Mode() Mode { return dt.mode }

// Cluster returns the underlying emulated cluster, giving harnesses access
// to its telemetry (the per-query latency histogram) and reporting.
func (dt *Distributed) Cluster() *cluster.Cluster { return dt.cl }

// asuWork is the per-ASU share of one query.
type asuWork struct {
	asu int
	// visitOps is the CPU comparison count.
	visitOps float64
	// leafBytes is the data read from the ASU's disk.
	leafBytes int
	// matches are the result IDs (computed on the emulation host; the
	// emulated ASU is charged for the work above).
	matches []uint32
}

// plan computes, per contacted ASU, the work q induces. Also returns the
// host-side comparison count and the matches found in the host-resident
// insert buffers (entries awaiting Maintain).
func (dt *Distributed) plan(q Rect) (work []asuWork, hostOps float64, hostMatches []uint32) {
	cm := dt.cl.Params.Costs
	switch dt.mode {
	case Partition, Replicated:
		// Host checks the group MBRs and picks a replica per group
		// (round-robin rotation spreads repeated hits on a hot group
		// across its replicas).
		hostOps = float64(len(dt.groupBox)) * cm.CompareOps
		for i, box := range dt.groupBox {
			if dt.subtrees[i] == nil || !box.Intersects(q) {
				continue
			}
			ids, visited := dt.subtrees[i].Search(q)
			leaves := 0
			var countLeaves func(n *Node)
			countLeaves = func(n *Node) {
				if n.Leaf {
					if n.Box.Intersects(q) {
						leaves++
					}
					return
				}
				for _, c := range n.Children {
					if c.Box.Intersects(q) {
						countLeaves(c)
					}
				}
			}
			countLeaves(dt.subtrees[i].Root)
			reps := dt.replicaASUs[i]
			asu := reps[dt.nextReplica[i]%len(reps)]
			dt.nextReplica[i]++
			work = append(work, asuWork{
				asu:       asu,
				visitOps:  float64(visited) * float64(dt.fanout) * cm.CompareOps,
				leafBytes: leaves * dt.fanout * EntryBytes,
				matches:   ids,
			})
		}
	case Stripe:
		// Host traverses the internal levels, collecting candidate
		// leaves; each leaf's entries are striped across ALL ASUs
		// ("stripe a host leaf across all of the ASUs"), so every
		// query fans out to every ASU, each scanning its 1/D share.
		d := len(dt.cl.ASUs)
		byASU := make([]*asuWork, d)
		visitedInternal := 0
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.Leaf {
				for j, e := range n.Entries {
					a := j % d
					w := byASU[a]
					if w == nil {
						w = &asuWork{asu: a}
						byASU[a] = w
					}
					w.leafBytes += EntryBytes
					w.visitOps += cm.CompareOps
					if e.Box.Intersects(q) {
						w.matches = append(w.matches, e.ID)
					}
				}
				return
			}
			visitedInternal++
			for _, c := range n.Children {
				if c.Box.Intersects(q) {
					walk(c)
				}
			}
		}
		if dt.full.Root.Box.Intersects(q) {
			walk(dt.full.Root)
		}
		hostOps = float64(visitedInternal) * float64(dt.fanout) * cm.CompareOps
		for _, w := range byASU {
			if w != nil {
				work = append(work, *w)
			}
		}
	}
	// Pending online inserts live on the host until Maintain folds them
	// down; queries scan them there.
	for _, es := range dt.pending {
		hostOps += float64(len(es)) * cm.CompareOps
		for _, e := range es {
			if e.Box.Intersects(q) {
				hostMatches = append(hostMatches, e.ID)
			}
		}
	}
	return work, hostOps, hostMatches
}

// runQuery executes one query from proc p on the given host, blocking
// until all contacted ASUs respond. Returns the matching IDs. Each query's
// start-to-gather latency lands in the cluster's "rtree.query.latency"
// histogram when telemetry is attached.
func (dt *Distributed) runQuery(p *sim.Proc, host *cluster.Node, q Rect, qIdx int) []uint32 {
	cl := dt.cl
	start := p.Now()
	defer func() {
		cl.Telemetry.Latency("rtree.query.latency").Observe(sim.Duration(p.Now() - start))
	}()
	work, hostOps, hostMatches := dt.plan(q)
	host.Compute(p, hostOps+cl.Touch(host))
	if len(work) == 0 {
		return hostMatches
	}
	results := sim.NewQueue[[]uint32](cl.Sim, fmt.Sprintf("q%d.results", qIdx), len(work))
	for _, w := range work {
		w := w
		asu := cl.ASUs[w.asu]
		cl.Sim.Spawn(fmt.Sprintf("q%d@asu%d", qIdx, w.asu), func(sub *sim.Proc) {
			cl.Net.Send(sub, host.NIC, asu.NIC, 64) // the query itself
			asu.Compute(sub, w.visitOps+cl.Touch(asu))
			if w.leafBytes > 0 {
				asu.Disk.EndReadRun() // random placement: no read-ahead credit
				asu.Disk.Read(sub, w.leafBytes)
			}
			cl.Net.Send(sub, asu.NIC, host.NIC, len(w.matches)*EntryBytes+64)
			if err := results.Put(sub, w.matches); err != nil {
				// Unreachable: nothing closes the result queue.
				sub.Fail(err)
			}
		})
	}
	// Drain responses with the batched fast path: GetN blocks exactly like
	// Get while the queue is empty, then takes every buffered response in
	// one call, so the gather costs one wakeup per burst instead of one per
	// responder. No virtual time passes between takes (the loop body is
	// pure appends), so query latency is identical to a per-element loop.
	ids := hostMatches
	batch := make([][]uint32, len(work))
	for got := 0; got < len(work); {
		k, ok := results.GetN(p, batch[:len(work)-got])
		if !ok {
			p.Fail(fmt.Errorf("query %d: result queue closed early", qIdx))
		}
		for _, m := range batch[:k] {
			ids = append(ids, m...)
		}
		got += k
	}
	return ids
}

// QueryOnce runs a single query in an otherwise idle system and reports
// its matches and latency. Results are validated against a brute-force
// scan; a mismatch is returned as an error.
func (dt *Distributed) QueryOnce(q Rect) (ids []uint32, latency sim.Duration, err error) {
	cl := dt.cl
	start := cl.Sim.Now()
	var end sim.Time
	cl.Sim.Spawn("query", func(p *sim.Proc) {
		ids = dt.runQuery(p, cl.Hosts[0], q, 0)
		end = p.Now()
	})
	if err := cl.Sim.Run(); err != nil {
		return nil, 0, fmt.Errorf("rtree: %w", err)
	}
	if err := validate(ids, BruteForce(dt.entries, q)); err != nil {
		return nil, 0, fmt.Errorf("rtree: %w", err)
	}
	return ids, sim.Duration(end - start), nil
}

// Throughput runs the query batch with the given number of concurrent
// client procs per host and reports the elapsed virtual time and the
// achieved queries/second. Every result is validated.
func (dt *Distributed) Throughput(queries []Rect, clientsPerHost int) (sim.Duration, float64, error) {
	cl := dt.cl
	if clientsPerHost < 1 {
		clientsPerHost = 1
	}
	next := 0
	start := cl.Sim.Now()
	for h, host := range cl.Hosts {
		for c := 0; c < clientsPerHost; c++ {
			host := host
			cl.Sim.Spawn(fmt.Sprintf("client%d.%d", h, c), func(p *sim.Proc) {
				for {
					if next >= len(queries) {
						return
					}
					qi := next
					next++
					ids := dt.runQuery(p, host, queries[qi], qi)
					if err := validate(ids, BruteForce(dt.entries, queries[qi])); err != nil {
						p.Fail(fmt.Errorf("query %d: %w", qi, err))
					}
				}
			})
		}
	}
	if err := cl.Sim.Run(); err != nil {
		return 0, 0, fmt.Errorf("rtree: %w", err)
	}
	elapsed := sim.Duration(cl.Sim.Now() - start)
	if elapsed <= 0 {
		return elapsed, 0, nil
	}
	return elapsed, float64(len(queries)) / elapsed.Seconds(), nil
}

func validate(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, brute force %d", len(got), len(want))
	}
	g := append([]uint32(nil), got...)
	w := append([]uint32(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("match set differs at %d: %d vs %d", i, g[i], w[i])
		}
	}
	return nil
}
