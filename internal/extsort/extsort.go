// Package extsort implements the classic host-only external mergesort of
// the I/O-efficient algorithms literature (Section 2.1): form N/M sorted
// runs of memory size M, then merge them k ways per pass. It is the
// conventional-storage reference point for DSM-Sort — all computation on
// one host, storage units streaming raw blocks — and the sort TerraFlow
// falls back to without active storage.
//
// "Mergesort forms N/k sorted runs of size k = M (consuming
// N/k · k log k = N log k work) and then merges the N/M runs (consuming
// N log(N/k) additional work), for a total of N log k + N log(N/k)
// = N log N work."
package extsort

import (
	"fmt"
	"math"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// Config parameterizes the external mergesort.
type Config struct {
	// MemRecords is the run-formation memory M, in records.
	MemRecords int
	// FanIn is the merge arity k per pass.
	FanIn int
}

// Validate checks the configuration against the cluster's host memory.
func (c Config) Validate(p cluster.Params) error {
	switch {
	case c.MemRecords < 1:
		return fmt.Errorf("extsort: memory must be >= 1 record")
	case c.FanIn < 2:
		return fmt.Errorf("extsort: fan-in must be >= 2")
	case c.MemRecords > p.HostMemRecords:
		return fmt.Errorf("extsort: memory %d exceeds host memory %d", c.MemRecords, p.HostMemRecords)
	case c.FanIn > c.MemRecords:
		return fmt.Errorf("extsort: fan-in %d exceeds memory %d records", c.FanIn, c.MemRecords)
	}
	return nil
}

// Result reports a completed sort.
type Result struct {
	Elapsed sim.Duration
	// RunFormationSecs / MergeSecs split the elapsed time by phase.
	RunFormationSecs, MergeSecs float64
	// Runs is the number of initial sorted runs (≈ N/M).
	Runs int
	// MergePasses is the number of merge passes (≈ log_k(N/M)).
	MergePasses int
	// HostOps is the total CPU work charged to the host.
	HostOps float64
	// Output is the final sorted stream (nil for empty input).
	Output *container.Stream
}

// PredictedPasses is the textbook pass count: ceil(log_k(ceil(N/M))).
func PredictedPasses(n, m, k int) int {
	runs := (n + m - 1) / m
	if runs <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(float64(runs)) / math.Log(float64(k))))
}

// Sort sorts in on the cluster's first host using conventional storage:
// records stream from the (dumb) storage units to the host and back, runs
// round-robin across the units. The sorted result is validated before
// return.
func Sort(cl *cluster.Cluster, cfg Config, in *dsmsort.Input) (*Result, error) {
	if err := cfg.Validate(cl.Params); err != nil {
		return nil, err
	}
	host := cl.Hosts[0]
	recSize := cl.Params.RecordSize
	cm := cl.Params.Costs
	touch := cl.Touch(host)
	res := &Result{}

	// Runs live striped across the storage units.
	engines := make([]*bte.DiskEngine, len(cl.ASUs))
	for i, asu := range cl.ASUs {
		engines[i] = bte.NewDisk(asu.Disk)
	}
	var runs []*container.Stream
	stripe := 0
	newRun := func() *container.Stream {
		i := stripe % len(engines)
		stripe++
		st := container.NewStream(fmt.Sprintf("xrun%d", len(runs)), engines[i], recSize)
		runs = append(runs, st)
		return st
	}
	nicOf := func(st *container.Stream) int {
		// Recover which unit a run lives on from its engine.
		for i, e := range engines {
			if st.Engine() == e {
				return i
			}
		}
		panic("extsort: run on unknown engine")
	}

	start := cl.Sim.Now()
	var formationEnd sim.Time
	cl.Sim.Spawn("extsort", func(p *sim.Proc) {
		// Phase 1: run formation. Scan the input sets round-robin so
		// all disks stream concurrently; accumulate M records, sort,
		// write the run back.
		scans := make([]*container.Scan, len(in.Sets))
		for i, set := range in.Sets {
			scans[i] = set.Scan(i, false)
		}
		mem := records.NewBuffer(cfg.MemRecords, recSize)
		fill := 0
		flushRun := func() {
			if fill == 0 {
				return
			}
			// Pooled copy: ownership transfers into the run stream's engine.
			buf := mem.Slice(0, fill).ClonePooled()
			ops := float64(fill) * (touch + cluster.Log2(fill)*cm.CompareOps)
			res.HostOps += ops
			host.Compute(p, ops)
			buf.Sort()
			st := newRun()
			dst := nicOf(st)
			cl.Net.Stream(p, host.NIC, cl.ASUs[dst].NIC, buf.Bytes()+64)
			st.Append(p, container.Packet{Buf: buf, Sorted: true, Bucket: -1, Run: len(runs)})
			fill = 0
		}
		live := len(scans)
		for live > 0 {
			live = 0
			for i, sc := range scans {
				if sc == nil {
					continue
				}
				pk, ok := sc.Next(p)
				if !ok {
					scans[i] = nil
					continue
				}
				live++
				// Stream the packet host-ward.
				cl.Net.Stream(p, cl.ASUs[i].NIC, host.NIC, pk.Bytes()+64)
				n := pk.Len()
				for r := 0; r < n; r++ {
					copy(mem.Record(fill), pk.Buf.Record(r))
					fill++
					if fill == cfg.MemRecords {
						flushRun()
					}
				}
			}
		}
		flushRun()
		res.Runs = len(runs)
		formationEnd = p.Now()

		// Phase 2: k-way merge passes until one run remains.
		for len(runs) > 1 {
			res.MergePasses++
			var next []*container.Stream
			for lo := 0; lo < len(runs); lo += cfg.FanIn {
				hi := lo + cfg.FanIn
				if hi > len(runs) {
					hi = len(runs)
				}
				next = append(next, mergeRuns(cl, p, host, runs[lo:hi], engines, &stripe, res, cfg))
			}
			runs = next
		}
	})
	if err := cl.Sim.Run(); err != nil {
		return nil, fmt.Errorf("extsort: %w", err)
	}
	res.Elapsed = sim.Duration(cl.Sim.Now() - start)
	res.RunFormationSecs = sim.Duration(formationEnd - start).Seconds()
	res.MergeSecs = res.Elapsed.Seconds() - res.RunFormationSecs

	// Validate: single sorted run containing the input multiset.
	if len(runs) == 0 {
		if in.N != 0 {
			return nil, fmt.Errorf("extsort: no output for %d records", in.N)
		}
		return res, nil
	}
	var sum records.Checksum
	var total int
	sorted := true
	var last records.Key
	haveLast := false
	runs[0].ForEach(func(pk container.Packet) bool {
		sum.Add(pk.Buf)
		total += pk.Len()
		if !pk.Buf.IsSorted() {
			sorted = false
			return false
		}
		if pk.Len() > 0 {
			if haveLast && pk.Buf.Key(0) < last {
				sorted = false
				return false
			}
			last = pk.Buf.Key(pk.Len() - 1)
			haveLast = true
		}
		return true
	})
	if !sorted {
		return nil, fmt.Errorf("extsort: output not sorted")
	}
	if total != in.N || !sum.Equal(in.Checksum) {
		return nil, fmt.Errorf("extsort: output %d records, checksum mismatch", total)
	}
	res.Output = runs[0]
	return res, nil
}

// mergeRuns merges a group of runs into one new run on the host, streaming
// packets from and to the storage units.
func mergeRuns(cl *cluster.Cluster, p *sim.Proc, host *cluster.Node, group []*container.Stream, engines []*bte.DiskEngine, stripe *int, res *Result, cfg Config) *container.Stream {
	recSize := cl.Params.RecordSize
	cm := cl.Params.Costs
	touch := cl.Touch(host)

	// Load each run's packets (reads charge the source disks; transfers
	// charge the interconnect); a run is one merge source.
	runs := make([][]records.Buffer, len(group))
	total := 0
	for i, st := range group {
		src := -1
		for e, eng := range engines {
			if st.Engine() == eng {
				src = e
			}
		}
		sc := st.Scan()
		for {
			pk, ok := sc.Next(p)
			if !ok {
				break
			}
			cl.Net.Stream(p, cl.ASUs[src].NIC, host.NIC, pk.Bytes()+64)
			runs[i] = append(runs[i], pk.Buf)
			total += pk.Len()
		}
	}
	outIdx := *stripe % len(engines)
	*stripe++
	out := container.NewStream(fmt.Sprintf("xmerge%d", *stripe), engines[outIdx], recSize)
	outBuf := records.NewPooled(total, recSize) // fully written below, then engine-owned
	records.Merge(outBuf, len(runs), func(i int, _ records.Buffer) (records.Buffer, bool) {
		if len(runs[i]) == 0 {
			return records.Buffer{}, false
		}
		next := runs[i][0]
		runs[i] = runs[i][1:]
		return next, true
	})
	ops := float64(total) * (touch + cluster.Log2(len(group))*cm.CompareOps)
	res.HostOps += ops
	host.Compute(p, ops)
	cl.Net.Stream(p, host.NIC, cl.ASUs[outIdx].NIC, outBuf.Bytes()+64)
	out.Append(p, container.Packet{Buf: outBuf, Sorted: true, Bucket: -1, Run: *stripe})
	// The merged group's blocks are fully copied into outBuf; recycle their
	// storage for the next merge group (nothing aliases them any more).
	for _, st := range group {
		st.FreeAll()
	}
	return out
}
