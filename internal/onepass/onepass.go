// Package onepass implements a NOW-Sort / HPVM MinuteSort-style one-pass
// disk-to-disk sort, the cluster-sorting design the paper positions itself
// against (Section 7): "It uses sort nodes with more memory and CPU, and
// I/O nodes with more disks. The I/O nodes distribute records to the sort
// nodes which then sort and return them. Most of the work in this system
// is done on the sort nodes; the I/O nodes are statically selected to
// partition the data."
//
// In our model the ASUs play the I/O nodes (they distribute by sampled
// splitters, so the partition is balanced) and the hosts play the sort
// nodes (each receives one key range, sorts it entirely in memory, and
// writes it back striped). One pass over the data — but only while the
// whole input fits in the sort nodes' aggregate memory, which is exactly
// the scaling limitation DSM-Sort's two-pass structure removes.
package onepass

import (
	"fmt"
	"sort"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/functor"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// Config parameterizes the one-pass sort.
type Config struct {
	// SampleSize is the number of keys sampled to choose the host
	// splitters (balance under skew).
	SampleSize int
	// PacketRecords sizes interconnect packets.
	PacketRecords int
	// Headroom derates usable sort-node memory (sampling error means a
	// range can exceed n/H); input must satisfy
	// n <= Headroom * H * HostMemRecords. Default 0.8.
	Headroom float64
	Seed     int64
}

// ErrTooLarge reports an input exceeding the sort nodes' memory: the
// one-pass design's hard wall.
type ErrTooLarge struct {
	N, Capacity int
}

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("onepass: %d records exceed aggregate sort-node memory of %d", e.N, e.Capacity)
}

// Result reports a completed one-pass sort.
type Result struct {
	Elapsed sim.Duration
	// HostRecords counts records sorted per host (balance check).
	HostRecords []int64
}

// Sort performs the one-pass sort of in on cl, validating the output.
func Sort(cl *cluster.Cluster, cfg Config, in *dsmsort.Input) (*Result, error) {
	if cfg.SampleSize < 1 {
		cfg.SampleSize = 1024
	}
	if cfg.PacketRecords < 1 {
		return nil, fmt.Errorf("onepass: packet size must be >= 1")
	}
	if cfg.Headroom <= 0 || cfg.Headroom > 1 {
		cfg.Headroom = 0.8
	}
	h := len(cl.Hosts)
	capacity := int(cfg.Headroom * float64(h*cl.Params.HostMemRecords))
	if in.N > capacity {
		return nil, &ErrTooLarge{N: in.N, Capacity: capacity}
	}
	recSize := cl.Params.RecordSize

	// Splitter selection: sample keys from the stored input. The sample
	// read is charged (one packet per ASU), the selection runs on host 0.
	var sampleKeys []records.Key
	cl.Sim.Spawn("sample", func(p *sim.Proc) {
		per := cfg.SampleSize/len(in.Sets) + 1
		for i, set := range in.Sets {
			sc := set.Scan(i, false)
			pk, ok := sc.Next(p)
			if !ok {
				continue
			}
			cl.Net.Stream(p, cl.ASUs[i].NIC, cl.Hosts[0].NIC, pk.Bytes()+64)
			for r := 0; r < pk.Len() && r < per; r++ {
				sampleKeys = append(sampleKeys, pk.Buf.Key(r))
			}
		}
		cl.Hosts[0].Compute(p, float64(len(sampleKeys))*cluster.CeilLog2(len(sampleKeys))*cl.Params.Costs.CompareOps)
	})
	if err := cl.Sim.Run(); err != nil {
		return nil, fmt.Errorf("onepass: %w", err)
	}
	if len(sampleKeys) == 0 {
		return nil, fmt.Errorf("onepass: empty input")
	}
	sort.Slice(sampleKeys, func(i, j int) bool { return sampleKeys[i] < sampleKeys[j] })
	splitters := make([]records.Key, h-1)
	for i := range splitters {
		splitters[i] = sampleKeys[(i+1)*len(sampleKeys)/h]
	}

	// Pipeline: ASU distribute (sampled splitters, one range per host)
	// -> host memory sort -> collect striped on ASUs.
	pl := functor.NewPipeline(cl)
	dist := pl.AddStage("distribute", cl.ASUs, func() functor.Kernel {
		return functor.Adapt(&functor.Distribute{Splitters: splitters}, recSize, cfg.PacketRecords)
	})
	// Each sort node buffers at most its memory's worth of records; if
	// sampling error overflows a range, the range emits multiple runs
	// and validation below reports the overlap — the design's hard wall
	// made visible.
	srt := pl.AddStage("memsort", cl.Hosts, func() functor.Kernel {
		return functor.NewBlockSort(cl.Params.HostMemRecords, recSize)
	})
	var outs []container.Packet
	collect := pl.AddStage("collect", cl.ASUs, func() functor.Kernel {
		return &functor.Sink{Label: "sorted", Fn: func(ctx *functor.Ctx, pk container.Packet) {
			outs = append(outs, pk)
			// Striped write to local storage.
			ctx.Node.Disk.Write(ctx.Proc, pk.Bytes())
		}}
	})
	dist.ConnectTo(srt, route.Static{Buckets: h})
	srt.ConnectTo(collect, &route.RoundRobin{})
	collect.Terminal()
	for i, set := range in.Sets {
		pl.AddSource(fmt.Sprintf("read@asu%d", i), cl.ASUs[i], set.Scan(i, false), dist, route.Pin(i))
	}
	elapsed, err := pl.Run()
	if err != nil {
		return nil, err
	}

	// Validation: one sorted run per host range, ranges ordered, full
	// multiset.
	res := &Result{Elapsed: elapsed, HostRecords: make([]int64, h)}
	var sum records.Checksum
	var total int
	sort.Slice(outs, func(i, j int) bool { return outs[i].Bucket < outs[j].Bucket })
	var last records.Key
	haveLast := false
	for _, pk := range outs {
		if !pk.Buf.IsSorted() {
			return nil, fmt.Errorf("onepass: unsorted output for range %d", pk.Bucket)
		}
		if pk.Len() == 0 {
			continue
		}
		if haveLast && pk.Buf.Key(0) < last {
			return nil, fmt.Errorf("onepass: range %d overlaps previous", pk.Bucket)
		}
		last = pk.Buf.Key(pk.Len() - 1)
		haveLast = true
		sum.Add(pk.Buf)
		total += pk.Len()
		if pk.Bucket >= 0 && pk.Bucket < h {
			res.HostRecords[pk.Bucket] += int64(pk.Len())
		}
	}
	if total != in.N || !sum.Equal(in.Checksum) {
		return nil, fmt.Errorf("onepass: output %d records / checksum mismatch (want %d)", total, in.N)
	}
	// Memory bound respected per host?
	for hi, n := range res.HostRecords {
		if n > int64(cl.Params.HostMemRecords) {
			return nil, fmt.Errorf("onepass: host %d held %d records, memory is %d", hi, n, cl.Params.HostMemRecords)
		}
	}
	// Validation done; recycle the retained output packets.
	for i := range outs {
		outs[i].Release()
	}
	return res, nil
}
