package dsmsort

import (
	"fmt"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// Input is a data set striped across the ASUs, "with the input data
// initially distributed across the ASUs" as in the Figure 9 experiment.
type Input struct {
	Sets     []*container.Set // one per ASU, on that ASU's disk
	N        int
	Checksum records.Checksum
}

// MakeInput generates n records from dist and stripes them packet-by-packet
// across the cluster's ASUs. Loading happens outside measured time (the
// simulator clock is advanced and the writes flushed before return).
func MakeInput(cl *cluster.Cluster, n int, dist records.KeyDist, seed int64, packetRecords int) *Input {
	buf := records.Generate(n, cl.Params.RecordSize, seed, dist)
	return loadInput(cl, buf, packetRecords)
}

// MakeInputHalves generates the Figure 10 workload (first half from first,
// second half from second) striped across ASUs so that, scanned in
// parallel, the skewed half arrives in the second half of the run.
func MakeInputHalves(cl *cluster.Cluster, n int, first, second records.KeyDist, seed int64, packetRecords int) *Input {
	buf := records.GenerateHalves(n, cl.Params.RecordSize, seed, first, second)
	return loadInput(cl, buf, packetRecords)
}

// MakeInputNamed builds an input from a distribution name — the vocabulary
// shared by the CLIs and the bench harness: uniform, exp, zipf, sorted, or
// halves (uniform then exponential, the Figure 10 shift workload).
func MakeInputNamed(cl *cluster.Cluster, n int, dist string, seed int64, packetRecords int) (*Input, error) {
	switch dist {
	case "uniform":
		return MakeInput(cl, n, records.Uniform{}, seed, packetRecords), nil
	case "exp":
		return MakeInput(cl, n, records.Exponential{}, seed, packetRecords), nil
	case "zipf":
		return MakeInput(cl, n, records.Zipf{}, seed, packetRecords), nil
	case "sorted":
		return MakeInput(cl, n, &records.Sorted{}, seed, packetRecords), nil
	case "halves":
		return MakeInputHalves(cl, n, records.Uniform{}, records.Exponential{}, seed, packetRecords), nil
	default:
		return nil, fmt.Errorf("dsmsort: unknown distribution %q", dist)
	}
}

func loadInput(cl *cluster.Cluster, buf records.Buffer, packetRecords int) *Input {
	if packetRecords < 1 {
		panic("dsmsort: packetRecords must be >= 1")
	}
	n := buf.Len()
	in := &Input{N: n}
	in.Checksum.Add(buf)
	d := len(cl.ASUs)
	for _, asu := range cl.ASUs {
		set := container.NewSet(fmt.Sprintf("input@%s", asu.Name), bte.NewDisk(asu.Disk), cl.Params.RecordSize)
		in.Sets = append(in.Sets, set)
	}
	cl.Sim.Spawn("load-input", func(p *sim.Proc) {
		// Stripe packets round-robin: ASU i holds packets i, i+d, ...
		// Striping by packet keeps each ASU's share an unbiased sample
		// of the whole input over time, so a temporal distribution
		// shift (Figure 10) hits all ASUs simultaneously.
		for pi, off := 0, 0; off < n; pi, off = pi+1, off+packetRecords {
			hi := off + packetRecords
			if hi > n {
				hi = n
			}
			// ClonePooled: the copy's ownership transfers into the set's
			// engine; the generator's master buffer never enters the pool.
			pk := container.NewPacket(buf.Slice(off, hi).ClonePooled())
			in.Sets[pi%d].Add(p, pk)
		}
		for _, set := range in.Sets {
			set.Flush(p)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		panic(fmt.Sprintf("dsmsort: input load failed: %v", err))
	}
	return in
}

// Free releases all remaining input packet storage back to the buffer pool.
// Call after the run (and any validation) completes; harmless on inputs
// already drained by destructive scans.
func (in *Input) Free() {
	for _, set := range in.Sets {
		set.FreeAll()
	}
}
