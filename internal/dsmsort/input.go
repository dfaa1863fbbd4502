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
// simulator clock is advanced and the writes flushed before return). A
// packetRecords below 1 is a programming error and panics; MakeInputNamed,
// the entry point for user-supplied sizes, returns it as an error.
func MakeInput(cl *cluster.Cluster, n int, dist records.KeyDist, seed int64, packetRecords int) *Input {
	return mustLoad(loadInput(cl, n, records.NewGenerator(seed, dist, dist, n), packetRecords))
}

// MakeInputHalves generates the Figure 10 workload (first half from first,
// second half from second) striped across ASUs so that, scanned in
// parallel, the skewed half arrives in the second half of the run.
func MakeInputHalves(cl *cluster.Cluster, n int, first, second records.KeyDist, seed int64, packetRecords int) *Input {
	return mustLoad(loadInput(cl, n, records.NewGenerator(seed, first, second, n/2), packetRecords))
}

func mustLoad(in *Input, err error) *Input {
	if err != nil {
		panic(err)
	}
	return in
}

// MakeInputNamed builds an input from a distribution name — the vocabulary
// shared by the CLIs and the bench harness: uniform, exp, zipf, sorted, or
// halves (uniform then exponential, the Figure 10 shift workload).
func MakeInputNamed(cl *cluster.Cluster, n int, dist string, seed int64, packetRecords int) (*Input, error) {
	var first records.KeyDist
	switch dist {
	case "uniform":
		first = records.Uniform{}
	case "exp":
		first = records.Exponential{}
	case "zipf":
		first = records.Zipf{}
	case "sorted":
		first = &records.Sorted{}
	case "halves":
		return loadInput(cl, n, records.NewGenerator(seed, records.Uniform{}, records.Exponential{}, n/2), packetRecords)
	default:
		return nil, fmt.Errorf("dsmsort: unknown distribution %q", dist)
	}
	return loadInput(cl, n, records.NewGenerator(seed, first, first, n), packetRecords)
}

// loadInput generates n records from gen straight into pooled packets, one
// packet at a time, digesting each into the input checksum before its
// ownership moves into an ASU's set: no buffer of all n records exists.
func loadInput(cl *cluster.Cluster, n int, gen *records.Generator, packetRecords int) (*Input, error) {
	if packetRecords < 1 {
		return nil, fmt.Errorf("dsmsort: packet records must be >= 1")
	}
	if n < 0 {
		return nil, fmt.Errorf("dsmsort: record count must be >= 0")
	}
	in := &Input{N: n}
	recSize, d := cl.Params.RecordSize, len(cl.ASUs)
	for _, asu := range cl.ASUs {
		set := container.NewSet(fmt.Sprintf("input@%s", asu.Name), bte.NewDisk(asu.Disk), recSize)
		in.Sets = append(in.Sets, set)
	}
	cl.Sim.Spawn("load-input", func(p *sim.Proc) {
		// Stripe packets round-robin: ASU i holds packets i, i+d, ...
		// Striping by packet keeps each ASU's share an unbiased sample
		// of the whole input over time, so a temporal distribution
		// shift (Figure 10) hits all ASUs simultaneously.
		for pi, off := 0, 0; off < n; pi, off = pi+1, off+packetRecords {
			buf := records.NewPooled(min(packetRecords, n-off), recSize)
			gen.Fill(buf)
			in.Checksum.Add(buf)
			in.Sets[pi%d].Add(p, container.NewPacket(buf))
		}
		for _, set := range in.Sets {
			set.Flush(p)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		return nil, fmt.Errorf("dsmsort: input load failed: %w", err)
	}
	return in, nil
}

// Free releases all remaining input packet storage back to the buffer pool.
// Call after the run (and any validation) completes; harmless on inputs
// already drained by destructive scans.
func (in *Input) Free() {
	for _, set := range in.Sets {
		set.FreeAll()
	}
}
