package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/functor"
	"lmas/internal/records"
	"lmas/internal/route"
)

// FilterRow is one selectivity of TAB-FILTER, the canonical active-storage
// win the paper's background motivates: "Filtering and aggregation
// operations performed directly at the ASUs can reduce data movement across
// the interconnect, helping to overcome bandwidth limitations" (Section 2).
// A selection scan keeps the records whose key falls below a threshold;
// executing the filter on the ASUs ships only matches to the host, while
// conventional storage ships everything. Of Spec.Sort only the packet size
// and the seed are read.
type FilterRow struct {
	Spec
	Selectivity float64 // the fraction of records that match
	// ActiveSecs / ConvSecs are the scan times per placement.
	ActiveSecs, ConvSecs float64
	// ActiveNetMB / ConvNetMB are interconnect volumes.
	ActiveNetMB, ConvNetMB float64
	Matches                int64
}

// Filter measures the selection scan in both placements, validating each
// one's match count against a direct count and the two against each other.
func Filter(row FilterRow) (FilterRow, error) {
	if err := row.Params.Validate(); err != nil {
		return row, fmt.Errorf("filter: %w", err)
	}
	threshold := records.Key(float64(records.MaxKey) * row.Selectivity)
	var err error
	var matches int64
	if row.ActiveSecs, row.ActiveNetMB, row.Matches, err = filterScan(row.Spec, threshold, true); err != nil {
		return row, fmt.Errorf("filter sel=%g onASU=true: %w", row.Selectivity, err)
	}
	if row.ConvSecs, row.ConvNetMB, matches, err = filterScan(row.Spec, threshold, false); err != nil {
		return row, fmt.Errorf("filter sel=%g onASU=false: %w", row.Selectivity, err)
	}
	if matches != row.Matches {
		return row, fmt.Errorf("filter sel=%g: placements disagree: %d vs %d matches", row.Selectivity, row.Matches, matches)
	}
	return row, nil
}

func filterScan(s Spec, threshold records.Key, onASU bool) (secs, netMB float64, matches int64, err error) {
	cl := cluster.New(s.Params)
	recSize, packetRecords := s.Params.RecordSize, s.Sort.PacketRecords

	// Load the data set striped across the ASUs and count expected
	// matches directly as each packet is stored (the validation oracle).
	var want int64
	gen := records.NewGenerator(s.Sort.Seed, records.Uniform{}, records.Uniform{}, s.N)
	sets, err := stripeSets(cl, s.N, gen, packetRecords, func(buf records.Buffer) {
		for i := 0; i < buf.Len(); i++ {
			if buf.Key(i) < threshold {
				want++
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}

	pl := functor.NewPipeline(cl)
	newFilter := func() functor.Kernel {
		return functor.Adapt(&functor.Filter{
			Keep: func(k records.Key) bool { return k < threshold },
		}, recSize, packetRecords)
	}
	var got int64
	consume := pl.AddStage("consume", cl.Hosts, func() functor.Kernel {
		return &functor.Sink{Label: "matches", Fn: func(ctx *functor.Ctx, pk container.Packet) {
			got += int64(pk.Len())
			pk.Release() // counted, not stored
		}}
	})
	consume.Terminal()
	// The filter stage lives on the ASUs, fed by the scan on its own node, or
	// — conventionally — on the host, which raw blocks reach round-robin.
	nodes := cl.Hosts
	if onASU {
		nodes = cl.ASUs
	}
	filter := pl.AddStage("filter", nodes, newFilter)
	filter.ConnectTo(consume, &route.RoundRobin{})
	for i, set := range sets {
		var toFilter route.Policy = &route.RoundRobin{}
		if onASU {
			toFilter = route.Pin(i)
		}
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(i, false), filter, toFilter)
	}
	elapsed, err := pl.Run()
	if err != nil {
		return 0, 0, 0, err
	}
	if got != want {
		return 0, 0, 0, fmt.Errorf("matched %d records, want %d", got, want)
	}
	var net int64
	for _, asu := range cl.ASUs {
		_, _, sent, _ := asu.NIC.Stats()
		net += sent
	}
	return elapsed.Seconds(), float64(net) / 1e6, got, nil
}
