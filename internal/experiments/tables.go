package experiments

import (
	"fmt"

	"lmas/internal/dsmsort"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// GammaRow is one γ2 (Spec.Sort.Gamma2) of TAB-GAMMA, the merge split: how
// dividing the γ-way merge between ASUs (γ2) and hosts (γ1) balances the
// merge pass. Smaller γ2 forces extra local merge levels on the ASUs; larger
// γ2 does the reduction in one level.
type GammaRow struct {
	Spec
	Merge dsmsort.MergeResult
}

// Gamma runs the full active sort — run formation, the timed merge pass,
// validation — and keeps the merge pass's measurements.
func Gamma(row GammaRow) (GammaRow, error) {
	row.Sort.Placement = dsmsort.Active
	sorted, err := sortCell(row.Spec)
	if err != nil {
		return row, fmt.Errorf("gamma g2=%d: %w", row.Sort.Gamma2, err)
	}
	row.Merge = *sorted.Merge
	return row, nil
}

// RoutingRow is one policy of TAB-ROUTE, the routing ablation: the Figure 10
// workload (uniform keys, then exponentially skewed ones of mean SkewMean)
// under that policy.
type RoutingRow struct {
	Spec
	Policy    string // route.ByName vocabulary
	SkewMean  float64
	Elapsed   sim.Duration
	Imbalance float64
}

// Routing measures run formation on the skewed workload under row's policy.
func Routing(row RoutingRow) (RoutingRow, error) {
	cfg := row.Sort
	cfg.Placement = dsmsort.Active
	var err error
	if cfg.SortPolicy, err = route.ByName(row.Policy, cfg.Alpha, cfg.Seed); err != nil {
		return row, err
	}
	cl, err := bareCluster(row.Params)
	if err != nil {
		return row, fmt.Errorf("routing %s: %w", row.Policy, err)
	}
	r1, err := formRuns(cl, row.N, row.SkewMean, cfg)
	if err != nil {
		return row, fmt.Errorf("routing %s: %w", row.Policy, err)
	}
	row.Elapsed = r1.Elapsed
	_, row.Imbalance = hostImbalance(cl, r1.Elapsed)
	return row, nil
}

// HybridRow is one ASU count of TAB-HYBRID: the functor-migration placement
// ("load management may... migrate functors between host nodes and ASUs",
// Section 3.3) against the two static placements across the Figure 9
// x-axis. Active and Hybrid are speedups over the conventional placement.
type HybridRow struct {
	Spec
	Active, Hybrid float64
	HostShare      float64 // fraction of records hybrid distributed on the hosts
}

// Hybrid measures run formation under all three placements.
func Hybrid(row HybridRow) (HybridRow, error) {
	rs, err := pass1Cells(row.Spec, dsmsort.Conventional, dsmsort.Active, dsmsort.Hybrid)
	if err != nil {
		return row, fmt.Errorf("hybrid d=%d: %w", row.Params.ASUs, err)
	}
	conv := rs[0].Elapsed.Seconds()
	row.Active, row.Hybrid = conv/rs[1].Elapsed.Seconds(), conv/rs[2].Elapsed.Seconds()
	row.HostShare = rs[2].HybridHostShare
	return row, nil
}

// PacketRow is one packet size (Spec.Sort.PacketRecords) of TAB-PACKET: how
// the packet size used on the interconnect trades message overhead against
// pipelining granularity ("the size of the packet may be limited by a memory
// bound on the ASU-resident sorting functor", Section 3.2).
type PacketRow struct {
	Spec
	Pass1Secs float64
	NetBytes  int64
	// OverheadFrac is header bytes over total interconnect bytes.
	OverheadFrac float64
}

// Packet measures the active run-formation pass.
func Packet(row PacketRow) (PacketRow, error) {
	rs, err := pass1Cells(row.Spec, dsmsort.Active)
	if err != nil {
		return row, fmt.Errorf("packet=%d: %w", row.Sort.PacketRecords, err)
	}
	r := rs[0]
	payload := int64(2*row.N) * int64(row.Params.RecordSize) // in + out
	row.Pass1Secs, row.NetBytes = r.Elapsed.Seconds(), r.NetBytes
	row.OverheadFrac = max(float64(r.NetBytes-payload)/float64(r.NetBytes), 0)
	return row, nil
}
