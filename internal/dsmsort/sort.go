package dsmsort

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// Result reports a complete two-pass DSM-Sort execution.
type Result struct {
	Pass1   *Pass1Result
	Merge   *MergeResult
	Output  *OutputStore
	Elapsed sim.Duration // pass 1 + merge
}

// Sort runs the full two-pass DSM-Sort (Figure 7: distribute/sort on the
// first pass, merge/collect on the second) over in on cl, validating the
// output against the input before returning. "Two passes are sufficient in
// practice" — and always here, because the local merge handles overflow runs
// with extra ASU-side levels.
func Sort(cl *cluster.Cluster, cfg Config, in *Input) (*Result, error) {
	rs, p1, err := RunFormation(cl, cfg, in)
	if err != nil {
		return nil, err
	}
	out, mr, err := MergePass(cl, cfg, rs)
	// The runs have been merged into out (or the pass failed and nothing
	// will read them); recycle their block storage.
	rs.Free()
	if err != nil {
		return nil, err
	}
	if err := out.Validate(in, cfg.Alpha); err != nil {
		out.Free()
		return nil, fmt.Errorf("dsmsort: output validation failed: %w", err)
	}
	return &Result{
		Pass1:   p1,
		Merge:   mr,
		Output:  out,
		Elapsed: p1.Elapsed + mr.Elapsed,
	}, nil
}

// MeasuredWork reports the CPU ops actually charged across both passes,
// split by node class — the quantity the work equation of Section 4.3
// predicts.
func (r *Result) MeasuredWork() (hostOps, asuOps float64) {
	return r.Pass1.HostOps + r.Merge.HostOps, r.Pass1.ASUOps + r.Merge.ASUOps
}
