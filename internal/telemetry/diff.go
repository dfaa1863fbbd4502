package telemetry

import (
	"fmt"
	"math"
)

// DiffOptions sets the relative-regression thresholds. A field regresses
// when (new-base)/base exceeds its threshold — only slowdowns regress;
// improvements are reported but never fail a diff.
type DiffOptions struct {
	// RuntimeThreshold is the allowed relative increase in total runtime
	// (0.10 = 10%).
	RuntimeThreshold float64
	// P99Threshold is the allowed relative increase in any latency
	// histogram's p99; <= 0 disables the p99 gate.
	P99Threshold float64
}

// DefaultDiffOptions gates runtime at 10% and leaves p99 informational.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{RuntimeThreshold: 0.10}
}

// DiffEntry is one compared field.
type DiffEntry struct {
	Run       string  `json:"run"`
	Field     string  `json:"field"`
	Base      float64 `json:"base"`
	New       float64 `json:"new"`
	Delta     float64 `json:"delta"` // relative: (new-base)/base, 0 when base is 0
	Regressed bool    `json:"regressed"`
	Note      string  `json:"note,omitempty"`
}

// DiffResult is the full field-by-field comparison of two report sets.
type DiffResult struct {
	Entries []DiffEntry `json:"entries"`
	// Missing lists runs present in only one side (matched by name).
	Missing []string `json:"missing,omitempty"`
}

// Regressed reports whether any compared field exceeded its threshold.
func (d *DiffResult) Regressed() bool {
	for _, e := range d.Entries {
		if e.Regressed {
			return true
		}
	}
	return false
}

func relDelta(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / base
}

// Diff compares two report sets run-by-run (matched by name) and field by
// field. Runtime and latency p99s are gated by opt; counters and node mean
// utilizations are compared informationally. Config or seed mismatches are
// flagged as notes, not regressions — a deliberate reconfiguration should
// not masquerade as a performance change, but the reader must see it.
func Diff(base, new *Trajectory, opt DiffOptions) *DiffResult {
	res := &DiffResult{}
	baseByName := make(map[string]*RunReport, len(base.Runs))
	for _, r := range base.Runs {
		baseByName[r.Name] = r
	}
	seen := make(map[string]bool, len(new.Runs))
	for _, nr := range new.Runs {
		seen[nr.Name] = true
		br, ok := baseByName[nr.Name]
		if !ok {
			res.Missing = append(res.Missing, fmt.Sprintf("run %q only in new", nr.Name))
			continue
		}
		diffRun(res, br, nr, opt)
	}
	for _, br := range base.Runs {
		if !seen[br.Name] {
			res.Missing = append(res.Missing, fmt.Sprintf("run %q only in base", br.Name))
		}
	}
	return res
}

func diffRun(res *DiffResult, br, nr *RunReport, opt DiffOptions) {
	name := nr.Name
	if br.Config != nr.Config {
		res.Entries = append(res.Entries, DiffEntry{
			Run: name, Field: "config",
			Note: "cluster config differs; value comparisons may not be like-for-like",
		})
	}
	if br.Seed != nr.Seed {
		res.Entries = append(res.Entries, DiffEntry{
			Run: name, Field: "seed",
			Base: float64(br.Seed), New: float64(nr.Seed),
			Note: "seed differs",
		})
	}

	// The headline gate: total simulated runtime.
	d := relDelta(float64(br.RuntimeNs), float64(nr.RuntimeNs))
	res.Entries = append(res.Entries, DiffEntry{
		Run: name, Field: "runtime_sec",
		Base: br.RuntimeSec, New: nr.RuntimeSec, Delta: round6(d),
		Regressed: opt.RuntimeThreshold > 0 && d > opt.RuntimeThreshold,
	})

	// Latency p99s (reported in seconds), gated when a threshold is set.
	baseL := make(map[string]int64, len(br.Latencies))
	for _, l := range br.Latencies {
		baseL[l.Name] = l.P99Ns
	}
	for _, nl := range nr.Latencies {
		bp99, ok := baseL[nl.Name]
		if !ok {
			continue
		}
		d := relDelta(float64(bp99), float64(nl.P99Ns))
		res.Entries = append(res.Entries, DiffEntry{
			Run: name, Field: nl.Name + ".p99",
			Base: float64(bp99) / 1e9, New: float64(nl.P99Ns) / 1e9, Delta: round6(d),
			Regressed: opt.P99Threshold > 0 && d > opt.P99Threshold,
		})
	}

	// Counters: informational — a changed packet or ops count signals a
	// behavior change worth a look even when runtime holds.
	baseC := make(map[string]int64, len(br.Counters))
	for _, c := range br.Counters {
		baseC[c.Name] = c.Value
	}
	for _, nc := range nr.Counters {
		bv, ok := baseC[nc.Name]
		if !ok || bv == nc.Value {
			continue
		}
		res.Entries = append(res.Entries, DiffEntry{
			Run: name, Field: nc.Name,
			Base: float64(bv), New: float64(nc.Value),
			Delta: round6(relDelta(float64(bv), float64(nc.Value))),
			Note:  "counter changed",
		})
	}

	// Node mean utilizations: informational, absolute delta in the note
	// (relative deltas mislead near zero).
	baseN := make(map[string]NodeReport, len(br.Nodes))
	for _, n := range br.Nodes {
		baseN[n.Name] = n
	}
	for _, nn := range nr.Nodes {
		bn, ok := baseN[nn.Name]
		if !ok || bn.CPU == nil || nn.CPU == nil {
			continue
		}
		if math.Abs(nn.CPU.Mean-bn.CPU.Mean) < 0.01 {
			continue
		}
		res.Entries = append(res.Entries, DiffEntry{
			Run: name, Field: nn.Name + ".cpu.mean",
			Base: bn.CPU.Mean, New: nn.CPU.Mean,
			Delta: round6(nn.CPU.Mean - bn.CPU.Mean),
			Note:  "mean CPU utilization changed (absolute delta)",
		})
	}
}
