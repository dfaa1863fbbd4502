// Package loadmgr implements system-level load management for active
// storage (Section 3.3): predicting the effect of offloading computation to
// ASUs so the system can "configure the application to match hardware
// capabilities and load conditions", and choosing configurations
// adaptively. The dynamic record-routing half of load management lives in
// package route; this package covers the configuration half — "the system
// can adjust the computation to the degree of parallelism available, even
// when that parallelism is asymmetric".
package loadmgr

import (
	"fmt"
	"math"

	"lmas/internal/cluster"
	"lmas/internal/critpath"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// Pass1Model predicts the throughput of DSM-Sort's run-formation pass from
// the cluster parameters and cost model — the analytic counterpart of the
// emulation, used to pick configurations without running them. The bounds
// on functor cost that the programming model exposes ("known bounds on
// functor computation cost per unit of I/O") are exactly what makes this
// prediction possible.
type Pass1Model struct {
	Params cluster.Params
}

// Rates decomposes a placement's predicted throughput (records/second) per
// resource: the slowest resource is the analytic bottleneck the emulation's
// observed critical path can be checked against. A zero rate means the
// placement does not exercise that resource class.
type Rates struct {
	ASUCPU  float64 `json:"asu_cpu,omitempty"`
	HostCPU float64 `json:"host_cpu"`
	Disk    float64 `json:"disk"`
	Net     float64 `json:"net"`
}

// Bottleneck reports the limiting resource class and its rate: the smallest
// nonzero rate, ties going to the earlier class in (asu-cpu, host-cpu, disk,
// net) order.
func (r Rates) Bottleneck() (critpath.Class, float64) {
	best, bestRate := critpath.Class(""), math.Inf(1)
	consider := func(c critpath.Class, rate float64) {
		if rate > 0 && rate < bestRate {
			best, bestRate = c, rate
		}
	}
	consider(critpath.ClassASUCPU, r.ASUCPU)
	consider(critpath.ClassHostCPU, r.HostCPU)
	consider(critpath.ClassDisk, r.Disk)
	consider(critpath.ClassNet, r.Net)
	return best, bestRate
}

// Min reports the limiting rate.
func (r Rates) Min() float64 {
	_, rate := r.Bottleneck()
	return rate
}

// ActiveRates decomposes the active placement's predicted throughput:
// distribute and collect on the ASUs, block sort on the hosts.
func (m Pass1Model) ActiveRates(alpha, beta int) Rates {
	p := m.Params
	touchH := p.Costs.Touch(cluster.Host, p.RecordSize)
	touchA := p.Costs.Touch(cluster.ASU, p.RecordSize)
	asuOps := p.HostOpsPerSec / p.C
	// Per-record ASU work: distribute (touch + log2 alpha compares) plus
	// run collection (touch).
	asuPerRec := (touchA + cluster.Log2(alpha)*p.Costs.CompareOps) + touchA
	// Per-record host work: block sort.
	hostPerRec := touchH + cluster.Log2(beta)*p.Costs.CompareOps
	return Rates{
		ASUCPU:  float64(p.ASUs) * asuOps / asuPerRec,
		HostCPU: float64(p.Hosts) * p.HostOpsPerSec / hostPerRec,
		Disk:    m.diskRate(),
		Net:     m.netRate(),
	}
}

// ActiveRate predicts records/second for the active placement: distribute
// and collect on the ASUs, block sort on the hosts.
func (m Pass1Model) ActiveRate(alpha, beta int) float64 {
	return m.ActiveRates(alpha, beta).Min()
}

// ConventionalRates decomposes the baseline placement's predicted
// throughput: everything fused on the hosts, dumb storage streaming raw
// blocks (no ASU CPU component).
func (m Pass1Model) ConventionalRates(alpha, beta int) Rates {
	p := m.Params
	touchH := p.Costs.Touch(cluster.Host, p.RecordSize)
	hostPerRec := touchH + (cluster.Log2(alpha)+cluster.Log2(beta))*p.Costs.CompareOps
	return Rates{
		HostCPU: float64(p.Hosts) * p.HostOpsPerSec / hostPerRec,
		Disk:    m.diskRate(),
		Net:     m.netRate(),
	}
}

// ConventionalRate predicts records/second for the baseline placement:
// everything fused on the hosts, dumb storage streaming raw blocks.
func (m Pass1Model) ConventionalRate(alpha, beta int) float64 {
	return m.ConventionalRates(alpha, beta).Min()
}

// diskRate is the aggregate storage streaming rate in records/second; the
// data makes a read and a write pass, halving effective throughput.
func (m Pass1Model) diskRate() float64 {
	p := m.Params
	return float64(p.ASUs) * p.DiskRate / float64(p.RecordSize) / 2
}

// netRate bounds throughput by the host interfaces, which every record
// crosses twice (in to sort, out to collect).
func (m Pass1Model) netRate() float64 {
	p := m.Params
	return float64(p.Hosts) * p.NetBandwidth / float64(p.RecordSize) / 2
}

// PredictSpeedup is the predicted Figure 9 value for one configuration.
func (m Pass1Model) PredictSpeedup(alpha, beta int) float64 {
	return m.ActiveRate(alpha, beta) / m.ConventionalRate(alpha, beta)
}

// ChooseAlpha picks the candidate distribute order with the best predicted
// active-placement speedup — the "adaptive" series of Figure 9, where the
// system "configure[s] the application to balance load and make the best
// use of available processing power". Ties go to the smaller alpha (less
// ASU buffer pressure).
func ChooseAlpha(p cluster.Params, candidates []int, beta int) int {
	return ChooseAlphaAudited(nil, 0, p, candidates, beta)
}

// ChooseAlphaAudited is ChooseAlpha with a decision-log entry: each
// candidate's predicted speedup lands as a reading, and the chosen alpha as
// the detail, timestamped at now. A nil registry makes it plain ChooseAlpha.
func ChooseAlphaAudited(reg *telemetry.Registry, now sim.Time, p cluster.Params, candidates []int, beta int) int {
	if len(candidates) == 0 {
		panic("loadmgr: no alpha candidates")
	}
	m := Pass1Model{Params: p}
	best, bestSp := candidates[0], math.Inf(-1)
	readings := make([]telemetry.Reading, 0, len(candidates))
	for _, a := range candidates {
		sp := m.PredictSpeedup(a, beta)
		readings = append(readings, telemetry.Reading{
			Key: fmt.Sprintf("predicted-speedup.alpha=%d", a), Value: sp,
		})
		if sp > bestSp+1e-12 {
			best, bestSp = a, sp
		}
	}
	reg.Decide(now, "loadmgr.choose-alpha", "select-parameter",
		fmt.Sprintf("alpha=%d (beta=%d)", best, beta), readings...)
	return best
}

// SaturationASUs predicts the number of ASUs at which the hosts saturate
// for a given configuration: beyond this point adding ASUs stops helping
// ("This experiment uses one host, which saturates at 16 ASUs").
func SaturationASUs(p cluster.Params, alpha, beta int) int {
	touchH := p.Costs.Touch(cluster.Host, p.RecordSize)
	touchA := p.Costs.Touch(cluster.ASU, p.RecordSize)
	asuOps := p.HostOpsPerSec / p.C
	asuPerRec := (touchA + cluster.Log2(alpha)*p.Costs.CompareOps) + touchA
	hostRate := float64(p.Hosts) * p.HostOpsPerSec / (touchH + cluster.Log2(beta)*p.Costs.CompareOps)
	perASU := asuOps / asuPerRec
	return int(math.Ceil(hostRate / perASU))
}

// Imbalance summarizes how unevenly a set of utilization traces loaded
// their nodes: the mean absolute utilization spread across the first n
// windows (n <= 0 means the longest trace). Zero means perfectly balanced —
// the load-managed ideal of Figure 10.
func Imbalance(traces []*telemetry.UtilTrace, n int) float64 {
	if len(traces) < 2 {
		return 0
	}
	if n <= 0 {
		for _, tr := range traces {
			if tr.Len() > n {
				n = tr.Len()
			}
		}
	}
	if n == 0 {
		return 0
	}
	var total float64
	for w := 0; w < n; w++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, tr := range traces {
			u := tr.At(w)
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
		}
		total += hi - lo
	}
	return total / float64(n)
}

// ImbalanceSeries is Imbalance over already-serialized utilization series
// (one windowed utilization slice per node, as stored in a RunReport), so
// report viewers can recompute load skew without the live traces. Series
// shorter than the comparison horizon read as idle (utilization 0).
func ImbalanceSeries(series [][]float64, n int) float64 {
	if len(series) < 2 {
		return 0
	}
	if n <= 0 {
		for _, s := range series {
			if len(s) > n {
				n = len(s)
			}
		}
	}
	if n == 0 {
		return 0
	}
	var total float64
	for w := 0; w < n; w++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range series {
			u := 0.0
			if w < len(s) {
				u = s[w]
			}
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
		}
		total += hi - lo
	}
	return total / float64(n)
}
