// Package route implements the record-routing policies that spread load
// across replicated functor instances (Section 3.3): "sets and replicated
// functors allow ASUs and host nodes to perform dataflow routing between
// functors intelligently. The routing of records across functor instances
// may be responsive to dynamic load conditions visible to the system. In
// some cases, randomized routing techniques like simple randomization (SR)
// may reduce data dependencies and interference... Routing policies may
// also consider static information about node capacity to handle
// heterogeneous processing rates."
package route

import (
	"fmt"
	"math/rand"

	"lmas/internal/telemetry"
)

// PacketInfo is the routing-relevant summary of a packet.
type PacketInfo struct {
	// Bucket is the distribute subset the packet belongs to, or -1.
	Bucket int
	// Records is the packet's record count.
	Records int
}

// Endpoint is a replicated functor instance a packet can be routed to.
type Endpoint interface {
	// Label identifies the endpoint (for diagnostics).
	Label() string
	// Pending reports the endpoint's queued backlog in packets; policies
	// use it as the dynamic load signal.
	Pending() int
}

// Policy selects the destination instance for each packet.
type Policy interface {
	Name() string
	// Pick returns the index of the chosen endpoint in eps (len >= 1).
	Pick(pk PacketInfo, eps []Endpoint) int
}

// Static partitions buckets across endpoints with a fixed assignment:
// bucket b of Buckets goes to endpoint b*len(eps)/Buckets. This is the
// paper's non-load-managed baseline in Figure 10 ("assigns half of the α
// distribute subsets to one host, and the other half to the second host");
// skewed inputs produce a poor distribution of records and a load
// imbalance.
type Static struct {
	// Buckets is the total number of distribute subsets.
	Buckets int
}

func (Static) Name() string { return "static" }

func (s Static) Pick(pk PacketInfo, eps []Endpoint) int {
	if pk.Bucket < 0 || s.Buckets <= 0 {
		return 0
	}
	i := pk.Bucket * len(eps) / s.Buckets
	if i >= len(eps) {
		i = len(eps) - 1
	}
	return i
}

// Pin routes every packet to endpoint i: a source feeding the stage instance
// on its own node.
type Pin int

func (Pin) Name() string { return "pin" }

func (f Pin) Pick(pk PacketInfo, eps []Endpoint) int { return int(f) % len(eps) }

// RoundRobin cycles through endpoints, ignoring load.
type RoundRobin struct{ next int }

func (*RoundRobin) Name() string { return "round-robin" }

func (r *RoundRobin) Pick(pk PacketInfo, eps []Endpoint) int {
	i := r.next % len(eps)
	r.next++
	return i
}

// SR is simple randomization [Vitter & Hutchinson, SODA'01]: each packet is
// routed to an endpoint chosen uniformly at random, "preserving the balance
// of records across the hosts" in expectation regardless of input skew.
type SR struct {
	rng *rand.Rand
}

// NewSR creates a simple-randomization policy seeded deterministically.
func NewSR(seed int64) *SR { return &SR{rng: rand.New(rand.NewSource(seed))} }

func (*SR) Name() string { return "sr" }

func (s *SR) Pick(pk PacketInfo, eps []Endpoint) int { return s.rng.Intn(len(eps)) }

// LoadAware routes each packet to the endpoint with the shortest backlog
// (join-shortest-queue), the most directly load-responsive policy; ties go
// to the lowest index for determinism.
type LoadAware struct{}

func (LoadAware) Name() string { return "load-aware" }

func (LoadAware) Pick(pk PacketInfo, eps []Endpoint) int {
	best, bestLen := 0, eps[0].Pending()
	for i := 1; i < len(eps); i++ {
		if l := eps[i].Pending(); l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// ByName constructs the named policy with the given parameters; it is the
// single point the CLI uses to select routing for ablations.
func ByName(name string, buckets int, seed int64) (Policy, error) {
	switch name {
	case "static":
		return Static{Buckets: buckets}, nil
	case "round-robin", "rr":
		return &RoundRobin{}, nil
	case "sr", "random":
		return NewSR(seed), nil
	case "load-aware", "jsq":
		return LoadAware{}, nil
	default:
		return nil, fmt.Errorf("route: unknown policy %q", name)
	}
}

// Counted wraps a policy and counts routing decisions per destination
// endpoint on a telemetry registry, so a RunReport records how a policy
// actually spread the load (the paper's Table 3 "poor distribution of
// records" diagnosis, made machine-readable). Counters are named
// "<prefix>.<endpoint label>.picks". A nil registry makes the wrapper
// transparent.
type Counted struct {
	Inner  Policy
	Reg    *telemetry.Registry
	Prefix string

	byEp []*telemetry.Counter
}

// Name reports the wrapped policy's name (Counted is invisible to
// policy-selection logic and decision logs).
func (c *Counted) Name() string { return c.Inner.Name() }

func (c *Counted) Pick(pk PacketInfo, eps []Endpoint) int {
	i := c.Inner.Pick(pk, eps)
	if c.Reg != nil {
		for len(c.byEp) < len(eps) {
			n := len(c.byEp)
			c.byEp = append(c.byEp, c.Reg.Counter(c.Prefix+"."+eps[n].Label()+".picks"))
		}
		c.byEp[i].Inc()
	}
	return i
}
