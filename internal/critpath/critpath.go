// Package critpath is a virtual-time latency-attribution engine: it tags
// every packet flowing through a pipeline with a provenance chain and, at
// each hand-off, charges the elapsed interval to a resource class on a
// specific node. At end of run it aggregates a per-stage × per-node
// waterfall, extracts the critical path — the longest dependency chain of
// charged intervals from first read to last write — and emits a bottleneck
// verdict (the resource class with the largest share of attributed packet
// latency across all chains) that can be diffed against the analytic
// prediction of loadmgr.Pass1Model.
//
// The profiler is a pure observer, nil-by-default like trace.Sink. It is the
// sim's Profiler, charged by the sim package alone: a device's sim.Timeline
// charges a disk or network wait when the proc blocks, a Resource its CPU
// holds and queueing when they end, a Cond its waits when they end. The
// pipeline layer adds explicit chain bookkeeping. Attaching it never changes
// virtual-time behaviour — the same seed completes at the same instant with
// or without it.
//
// Accounting model. A chain is the life of one packet lineage: it is
// "current" on at most one proc at a time, and charges against a chain are
// clamped to be non-overlapping (each charge starts no earlier than the
// previous one ended). That yields the per-chain conservation identity
//
//	span == attributed + gap,  gap >= 0
//
// where span is the chain's end minus its birth and gap is time the chain
// spent with nobody working on it (buffered in a queue with no consumer
// chain bookkeeping, or idle between hand-offs).
//
// Blame model. Raw charge kinds go to the waterfall unchanged; chain totals
// are blamed on the resource *behind* the time. CPU service and CPU queueing
// are blamed on the node's processor class, disk and network transfers on
// those devices. Waits are blamed transitively: every proc accrues a "mix" of
// where its own time has gone, and time spent waiting *for* a proc — a
// producer blocked on its full queue, or a packet buffered in its inbox — is
// apportioned by the consumer's mix. A stage that is itself backpressured by
// a saturated host therefore forwards the blame downstream instead of
// absorbing it, so the verdict names the saturated resource no matter how
// many hops of queueing sit between it and the latency. Waits with no
// registered consumer (starvation on an empty queue) stay in the residual
// cond-wait class and never enter a mix.
package critpath

import (
	"fmt"

	"lmas/internal/sim"
)

// Class is a blame class: the resource (or residual wait category) an
// interval of a chain's life is attributed to.
type Class string

// The blame classes. The first four are physical resources and are the only
// candidates for a bottleneck verdict; the last two are residual wait
// categories that appear when time cannot be pinned on a resource.
const (
	ClassHostCPU   Class = "host-cpu"
	ClassASUCPU    Class = "asu-cpu"
	ClassDisk      Class = "disk"
	ClassNet       Class = "net"
	ClassQueueWait Class = "queue-wait"
	ClassCondWait  Class = "cond-wait"
)

const (
	classHostCPU = iota
	classASUCPU
	classDisk
	classNet
	classQueueWait
	classCondWait
	numClasses
)

var classNames = [numClasses]Class{
	ClassHostCPU, ClassASUCPU, ClassDisk, ClassNet, ClassQueueWait, ClassCondWait,
}

func classIndex(c Class) int {
	for i, n := range classNames {
		if n == c {
			return i
		}
	}
	panic(fmt.Sprintf("critpath: unknown class %q", c))
}

// row accumulates raw charge kinds for one (stage, node) cell of the
// waterfall.
type row struct {
	stage, node string
	kinds       [sim.NumChargeKinds]int64
	charges     int64
}

type rowKey struct{ stage, node string }

// procState is the attribution state of one bound proc.
type procState struct {
	row *row
	// cpu is the blame class for CPU service and CPU queueing on this
	// proc's node (host-cpu or asu-cpu).
	cpu int
	// wait is the blame class for time packets spend queued waiting for
	// this proc (the stage's dominant service resource).
	wait int
	// cur is the chain this proc is currently working on (0 = none);
	// last is the most recent chain it worked on, the derivation parent
	// for packets emitted outside any current chain (e.g. from Flush).
	cur, last int32
	// mix is the proc's own blamed-time decomposition — service time,
	// processor queueing, and backpressure waits already pinned on a
	// resource — independent of any chain. Waits *for* this proc are
	// apportioned by it: if the proc's own time is mostly downstream
	// backpressure, time queued in front of it is mostly the downstream
	// resource's fault too, which is what carries blame transitively to
	// the saturated stage. Residual (unregistered) waits stay out, so a
	// starved proc's idle time never dilutes the apportioning.
	mix      [numClasses]int64
	mixTotal int64
}

// mixWindow bounds the mix's memory: whenever the accrued total crosses it,
// every entry is halved, turning the mix into an exponentially-decayed
// sliding window of roughly this much recent proc time. Without decay the
// ramp-up phase (no backpressure yet, so waits blame the local processor)
// would bias apportioning for the rest of the run; with it the mix tracks
// the current regime. Runs shorter than the window never decay.
const mixWindow = int64(4 << 20) // ~4.2ms of proc time

func (st *procState) addMix(cls int, d int64) {
	st.mix[cls] += d
	st.mixTotal += d
	if st.mixTotal >= mixWindow {
		st.mixTotal = 0
		for c := range st.mix {
			st.mix[c] /= 2
			st.mixTotal += st.mix[c]
		}
	}
}

// chain is one packet lineage's accounting record.
type chain struct {
	parent  int32
	dead    bool
	born    sim.Time
	end     sim.Time // latest charged instant
	lastEnd sim.Time // non-overlap clamp: next charge starts here or later
	ns      [numClasses]int64
}

// Profiler implements sim.Profiler and the chain bookkeeping the pipeline
// layer drives. All methods are safe on a nil *Profiler (no-ops), so call
// sites can stay unconditional; the sim-level charge path is still gated by
// the sim's single profiler pointer check.
type Profiler struct {
	procs   map[*sim.Proc]*procState
	rows    map[rowKey]*row
	rowList []*row // creation order; sorted at Report time
	chains  []chain
	blame   map[string]int // cond name -> fallback blame class for waits on it
	// blameProc maps a cond name to the proc whose service the wait is
	// backpressure from; waits are apportioned by that proc's mix.
	blameProc map[string]*sim.Proc
	charges   int64
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{
		procs:     make(map[*sim.Proc]*procState),
		rows:      make(map[rowKey]*row),
		blame:     make(map[string]int),
		blameProc: make(map[string]*sim.Proc),
	}
}

var _ sim.Profiler = (*Profiler)(nil)

func (pf *Profiler) row(stage, node string) *row {
	k := rowKey{stage, node}
	r := pf.rows[k]
	if r == nil {
		r = &row{stage: stage, node: node}
		pf.rows[k] = r
		pf.rowList = append(pf.rowList, r)
	}
	return r
}

// Bind registers p as belonging to stage on node. cpuClass is the blame
// class of the node's processor (host-cpu or asu-cpu); waitBlame is the
// class charged for time packets spend queued waiting for this proc —
// normally the same as cpuClass, or disk for NoCPU stages whose service is
// pure storage DMA. Unbound procs (input loaders, monitors) are ignored by
// every charge.
func (pf *Profiler) Bind(p *sim.Proc, stage, node string, cpuClass, waitBlame Class) {
	if pf == nil {
		return
	}
	pf.procs[p] = &procState{
		row:  pf.row(stage, node),
		cpu:  classIndex(cpuClass),
		wait: classIndex(waitBlame),
	}
}

// BlameWaitProc declares that condition waits on the named cond (e.g. an
// inbox's "not-full" backpressure cond) are backpressure from consumer, not
// the residual cond-wait class. Producer-side blocking on a full queue is how a
// saturated consumer slows the pipeline; charging it to the consumer is what
// lets the verdict name the saturated resource. The waits are apportioned
// across blame classes in proportion to where the consumer proc's own time has
// gone so far (its mix). That carries blame transitively — when the consumer
// is itself mostly blocked on a stage further downstream, waits on its queue
// land mostly on that downstream resource, not on the consumer's processor.
// Until the consumer has accrued any mix, or when consumer is nil, waits go to
// the static class cls.
func (pf *Profiler) BlameWaitProc(name string, consumer *sim.Proc, cls Class) {
	if pf == nil {
		return
	}
	pf.blame[name] = classIndex(cls)
	pf.blameProc[name] = consumer
}

// apportion splits d across blame classes in proportion to mix. Shares use
// float64 against int64 overflow on long runs; the rounding remainder goes to
// the largest class, keeping the split deterministic and summing to d.
func apportion(d int64, mix *[numClasses]int64, total int64) [numClasses]int64 {
	var v [numClasses]int64
	used := int64(0)
	best := -1
	for c := 0; c < numClasses; c++ {
		if mix[c] == 0 {
			continue
		}
		share := int64(float64(d) * (float64(mix[c]) / float64(total)))
		v[c] = share
		used += share
		if best < 0 || mix[c] > mix[best] {
			best = c
		}
	}
	if best >= 0 {
		v[best] += d - used
		if v[best] < 0 {
			v[best] = 0
		}
	}
	return v
}

// Charge implements sim.Profiler: proc p was blocked by (or served by) res
// for [from, to) of virtual time. Raw kinds accumulate on the proc's
// (stage, node) waterfall row; if the proc has a current chain the interval
// is additionally blamed on a class and charged to the chain.
func (pf *Profiler) Charge(p *sim.Proc, kind sim.ChargeKind, res string, from, to sim.Time) {
	if to <= from {
		return
	}
	st := pf.procs[p]
	if st == nil {
		return
	}
	st.row.kinds[kind] += int64(to - from)
	st.row.charges++
	pf.charges++
	d := int64(to - from)
	var cls int
	switch kind {
	case sim.ChargeCPU, sim.ChargeQueueWait:
		// Service on, or queueing for, this node's processor.
		cls = st.cpu
	case sim.ChargeDisk:
		cls = classDisk
	case sim.ChargeNet:
		cls = classNet
	default: // sim.ChargeCondWait
		if cst := pf.procs[pf.blameProc[res]]; cst != nil && cst.mixTotal > 0 {
			// Dynamic backpressure blame: split by the consumer's mix.
			v := apportion(d, &cst.mix, cst.mixTotal)
			for c, ns := range v {
				if ns > 0 {
					st.addMix(c, ns)
				}
			}
			if st.cur != 0 {
				pf.chargeChainVec(st.cur, &v, from, to)
			}
			return
		}
		if b, ok := pf.blame[res]; ok {
			cls = b
		} else {
			// Residual wait: pins no resource and stays out of the mix.
			if st.cur != 0 {
				pf.chargeChain(st.cur, classCondWait, from, to)
			}
			return
		}
	}
	st.addMix(cls, d)
	if st.cur != 0 {
		pf.chargeChain(st.cur, cls, from, to)
	}
}

// ChargeQueueTime charges the interval a packet spent buffered in the
// consuming proc's inbox: raw queue-wait on the consumer's waterfall row,
// blamed in proportion to where the consumer's own time goes (its mix) — a
// packet queued in front of a busy stage waits on whatever that stage's
// service cycle is made of, so inbox wait in front of a backpressured
// consumer propagates to the downstream resource actually responsible. Falls
// back to the consumer's static service class until a mix accrues. Call after
// BeginPacket so the charge lands on the packet's chain.
func (pf *Profiler) ChargeQueueTime(p *sim.Proc, from, to sim.Time) {
	if pf == nil || to <= from {
		return
	}
	st := pf.procs[p]
	if st == nil {
		return
	}
	st.row.kinds[sim.ChargeQueueWait] += int64(to - from)
	st.row.charges++
	pf.charges++
	if st.cur == 0 {
		return
	}
	if st.mixTotal > 0 {
		v := apportion(int64(to-from), &st.mix, st.mixTotal)
		pf.chargeChainVec(st.cur, &v, from, to)
		return
	}
	pf.chargeChain(st.cur, st.wait, from, to)
}

// chargeChain adds [from, to) to chain id under cls, clamped so charges on
// one chain never overlap: the clamp is what makes the per-chain
// conservation identity (span == attributed + gap, gap >= 0) hold by
// construction.
func (pf *Profiler) chargeChain(id int32, cls int, from, to sim.Time) {
	ch := &pf.chains[id-1]
	if from < ch.lastEnd {
		from = ch.lastEnd
	}
	if to <= from {
		return
	}
	ch.ns[cls] += int64(to - from)
	ch.lastEnd = to
	if to > ch.end {
		ch.end = to
	}
}

// chargeChainVec charges an apportioned class vector to chain id under the
// same non-overlap clamp as chargeChain; when the clamp shortens the interval
// the vector is re-apportioned over the shorter duration so the chain is
// never charged more than the clamped time.
func (pf *Profiler) chargeChainVec(id int32, v *[numClasses]int64, from, to sim.Time) {
	ch := &pf.chains[id-1]
	if from < ch.lastEnd {
		from = ch.lastEnd
	}
	if to <= from {
		return
	}
	d := int64(to - from)
	var total int64
	for _, ns := range v {
		total += ns
	}
	w := *v
	if total != d && total > 0 {
		w = apportion(d, v, total)
	}
	for c, ns := range w {
		ch.ns[c] += ns
	}
	ch.lastEnd = to
	if to > ch.end {
		ch.end = to
	}
}

func (pf *Profiler) newChain(p *sim.Proc, parent int32) int32 {
	born := p.Now()
	pf.chains = append(pf.chains, chain{parent: parent, born: born, end: born, lastEnd: born})
	return int32(len(pf.chains))
}

// StartChain creates a new root chain born now and makes it p's current
// chain. Sources call it before reading each packet so the read's I/O time
// lands on the packet's chain. The returned id goes into Packet.Prov.
func (pf *Profiler) StartChain(p *sim.Proc) int32 {
	if pf == nil {
		return 0
	}
	st := pf.procs[p]
	if st == nil {
		return 0
	}
	id := pf.newChain(p, 0)
	st.cur, st.last = id, id
	return id
}

// Derive creates a new chain born now whose parent is p's current chain (or,
// when p is between packets, the last chain it worked on). The emitting proc
// keeps working on the parent; the derived id travels with the emitted
// packet and becomes current on whichever proc picks it up.
func (pf *Profiler) Derive(p *sim.Proc) int32 {
	if pf == nil {
		return 0
	}
	st := pf.procs[p]
	if st == nil {
		return 0
	}
	parent := st.cur
	if parent == 0 {
		parent = st.last
	}
	return pf.newChain(p, parent)
}

// BeginPacket makes chain id current on p: subsequent charges against p are
// charged to the chain. id 0 (an unchained packet) clears the current chain.
func (pf *Profiler) BeginPacket(p *sim.Proc, id int32) {
	if pf == nil {
		return
	}
	if st := pf.procs[p]; st != nil {
		st.cur = id
	}
}

// EndPacket ends p's work on its current chain. Every loop must call it
// before blocking for its next input, so a chain is never current on a proc
// that is merely waiting for unrelated work.
func (pf *Profiler) EndPacket(p *sim.Proc) {
	if pf == nil {
		return
	}
	if st := pf.procs[p]; st != nil {
		if st.cur != 0 {
			st.last = st.cur
		}
		st.cur = 0
	}
}

// Abandon marks chain id dead — created speculatively (a source starts a
// chain before discovering its scan is exhausted) — and clears it from p.
// Dead chains keep their waterfall charges but are excluded from chain
// counts, conservation, and the critical path.
func (pf *Profiler) Abandon(p *sim.Proc, id int32) {
	if pf == nil || id == 0 {
		return
	}
	pf.chains[id-1].dead = true
	if st := pf.procs[p]; st != nil {
		if st.cur == id {
			st.cur = 0
		}
		if st.last == id {
			st.last = 0
		}
	}
}

// classNodeCounts reports how many resource instances back each blame class:
// distinct nodes whose procs bind that processor class, distinct nodes with
// disk charges, and one shared interconnect for net. The verdict divides
// blame by these so parallel resources are not over-weighted.
func (pf *Profiler) classNodeCounts() [numClasses]int {
	var sets [numClasses]map[string]struct{}
	add := func(c int, node string) {
		if sets[c] == nil {
			sets[c] = make(map[string]struct{})
		}
		sets[c][node] = struct{}{}
	}
	for _, st := range pf.procs {
		add(st.cpu, st.row.node)
	}
	for _, r := range pf.rowList {
		if r.kinds[sim.ChargeDisk] > 0 {
			add(classDisk, r.node)
		}
	}
	var out [numClasses]int
	for c := range sets {
		out[c] = len(sets[c])
	}
	out[classNet] = 1
	return out
}

// NumChains reports the number of live (non-abandoned) chains.
func (pf *Profiler) NumChains() int {
	if pf == nil {
		return 0
	}
	n := 0
	for i := range pf.chains {
		if !pf.chains[i].dead {
			n++
		}
	}
	return n
}

// Conservation verifies the accounting identity on every live chain: charges
// are non-overlapping, so attributed time never exceeds the chain's span and
// span == attributed + gap with gap >= 0. It returns the first violation.
func (pf *Profiler) Conservation() error {
	if pf == nil {
		return nil
	}
	for i := range pf.chains {
		ch := &pf.chains[i]
		if ch.dead {
			continue
		}
		var attr int64
		for _, v := range ch.ns {
			attr += v
		}
		span := int64(ch.end - ch.born)
		if span < 0 {
			return fmt.Errorf("critpath: chain %d ends at %v before its birth %v", i+1, ch.end, ch.born)
		}
		if attr > span {
			return fmt.Errorf("critpath: chain %d attributes %dns over a span of %dns", i+1, attr, span)
		}
		if ch.lastEnd > ch.end {
			return fmt.Errorf("critpath: chain %d lastEnd %v beyond end %v", i+1, ch.lastEnd, ch.end)
		}
	}
	return nil
}
