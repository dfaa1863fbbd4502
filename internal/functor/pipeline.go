package functor

import (
	"fmt"
	"strings"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/critpath"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// DefaultInboxPackets bounds each instance's input queue; the bound models
// limited buffer memory and provides the backpressure that propagates load
// imbalances upstream.
const DefaultInboxPackets = 8

// packetHeaderBytes approximates per-message framing on the interconnect.
const packetHeaderBytes = 64

// Instance is one placed copy of a stage's kernel: a proc pinned to a node,
// consuming packets from its inbox.
type Instance struct {
	Stage *Stage
	Node  *cluster.Node
	Index int
	In    *sim.Queue[container.Packet]

	// out is the instance's bounded send buffer: the kernel emits into
	// it and a courier proc drains it through the stage's output,
	// overlapping computation with network transfer (send-side DMA).
	// Backpressure still propagates: a full outbox blocks the kernel.
	out *sim.Queue[container.Packet]

	kernel Kernel

	// Stats.
	PacketsIn, RecordsIn   int64
	PacketsOut, RecordsOut int64
	OpsCharged             float64
}

// Label identifies the instance for routing diagnostics.
func (in *Instance) Label() string {
	return fmt.Sprintf("%s#%d@%s", in.Stage.Name, in.Index, in.Node.Name)
}

// Pending reports the instance's queued backlog (route.Endpoint).
func (in *Instance) Pending() int { return in.In.Len() }

var _ route.Endpoint = (*Instance)(nil)

// Stage is a replicated computation step: one kernel instance per placement
// node. "Load management may... adjust the number of functor instances for
// a computation stage... or adjust the assignment of functor instances to
// host nodes or ASUs" (Section 3.3) — in this runtime, by choosing Nodes.
type Stage struct {
	Name  string
	Nodes []*cluster.Node
	// NewKernel builds one kernel per instance (instances hold private
	// bounded state).
	NewKernel func() Kernel
	// InboxPackets bounds each instance's input queue (0 = default).
	InboxPackets int
	// NoCPU marks a stage that spends no processor time: conventional
	// (non-active) storage whose transfers are pure DMA. Declared kernel
	// costs and touch charges are skipped; only I/O performed by the
	// kernel (disk, network) takes virtual time.
	NoCPU bool

	pipeline  *Pipeline
	out       output
	instances []*Instance
	producers int // input producers not yet finished
	started   bool
}

// Instances returns the stage's placed instances (valid after Start).
func (st *Stage) Instances() []*Instance { return st.instances }

// recordsIn reports the records the stage's instances have consumed so far.
func (st *Stage) recordsIn() int64 {
	var recs int64
	for _, inst := range st.instances {
		recs += inst.RecordsIn
	}
	return recs
}

// output receives packets produced by a stage or source.
type output interface {
	deliver(ctx *Ctx, pk container.Packet)
	producerDone(ctx *Ctx)
	addProducer(n int)
}

// Edge routes packets from producers to the instances of a destination
// stage under a routing policy, charging the interconnect for cross-node
// hops. When every producer has finished, the destination inboxes close.
type Edge struct {
	to     *Stage
	policy route.Policy

	eps []route.Endpoint

	// Stats.
	Packets, Records int64
	NetBytes         int64
	CrossNode        int64
}

func (e *Edge) deliver(ctx *Ctx, pk container.Packet) {
	if len(e.eps) == 0 {
		panic("functor: edge delivered before Start")
	}
	info := route.PacketInfo{Bucket: pk.Bucket, Records: pk.Len()}
	dest := e.to.instances[e.policy.Pick(info, e.eps)]
	if dest.Node != ctx.Node {
		size := pk.Bytes() + packetHeaderBytes
		ctx.Cluster.Net.Stream(ctx.Proc, ctx.Node.NIC, dest.Node.NIC, size)
		e.NetBytes += int64(size)
		e.CrossNode++
	}
	e.Packets++
	e.Records += int64(pk.Len())
	if err := dest.In.Put(ctx.Proc, pk); err != nil {
		panic(fmt.Sprintf("functor: deliver to closed inbox %s", dest.Label()))
	}
	// Sparse backlog sampling: a gauge point every 64th delivery, not a
	// periodic sampler proc — a sampler's trailing wakeups would extend the
	// simulated run past pipeline completion.
	if reg := e.to.pipeline.cl.Telemetry; reg != nil && e.Packets%64 == 0 {
		total := 0
		for _, ep := range e.eps {
			total += ep.Pending()
		}
		reg.Gauge("functor."+e.to.Name+".backlog").Set(ctx.Proc.Now(), float64(total))
	}
}

// SetPolicy replaces the edge's routing policy. Safe to call from any proc
// or event while the pipeline runs (the simulation is single-threaded);
// this is the lever mid-run load management pulls when it detects an
// imbalance. With telemetry attached, the switch lands in the decision
// audit log with each destination's backlog at the moment of the change.
func (e *Edge) SetPolicy(p route.Policy) {
	if reg := e.to.pipeline.cl.Telemetry; reg != nil && len(e.eps) > 0 {
		old := "none"
		if e.policy != nil {
			old = e.policy.Name()
		}
		readings := make([]telemetry.Reading, len(e.eps))
		for i, ep := range e.eps {
			readings[i] = telemetry.Reading{Key: ep.Label() + ".pending", Value: float64(ep.Pending())}
		}
		reg.Decide(e.to.pipeline.cl.Sim.Now(), "route."+e.to.Name, "set-policy",
			old+"->"+p.Name(), readings...)
	}
	e.policy = p
}

func (e *Edge) producerDone(ctx *Ctx) {
	st := e.to
	st.producers--
	if st.producers < 0 {
		panic("functor: too many producerDone on stage " + st.Name)
	}
	if st.producers == 0 {
		for _, in := range st.instances {
			in.In.Close()
		}
	}
}

func (e *Edge) addProducer(n int) { e.to.producers += n }

// Discard is an output that drops packets; terminal stages whose kernels
// perform their own side effects (e.g. writing containers) use it.
type Discard struct {
	Packets, Records int64
	// Done, if set, runs (in scheduler context) when the terminal
	// stage's last instance finishes — the pipeline-completion hook that
	// lets co-resident workloads (e.g. foreground storage clients in the
	// isolation experiments) wind down.
	Done func()

	producers int
}

func (d *Discard) deliver(ctx *Ctx, pk container.Packet) {
	d.Packets++
	d.Records += int64(pk.Len())
	pk.Release() // terminal drop: recycle owned buffers
}

func (d *Discard) producerDone(ctx *Ctx) {
	d.producers--
	if d.producers == 0 && d.Done != nil {
		d.Done()
	}
}

func (d *Discard) addProducer(n int) { d.producers += n }

// Pipeline assembles sources, stages and edges on a cluster and runs them
// to completion in virtual time.
type Pipeline struct {
	cl      *cluster.Cluster
	stages  []*Stage
	sources []*source
	started bool
}

// NewPipeline creates an empty pipeline on cl.
func NewPipeline(cl *cluster.Cluster) *Pipeline {
	return &Pipeline{cl: cl}
}

// Cluster returns the pipeline's cluster.
func (p *Pipeline) Cluster() *cluster.Cluster { return p.cl }

// Stages returns the declared stages in declaration order.
func (p *Pipeline) Stages() []*Stage { return p.stages }

// AddStage declares a stage replicated across nodes. Connect its output
// with ConnectTo or LeaveTerminal before Start.
func (p *Pipeline) AddStage(name string, nodes []*cluster.Node, newKernel func() Kernel) *Stage {
	if len(nodes) == 0 {
		panic("functor: stage " + name + " has no placement nodes")
	}
	st := &Stage{Name: name, Nodes: nodes, NewKernel: newKernel, pipeline: p}
	p.stages = append(p.stages, st)
	return st
}

// ConnectTo routes st's output to stage to under policy.
func (st *Stage) ConnectTo(to *Stage, policy route.Policy) *Edge {
	e := &Edge{to: to, policy: policy}
	st.setOut(e)
	return e
}

// Terminal marks st as a final stage; emitted packets are counted and
// dropped (the kernel is expected to produce side effects itself).
func (st *Stage) Terminal() *Discard {
	d := &Discard{}
	st.setOut(d)
	return d
}

func (st *Stage) setOut(o output) {
	if st.out != nil {
		panic("functor: stage " + st.Name + " output set twice")
	}
	st.out = o
}

// source feeds a container scan into an edge from a given node.
type source struct {
	name   string
	node   *cluster.Node
	scan   *container.Scan
	out    output
	outbox *sim.Queue[container.Packet] // set at Start, for queue telemetry
}

// AddSource spawns a reader on node that scans sc and routes every packet
// into to under policy. The scan's I/O costs are charged as the read
// proceeds; the reader spends no CPU (data moves by DMA), matching the
// conventional-storage reading path.
func (p *Pipeline) AddSource(name string, node *cluster.Node, sc *container.Scan, to *Stage, policy route.Policy) {
	// Sources into the same stage share one edge per source for stats
	// simplicity; each source is one producer.
	e := &Edge{to: to, policy: policy}
	p.sources = append(p.sources, &source{name: name, node: node, scan: sc, out: e})
}

// Start places instances and spawns all procs. The caller then runs the
// cluster's simulator; when it drains, the pipeline has completed.
func (p *Pipeline) Start() {
	if p.started {
		panic("functor: pipeline started twice")
	}
	p.started = true
	// Materialize instances.
	for _, st := range p.stages {
		if st.out == nil {
			panic("functor: stage " + st.Name + " has no output; call ConnectTo or Terminal")
		}
		cap := st.InboxPackets
		if cap <= 0 {
			cap = DefaultInboxPackets
		}
		for i, n := range st.Nodes {
			inst := &Instance{
				Stage: st,
				Node:  n,
				Index: i,
				In:    sim.NewQueue[container.Packet](p.cl.Sim, fmt.Sprintf("%s#%d.in", st.Name, i), cap),
			}
			inst.kernel = st.NewKernel()
			p.cl.WatchQueue(inst.In)
			// ASUs are shared infrastructure: only prevalidated
			// kernels may run there (Section 3.1's constraint, and
			// the basis for the isolation guarantees).
			if n.Kind == cluster.ASU {
				if _, ok := inst.kernel.(ASUEligible); !ok {
					panic(fmt.Sprintf(
						"functor: kernel %q is not ASU-eligible but stage %s places it on %s",
						inst.kernel.Name(), st.Name, n.Name))
				}
			}
			st.instances = append(st.instances, inst)
		}
	}
	for _, st := range p.stages {
		p.cl.WatchStage(st.Name, st.recordsIn)
	}
	// Resolve edge endpoints and producer counts.
	for _, st := range p.stages {
		if e, ok := st.out.(*Edge); ok {
			e.resolve()
		}
		st.out.addProducer(len(st.instances))
	}
	for _, src := range p.sources {
		e := src.out.(*Edge)
		e.resolve()
		e.addProducer(1)
	}
	// Spawn. Every producer (source or instance) gets a courier that
	// drains its outbox through the stage output, so transfers overlap
	// with reading and computing.
	//
	// Backpressure blame is registered against the consuming proc as each
	// one spawns (registration is sim-inert, so spawn order — and with it
	// scheduling — is unchanged): a producer blocked on a full inbox, or
	// on its own outbox which a slow delivery path keeps full, is being
	// slowed by whatever its consumer's time is made of, so those waits
	// are apportioned by the consumer's mix rather than parked in the
	// residual cond-wait class. Starvation waits ("not-empty") stay
	// unregistered on purpose: an instance idling for input is a signal
	// about some *other* stage, which the blamed waits upstream capture.
	pf := p.cl.Profiler
	for i, src := range p.sources {
		src := src
		outbox := sim.NewQueue[container.Packet](p.cl.Sim, fmt.Sprintf("%s.out", src.name), outboxPackets)
		src.outbox = outbox
		stage := sourceStage(src.name)
		p.cl.Sim.SpawnOn(src.node.Part, src.name, func(proc *sim.Proc) {
			// Sources spend disk time, not CPU, so queued packets behind
			// them are storage-bound.
			pf.Bind(proc, stage, src.node.Name, nodeClass(src.node), critpath.ClassDisk)
			for {
				// Start the chain before the read so the packet's I/O
				// time lands on its own provenance record.
				id := pf.StartChain(proc)
				pk, ok := src.scan.Next(proc)
				if !ok {
					pf.Abandon(proc, id)
					break
				}
				pk.Prov = id
				if err := outbox.Put(proc, pk); err != nil {
					panic(err)
				}
				pf.EndPacket(proc)
			}
			outbox.Close()
		})
		courier := p.spawnCourier(fmt.Sprintf("%s.courier%d", src.name, i), stage, src.node, outbox, src.out)
		if pf != nil {
			if e, ok := src.out.(*Edge); ok {
				pf.BlameWaitProc(outbox.Name()+" not-full", courier, edgeBlame(e))
			}
		}
	}
	for _, st := range p.stages {
		for _, inst := range st.instances {
			inst := inst
			inst.out = sim.NewQueue[container.Packet](p.cl.Sim, inst.Label()+".out", outboxPackets)
			instProc := p.cl.Sim.SpawnOn(inst.Node.Part, inst.Label(), func(proc *sim.Proc) { inst.run(proc) })
			courier := p.spawnCourier(inst.Label()+".courier", st.Name, inst.Node, inst.out, st.out)
			if pf != nil {
				pf.BlameWaitProc(inst.In.Name()+" not-full", instProc, stageBlame(st, inst.Node))
				if e, ok := st.out.(*Edge); ok {
					pf.BlameWaitProc(inst.out.Name()+" not-full", courier, edgeBlame(e))
				}
			}
		}
	}
}

// sourceStage maps a source name like "read@asu3" to its waterfall stage
// label ("read"), so per-node source rows aggregate under one stage.
func sourceStage(name string) string {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i]
	}
	return name
}

// nodeClass is the blame class of a node's processor.
func nodeClass(n *cluster.Node) critpath.Class {
	if n.Kind == cluster.Host {
		return critpath.ClassHostCPU
	}
	return critpath.ClassASUCPU
}

// stageBlame is the blame class for time spent waiting on an instance of st
// placed on node n: its processor, or storage for NoCPU (pure DMA) stages.
func stageBlame(st *Stage, n *cluster.Node) critpath.Class {
	if st.NoCPU {
		return critpath.ClassDisk
	}
	return nodeClass(n)
}

// edgeBlame is the blame class for backpressure from an edge's destination
// stage (stages place on nodes of one kind in practice, so the first
// placement node is representative).
func edgeBlame(e *Edge) critpath.Class {
	return stageBlame(e.to, e.to.Nodes[0])
}

// outboxPackets bounds each producer's send buffer.
const outboxPackets = 4

// spawnCourier moves packets from outbox into out, charging transfer costs
// on the producing node's interface; it signals producerDone when the
// outbox closes and drains. stage is the producer's waterfall stage label:
// courier time (network transfer, downstream backpressure) is part of the
// producing stage's hand-off cost. Returns the courier proc so producer-side
// outbox waits can be blamed by its mix (the courier's time is network plus
// destination-inbox backpressure, exactly what a full outbox means).
func (p *Pipeline) spawnCourier(name, stage string, node *cluster.Node, outbox *sim.Queue[container.Packet], out output) *sim.Proc {
	ctx := &Ctx{Cluster: p.cl, Node: node}
	pf := p.cl.Profiler
	return p.cl.Sim.SpawnOn(node.Part, name, func(proc *sim.Proc) {
		ctx.Proc = proc
		pf.Bind(proc, stage, node.Name, nodeClass(node), nodeClass(node))
		for {
			pk, ok := outbox.Get(proc)
			if !ok {
				break
			}
			pf.BeginPacket(proc, pk.Prov)
			out.deliver(ctx, pk)
			pf.EndPacket(proc)
		}
		out.producerDone(ctx)
	})
}

func (e *Edge) resolve() {
	if e.eps != nil {
		return
	}
	for _, in := range e.to.instances {
		e.eps = append(e.eps, in)
	}
	if len(e.eps) == 0 {
		panic("functor: edge to stage " + e.to.Name + " with no instances")
	}
}

// run is an instance's main loop: charge the node for each packet's
// declared cost, process it, and flush at end of input.
func (in *Instance) run(proc *sim.Proc) {
	ctx := &Ctx{Cluster: in.Stage.pipeline.cl, Node: in.Node, Proc: proc, Instance: in}
	cm := ctx.Cluster.Params.Costs
	touch := ctx.Cluster.Touch(in.Node)
	// Telemetry instruments (nil when telemetry is off; Observe no-ops).
	var waitH, svcH, latH *telemetry.LatencyHistogram
	if reg := ctx.Cluster.Telemetry; reg != nil {
		waitH = reg.Latency("functor." + in.Stage.Name + ".queue_wait")
		svcH = reg.Latency("functor." + in.Stage.Name + ".service")
		latH = reg.Latency("functor." + in.Stage.Name + ".latency")
	}
	pf := ctx.Cluster.Profiler
	pf.Bind(proc, in.Stage.Name, in.Node.Name, nodeClass(in.Node), stageBlame(in.Stage, in.Node))
	emit := func(pk container.Packet) {
		if pf != nil && pk.Prov == 0 {
			// A freshly produced packet (rather than a re-emitted input)
			// derives its chain from the one being processed, or — for
			// Flush-time emissions — the last one this instance handled.
			pk.Prov = pf.Derive(proc)
		}
		in.PacketsOut++
		in.RecordsOut += int64(pk.Len())
		if err := in.out.Put(proc, pk); err != nil {
			panic(err)
		}
	}
	proc.TraceBegin("stage "+in.Stage.Name, "functor", trace.Str("node", in.Node.Name))
	for {
		pk, ok := in.In.Get(proc)
		if !ok {
			break
		}
		pf.BeginPacket(proc, pk.Prov)
		// The inbox keeps each packet's enqueue instant; nothing ran between
		// the Get taking pk and here.
		svcStart := proc.Now()
		wait := in.In.LastWait()
		waitH.Observe(wait)
		pf.ChargeQueueTime(proc, svcStart.Add(-wait), svcStart)
		in.PacketsIn++
		in.RecordsIn += int64(pk.Len())
		proc.TraceBegin("packet", "functor", trace.Int("records", int64(pk.Len())))
		if !in.Stage.NoCPU {
			ops := cm.PacketOps + float64(pk.Len())*(touch+in.kernel.Compares(pk)*cm.CompareOps)
			in.OpsCharged += ops
			in.Node.Compute(proc, ops)
		}
		in.kernel.Process(ctx, pk, emit)
		svc := sim.Duration(proc.Now() - svcStart)
		svcH.Observe(svc)
		latH.Observe(wait + svc)
		proc.TraceEnd()
		pf.EndPacket(proc)
	}
	in.kernel.Flush(ctx, emit)
	in.out.Close() // the courier signals producerDone after draining
	proc.TraceEnd(trace.Int("packets", in.PacketsIn), trace.Int("records", in.RecordsIn))
}

// Run is a convenience: Start the pipeline and run the simulator to
// completion, returning the elapsed virtual time. With telemetry attached,
// per-stage totals (packets, records, ops, cross-node traffic) are flushed
// to counters when the pipeline drains.
func (p *Pipeline) Run() (sim.Duration, error) {
	start := p.cl.Sim.Now()
	p.Start()
	if err := p.cl.Sim.Run(); err != nil {
		return 0, err
	}
	p.FlushTelemetry()
	return sim.Duration(p.cl.Sim.Now() - start), nil
}

// FlushTelemetry records each stage's totals as counters on the cluster's
// registry. Run calls it automatically; callers driving Start and the
// simulator themselves should call it once the pipeline has drained. No-op
// without telemetry.
func (p *Pipeline) FlushTelemetry() {
	reg := p.cl.Telemetry
	if reg == nil {
		return
	}
	for _, st := range p.stages {
		var pks, recs int64
		var ops float64
		for _, inst := range st.instances {
			pks += inst.PacketsIn
			recs += inst.RecordsIn
			ops += inst.OpsCharged
		}
		pre := "functor." + st.Name
		reg.Counter(pre + ".packets").Add(pks)
		reg.Counter(pre + ".records").Add(recs)
		reg.Counter(pre + ".ops").Add(int64(ops))
		if e, ok := st.out.(*Edge); ok {
			reg.Counter(pre + ".out.net_bytes").Add(e.NetBytes)
			reg.Counter(pre + ".out.cross_node").Add(e.CrossNode)
		}
	}
	var srcBytes, srcCross int64
	for _, src := range p.sources {
		if e, ok := src.out.(*Edge); ok {
			srcBytes += e.NetBytes
			srcCross += e.CrossNode
		}
	}
	reg.Counter("functor.sources.net_bytes").Add(srcBytes)
	reg.Counter("functor.sources.cross_node").Add(srcCross)
	// Per-queue wait accounting for every inbox and outbox.
	for _, st := range p.stages {
		for _, inst := range st.instances {
			p.cl.FlushQueueStats(inst.In)
			p.cl.FlushQueueStats(inst.out)
		}
	}
	for _, src := range p.sources {
		if src.outbox != nil {
			p.cl.FlushQueueStats(src.outbox)
		}
	}
}
