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
	PacketsIn, RecordsIn int64
	OpsCharged           float64
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
	outputs   int // times an output was set; Run wants exactly one
	instances []*Instance
	producers int // input producers not yet finished
}

// Instances returns the stage's placed instances (valid once Run starts).
func (st *Stage) Instances() []*Instance { return st.instances }

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
	Packets   int64
	NetBytes  int64
	CrossNode int64
}

func (e *Edge) deliver(ctx *Ctx, pk container.Packet) {
	info := route.PacketInfo{Bucket: pk.Bucket, Records: pk.Len()}
	dest := e.to.instances[e.policy.Pick(info, e.eps)]
	if dest.Node != ctx.Node {
		size := pk.Bytes() + packetHeaderBytes
		ctx.Cluster.Net.Stream(ctx.Proc, ctx.Node.NIC, dest.Node.NIC, size)
		e.NetBytes += int64(size)
		e.CrossNode++
	}
	e.Packets++
	if err := dest.In.Put(ctx.Proc, pk); err != nil {
		// Unreachable: inboxes close once every courier, this one too, called producerDone.
		ctx.Proc.Fail(fmt.Errorf("deliver to closed inbox %s: %w", dest.Label(), err))
	}
	// Sparse backlog sampling: a gauge point every 64th delivery, recorded
	// by the delivering proc — no observer runs as a proc of its own.
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
		// Unreachable: Run counts one producer per courier, and each calls this once.
		ctx.Proc.Fail(fmt.Errorf("too many producerDone on stage %s", st.Name))
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
	// Done, if set, runs (in scheduler context) when the terminal
	// stage's last instance finishes — the pipeline-completion hook that
	// lets co-resident workloads (e.g. foreground storage clients in the
	// isolation experiments) wind down.
	Done func()

	producers int
}

func (d *Discard) deliver(ctx *Ctx, pk container.Packet) {
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
	ran     bool
}

// NewPipeline creates an empty pipeline on cl.
func NewPipeline(cl *cluster.Cluster) *Pipeline {
	return &Pipeline{cl: cl}
}

// Stages returns the declared stages in declaration order.
func (p *Pipeline) Stages() []*Stage { return p.stages }

// AddStage declares a stage replicated across nodes. Connect its output
// with ConnectTo or Terminal before Run.
func (p *Pipeline) AddStage(name string, nodes []*cluster.Node, newKernel func() Kernel) *Stage {
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
	st.out = o
	st.outputs++
}

// source feeds a container scan into an edge from a given node.
type source struct {
	name   string
	node   *cluster.Node
	scan   *container.Scan
	out    *Edge
	outbox *sim.Queue[container.Packet] // set by Run, for queue telemetry
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

// place checks the graph and materializes its instances and edges. It
// registers nothing with the cluster until the whole graph has passed.
func (p *Pipeline) place() error {
	if p.ran {
		return fmt.Errorf("functor: pipeline already ran")
	}
	p.ran = true
	for _, st := range p.stages {
		switch {
		case len(st.Nodes) == 0:
			return fmt.Errorf("functor: stage %s has no placement nodes", st.Name)
		case st.outputs == 0:
			return fmt.Errorf("functor: stage %s has no output; call ConnectTo or Terminal", st.Name)
		case st.outputs > 1:
			return fmt.Errorf("functor: stage %s output set %d times, want once", st.Name, st.outputs)
		}
		cap := st.InboxPackets
		if cap <= 0 {
			cap = DefaultInboxPackets
		}
		for i, n := range st.Nodes {
			k := st.NewKernel()
			// ASUs are shared infrastructure: only prevalidated kernels
			// may run there (Section 3.1's constraint, and the basis for
			// the isolation guarantees).
			if _, ok := k.(ASUEligible); !ok && n.Kind == cluster.ASU {
				return fmt.Errorf("functor: kernel %q is not ASU-eligible but stage %s places it on %s",
					k.Name(), st.Name, n.Name)
			}
			in := sim.NewQueue[container.Packet](p.cl.Sim, fmt.Sprintf("%s#%d.in", st.Name, i), cap)
			st.instances = append(st.instances, &Instance{Stage: st, Node: n, Index: i, In: in, kernel: k})
		}
	}
	// Resolve edge endpoints and producer counts.
	for _, st := range p.stages {
		if e, ok := st.out.(*Edge); ok {
			e.resolve()
		}
		st.out.addProducer(len(st.instances))
	}
	for _, src := range p.sources {
		src.out.resolve()
		src.out.addProducer(1)
	}
	return nil
}

// spawn starts every proc of a placed pipeline.
func (p *Pipeline) spawn() {
	// Every producer (source or instance) gets a courier that
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
		p.cl.Sim.Spawn(src.name, func(proc *sim.Proc) {
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
					// Unreachable: only this proc closes the outbox, after its last Put.
					proc.Fail(err)
				}
				pf.EndPacket(proc)
			}
			outbox.Close()
		})
		courier := p.spawnCourier(fmt.Sprintf("%s.courier%d", src.name, i), stage, src.node, outbox, src.out)
		if pf != nil {
			pf.BlameWaitProc(outbox.Name()+" not-full", courier, edgeBlame(src.out))
		}
	}
	for _, st := range p.stages {
		for _, inst := range st.instances {
			inst := inst
			inst.out = sim.NewQueue[container.Packet](p.cl.Sim, inst.Label()+".out", outboxPackets)
			instProc := p.cl.Sim.Spawn(inst.Label(), func(proc *sim.Proc) { inst.run(proc) })
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
	return p.cl.Sim.Spawn(name, func(proc *sim.Proc) {
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
	for _, in := range e.to.instances {
		e.eps = append(e.eps, in)
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
		if err := in.out.Put(proc, pk); err != nil {
			// Unreachable: the outbox closes only after Flush, the kernel's last emit, returns.
			proc.Fail(err)
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

// Run places the pipeline, spawns its procs and runs the cluster's simulator
// (with any procs already spawned on it) until it drains, returning the
// elapsed virtual time. A stage with no placement nodes, without exactly one
// output, or placing an unmarked kernel on an ASU is an error naming the
// stage, as is a second Run; either returns before any proc is spawned. With
// telemetry attached, per-stage totals are flushed to counters at the end.
func (p *Pipeline) Run() (sim.Duration, error) {
	if err := p.place(); err != nil {
		return 0, err
	}
	start := p.cl.Sim.Now()
	p.spawn()
	if err := p.cl.Sim.Run(); err != nil {
		return 0, fmt.Errorf("functor: %w", err)
	}
	p.flushTelemetry()
	return sim.Duration(p.cl.Sim.Now() - start), nil
}

// flushTelemetry records each stage's totals as counters on the cluster's
// registry. No-op without telemetry.
func (p *Pipeline) flushTelemetry() {
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
		srcBytes += src.out.NetBytes
		srcCross += src.out.CrossNode
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
		p.cl.FlushQueueStats(src.outbox)
	}
}
