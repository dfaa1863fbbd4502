// Package cluster assembles the emulated active-storage system of the
// paper's Figure 2: D Active Storage Units (each a processor plus disk) and
// H hosts (each a processor plus large memory), connected by a SAN.
//
// The defining parameter is c, the ratio of host to ASU processing power
// (the paper evaluates c = 4 and c = 8). Computation is charged in abstract
// "ops"; a node converts ops to virtual time through its ops/second rating.
// This replaces the paper's native-execution-plus-cycle-counter measurement
// with a calibrated analytic cost model (see DESIGN.md, "Substitutions"),
// keeping runs deterministic and platform-independent while preserving the
// load-balance behaviour under study.
package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"lmas/internal/critpath"
	"lmas/internal/disk"
	"lmas/internal/netsim"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// NodeKind distinguishes hosts from ASUs.
type NodeKind int

const (
	// Host is a dedicated compute node with a large memory.
	Host NodeKind = iota
	// ASU is an active storage unit: disk plus (possibly weak) processor.
	ASU
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "asu"
}

// CostModel assigns op counts to the primitive actions of streaming
// computation. One "op" is roughly one key comparison; the paper's work
// equation for DSM-Sort counts log2(parameter) compares per record per
// stage, and per-record handling covers buffer management and record
// movement around each comparison stage.
type CostModel struct {
	// CompareOps is the cost of one key comparison.
	CompareOps float64
	// HostTouchOps is the per-record handling cost each time a host
	// stage receives, moves, or emits a record (buffering, copying).
	HostTouchOps float64
	// ASUTouchOps is the per-record handling cost at an ASU stage
	// (reading from or appending to local storage, packet assembly).
	ASUTouchOps float64
	// ByteOps is the per-byte cost of record movement through a stage
	// (often the leading drain on host CPU, per Section 1). Applied in
	// addition to the Touch costs.
	ByteOps float64
	// PacketOps is the fixed per-packet handling cost at a stage
	// (message dispatch, buffer management); it is what makes very
	// small packets expensive (TAB-PACKET).
	PacketOps float64
}

// DefaultCosts is the calibrated cost model used by the experiments.
var DefaultCosts = CostModel{
	CompareOps:   1,
	HostTouchOps: 4,
	ASUTouchOps:  5,
	ByteOps:      0.04, // 128-byte record ~ 5 extra ops per touch
	PacketOps:    10,
}

// Touch reports the per-record handling cost on a node of kind k for
// records of the given size.
func (c CostModel) Touch(k NodeKind, recordSize int) float64 {
	base := c.HostTouchOps
	if k == ASU {
		base = c.ASUTouchOps
	}
	return base + c.ByteOps*float64(recordSize)
}

// Log2 is the compare count the paper's work equation assigns to an n-way
// hierarchical operation, per record ("log(parameter) is the number of
// compares per key", Section 4.3): log2(n), zero below 2.
func Log2(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n))
}

// CeilLog2 is the whole-compare variant, ceil(log2(n)), charged by the
// structures that count binary-search or heap levels (external priority
// queue, one-pass splitter selection, R-tree bulk sort). The two variants
// give different virtual times, so callers keep the one they were
// calibrated with.
func CeilLog2(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(bits.Len(uint(n - 1)))
}

// Params configures an emulated system.
type Params struct {
	Hosts int // H: number of hosts
	ASUs  int // D: number of ASUs

	// C is the host/ASU processing power ratio (paper: 4 or 8).
	C float64
	// HostOpsPerSec rates host processors; ASU rating is this divided
	// by C.
	HostOpsPerSec float64

	// DiskRate is each ASU's aggregate sequential transfer rate, bytes/s.
	DiskRate float64
	// DiskSeek is the positioning time charged on cold (non-sequential)
	// reads; sequential streaming amortizes it away, random index
	// lookups pay it per access.
	DiskSeek sim.Duration
	// NetBandwidth is each interface's bandwidth in bytes/s. Per the
	// paper's assumption, the default is high enough that processors
	// saturate before links.
	NetBandwidth float64
	// NetLatency is the per-message propagation latency.
	NetLatency sim.Duration

	// HostMemRecords / ASUMemRecords bound buffer space in records: the
	// available memory limits the sort run length β on hosts, and ASU
	// buffer space restricts the distribute order α and merge order γ
	// (Section 4.3).
	HostMemRecords int
	ASUMemRecords  int

	RecordSize int
	Costs      CostModel

	// UtilWindow is the window width of the per-node CPU, disk and NIC
	// utilization traces — the one place it is set. Positive: every cluster
	// built from these Params has the traces (Figure 10 reads them off a
	// bare cluster). Zero: a cluster built with Observers.Telemetry has
	// them at 100ms, a bare one has none.
	UtilWindow sim.Duration

	// IsolationQuantum, when positive, enables performance isolation
	// (the paper's stated future work): functor computation holds a CPU
	// for at most one quantum at a time, and foreground storage
	// requests (Node.ServeRequest) are admitted at high priority, so
	// offloaded computation cannot starve storage access for other
	// applications. Zero disables isolation: functor work holds the CPU
	// for its full duration.
	IsolationQuantum sim.Duration
}

// DefaultParams returns the baseline configuration used throughout the
// experiments: one host, eight ASUs at c=8, 128-byte records.
func DefaultParams() Params {
	return Params{
		Hosts:          1,
		ASUs:           8,
		C:              8,
		HostOpsPerSec:  40e6,
		DiskRate:       90e6,
		DiskSeek:       5 * sim.Millisecond,
		NetBandwidth:   1000e6,
		NetLatency:     20 * sim.Microsecond,
		HostMemRecords: 1 << 20,
		ASUMemRecords:  1 << 15,
		RecordSize:     128,
		Costs:          DefaultCosts,
	}
}

// Validate reports whether the parameters describe a buildable system.
func (p Params) Validate() error {
	switch {
	case p.Hosts < 1:
		return fmt.Errorf("cluster: need at least one host, have %d", p.Hosts)
	case p.ASUs < 1:
		return fmt.Errorf("cluster: need at least one ASU, have %d", p.ASUs)
	case p.C <= 0:
		return fmt.Errorf("cluster: power ratio c must be positive, have %g", p.C)
	case p.HostOpsPerSec <= 0:
		return fmt.Errorf("cluster: host ops/sec must be positive")
	case p.DiskRate <= 0:
		return fmt.Errorf("cluster: disk rate must be positive")
	case p.NetBandwidth <= 0:
		return fmt.Errorf("cluster: network bandwidth must be positive")
	case p.RecordSize < 8:
		return fmt.Errorf("cluster: record size %d too small", p.RecordSize)
	case p.HostMemRecords < 1 || p.ASUMemRecords < 1:
		return fmt.Errorf("cluster: memory bounds must be positive")
	}
	return nil
}

// Node is one emulated machine.
type Node struct {
	Name  string
	Kind  NodeKind
	Index int

	// Part is the node's event-ordering partition in the simulator: procs
	// pinned to this node (sim.SpawnOn) break same-instant ties by
	// (partition, per-node seq).
	Part int

	CPU       *sim.Resource
	OpsPerSec float64
	Disk      *disk.Disk    // nil on hosts
	NIC       *netsim.Iface // connected to the SAN
	MemRecs   int           // buffer capacity in records
	// Quantum bounds a single CPU hold by functor computation
	// (performance isolation); zero means unbounded holds.
	Quantum sim.Duration

	// CPUTrace, DiskTrace and NICTrace are the node's windowed utilization
	// traces, installed together when the cluster is built (nil on a bare
	// cluster without Params.UtilWindow; DiskTrace stays nil on hosts).
	CPUTrace, DiskTrace, NICTrace *telemetry.UtilTrace
}

// Compute spends ops of computation on this node's CPU, blocking p for the
// scaled time (plus any queueing behind other work on the same CPU). With
// isolation enabled, the hold is split into quanta so high-priority storage
// requests wait at most one quantum.
func (n *Node) Compute(p *sim.Proc, ops float64) {
	if ops <= 0 {
		return
	}
	d := sim.Duration(ops / n.OpsPerSec * float64(sim.Second))
	if n.Quantum <= 0 {
		n.CPU.Use(p, d)
		n.chargeCPU(p, d)
		return
	}
	for d > 0 {
		q := n.Quantum
		if q > d {
			q = d
		}
		n.CPU.Use(p, q)
		n.chargeCPU(p, q)
		d -= q
	}
}

// chargeCPU attributes a just-completed CPU hold of duration d (ending now)
// to the attached profiler. Queueing ahead of the hold is charged separately
// by the resource's acquire path.
func (n *Node) chargeCPU(p *sim.Proc, d sim.Duration) {
	if pf := p.Sim().Profiler(); pf != nil {
		now := p.Now()
		pf.Charge(p, sim.ChargeCPU, n.Name, now.Add(-d), now)
	}
}

// ServeRequest spends ops of computation at high priority: the processing
// an ASU performs on behalf of a foreground storage request. It jumps ahead
// of queued functor work and, with isolation enabled, waits at most one
// quantum behind in-progress functor work.
func (n *Node) ServeRequest(p *sim.Proc, ops float64) {
	if ops <= 0 {
		return
	}
	d := sim.Duration(ops / n.OpsPerSec * float64(sim.Second))
	n.CPU.UseHigh(p, d)
	n.chargeCPU(p, d)
}

func (n *Node) String() string { return n.Name }

// Cluster is a built emulated system.
type Cluster struct {
	Params Params
	Sim    *sim.Sim
	Net    *netsim.Net
	Hosts  []*Node
	ASUs   []*Node

	// Telemetry and Profiler are fixed by NewObserved and read-only
	// afterwards. Telemetry is the instrument registry (nil: instrumented
	// code no-ops), Profiler the latency-attribution engine (nil: one
	// pointer check).
	Telemetry *telemetry.Registry
	Profiler  *critpath.Profiler

	samplers []*clusterSampler // recorder and gauge daemons, until FinishSampling
	queues   []SampledQueue    // watched by the samplers, in registration order
	stages   []stageProbe

	// lastSched remembers the scheduler-tier counters already copied into
	// the telemetry registry, so repeated BuildReport calls add deltas
	// instead of double-counting.
	lastSched sim.SchedStats
}

// Observers is everything that watches a run. The set is fixed when the
// cluster is built — NewObserved wires all of it before any proc exists —
// and every member is a pure observer of state the simulation already
// computes: no combination moves virtual time or changes another observer's
// output. The zero value is a bare cluster.
type Observers struct {
	// Telemetry is the instrument registry; with it every node also gets
	// utilization traces (Params.UtilWindow wide, 100ms when that is zero).
	Telemetry *telemetry.Registry
	// Trace receives the kernel's, the devices' and the pipelines' events.
	Trace *trace.Sink
	// Critpath attaches a critical-path profiler (Cluster.Profiler).
	Critpath bool
	// Recorder streams the run into a record: one Sample per SampleEvery
	// (0 means 100ms of virtual time) with per-node utilization, queue
	// depths and latency quantiles, every load-manager decision as it is
	// logged (they reach the recorder through Telemetry), and every Trace
	// event as a Span. The caller has already sent it the run's Header, and
	// passes it the finished report itself after FinishSampling.
	Recorder    recorder.Recorder
	SampleEvery sim.Duration
	// GaugeEvery, when positive, additionally emits the periodic
	// observations as Telemetry gauges — node.<name>.cpu.busy_sec
	// (cumulative completed busy time), queue.<name>.depth / .high_water
	// and stage.<name>.records_in — so they land in the RunReport
	// (`dsmsort -progress` renders its table from them). Off by default: it
	// grows the report, so runs without it stay byte-identical to the
	// committed baselines. Ignored without Telemetry.
	GaugeEvery sim.Duration
}

// New builds a bare cluster: NewObserved with nothing watching.
func New(p Params) *Cluster { return NewObserved(p, Observers{}) }

// NewObserved builds a cluster on a fresh simulator with obs wired in. It
// panics if p is invalid; use Params.Validate to check first. Call
// FinishSampling after Sim.Run returns and before BuildReport.
func NewObserved(p Params, obs Observers) *Cluster {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := sim.New()
	c := &Cluster{Params: p, Sim: s, Net: netsim.New(s, p.NetLatency)}
	node := func(kind NodeKind, i int, opsPerSec float64, memRecs int) *Node {
		name := fmt.Sprintf("%v%d", kind, i)
		n := &Node{
			Name:      name,
			Kind:      kind,
			Index:     i,
			Part:      s.AddPartition(),
			CPU:       sim.NewResource(s, name+".cpu"),
			OpsPerSec: opsPerSec,
			NIC:       netsim.NewIface(s, name+".nic", p.NetBandwidth),
			MemRecs:   memRecs,
			Quantum:   p.IsolationQuantum,
		}
		if kind == ASU {
			n.Disk = disk.New(s, name+".disk", p.DiskRate)
			n.Disk.SetSeek(p.DiskSeek)
		}
		return n
	}
	for i := 0; i < p.Hosts; i++ {
		c.Hosts = append(c.Hosts, node(Host, i, p.HostOpsPerSec, p.HostMemRecords))
	}
	for i := 0; i < p.ASUs; i++ {
		c.ASUs = append(c.ASUs, node(ASU, i, p.HostOpsPerSec/p.C, p.ASUMemRecords))
	}
	c.observe(obs)
	return c
}

// observe wires obs into a cluster that has no proc yet. The order is fixed
// and load-bearing for byte-identical output: node tracks are registered
// before any proc's (track ids), the recorder's sampler daemon is spawned
// before the gauge sampler's (proc and track order), and the trace stream is
// connected before either, so their spawn instants reach the recorder like
// every later event.
func (c *Cluster) observe(obs Observers) {
	window := c.Params.UtilWindow
	if window == 0 && obs.Telemetry != nil {
		window = 100 * sim.Millisecond
	}
	if window > 0 {
		c.installUtilTraces(window)
	}
	c.Telemetry = obs.Telemetry
	if t := obs.Trace; t != nil {
		c.Sim.SetTracer(t)
		// Eager registration, hosts first, pins the track numbering: the same
		// workload on the same seed exports a byte-identical trace regardless
		// of which resource happens to record first.
		for _, n := range c.Nodes() {
			t.SharedTrack(n.Name, n.Name+".cpu")
			if n.Disk != nil {
				t.SharedTrack(n.Name, n.Name+".disk")
			}
			t.SharedTrack(n.Name, n.Name+".nic")
		}
	}
	if obs.Critpath {
		c.Profiler = critpath.New()
		c.Sim.SetProfiler(c.Profiler)
	}
	if rec := obs.Recorder; rec != nil {
		c.Telemetry.SetOnDecide(func(d telemetry.Decision) {
			ev := recorder.Event{T: d.T, Kind: "decision", Source: d.Source, Action: d.Action, Detail: d.Detail}
			if len(d.Readings) > 0 {
				ev.Fields = make(map[string]float64, len(d.Readings))
				for _, rd := range d.Readings {
					ev.Fields[rd.Key] = rd.Value
				}
			}
			rec.Event(ev)
		})
		// Event order is deterministic, so the streamed spans keep segments
		// deterministic below the header. The sink's args are the span's.
		obs.Trace.SetStreamer(func(e trace.StreamEvent) {
			rec.Span(recorder.Span{
				T:     e.TS,
				DurNs: e.Dur,
				Ph:    phaseString(e.Ph),
				Group: e.Group,
				Track: e.Track,
				TID:   e.TID,
				Name:  e.Name,
				Cat:   e.Cat,
				Args:  e.Args,
			})
		})
		every := obs.SampleEvery
		if every <= 0 {
			every = 100 * sim.Millisecond
		}
		c.startSampler("recorder.sampler", every, rec, false)
	}
	if obs.GaugeEvery > 0 && c.Telemetry != nil {
		c.startSampler("gauge.sampler", obs.GaugeEvery, nil, true)
	}
}

// phaseString spells a sink's event phase as a constant string: string(ph)
// would allocate once per streamed event.
func phaseString(ph byte) string {
	switch ph {
	case 'B':
		return "B"
	case 'E':
		return "E"
	case 'X':
		return "X"
	case 'i':
		return "i"
	case 'C':
		return "C"
	}
	return string(ph)
}

// installUtilTraces is the one owner of the devices' BusyRecorder slots: it
// gives every node's CPU, disk and NIC a utilization trace of the given
// window. The recorders only observe busy intervals already being simulated,
// so the same seed completes at the same instant with or without them.
func (c *Cluster) installUtilTraces(window sim.Duration) {
	for _, n := range c.Nodes() {
		n.CPUTrace = telemetry.NewUtilTrace(n.Name+".cpu", window)
		n.CPU.SetRecorder(n.CPUTrace)
		if n.Disk != nil {
			n.DiskTrace = telemetry.NewUtilTrace(n.Name+".disk", window)
			n.Disk.SetRecorder(n.DiskTrace)
		}
		n.NICTrace = telemetry.NewUtilTrace(n.Name+".nic", window)
		n.NIC.SetRecorder(n.NICTrace)
	}
}

// Nodes returns all nodes, hosts first.
func (c *Cluster) Nodes() []*Node {
	all := make([]*Node, 0, len(c.Hosts)+len(c.ASUs))
	all = append(all, c.Hosts...)
	return append(all, c.ASUs...)
}

// Touch reports the per-record handling cost on node n under this cluster's
// cost model and record size.
func (c *Cluster) Touch(n *Node) float64 {
	return c.Params.Costs.Touch(n.Kind, c.Params.RecordSize)
}

// Config snapshots the parameters in report form. It is the same value
// BuildReport stamps on the report, available before the cluster exists so a
// run's store header can hash and carry the configuration.
func (p Params) Config() telemetry.ClusterConfig {
	return telemetry.ClusterConfig{
		Hosts:         p.Hosts,
		ASUs:          p.ASUs,
		C:             p.C,
		HostOpsPerSec: p.HostOpsPerSec,
		DiskRateMBps:  p.DiskRate / 1e6,
		DiskSeekMs:    p.DiskSeek.Seconds() * 1e3,
		NetMBps:       p.NetBandwidth / 1e6,
		NetLatencyUs:  p.NetLatency.Seconds() * 1e6,
		RecordSize:    p.RecordSize,
	}
}

// BuildReport snapshots the cluster's configuration, per-node utilization
// traces, and (when telemetry is attached) every registered instrument and
// the decision audit log into a RunReport.
func (c *Cluster) BuildReport(name string, seed int64, elapsed sim.Duration) *telemetry.RunReport {
	rep := telemetry.NewRunReport(name, seed, elapsed)
	rep.Config = c.Params.Config()
	for _, n := range c.Nodes() {
		rep.Nodes = append(rep.Nodes, telemetry.NodeReport{
			Name:      n.Name,
			Kind:      n.Kind.String(),
			OpsPerSec: n.OpsPerSec,
			CPU:       n.CPUTrace.Report(),
			Disk:      n.DiskTrace.Report(),
			NIC:       n.NICTrace.Report(),
		})
	}
	c.fillSchedStats()
	c.Telemetry.Fill(rep)
	if c.Profiler != nil {
		rep.Critpath = c.Profiler.Report()
	}
	return rep
}

// fillSchedStats copies the sim kernel's scheduler-tier activity (timer-wheel
// hits, near-deadline heap spills, recycled proc shells) into the telemetry
// registry, so every RunReport — and hence `lmasreport show` — can explain
// scheduler behavior per run. The kernel counts non-daemon events only, so
// these counters are byte-identical with or without a recorder attached.
func (c *Cluster) fillSchedStats() {
	st := c.Sim.SchedStats()
	c.Telemetry.Counter("sim.scheduler.wheel_hits").Add(int64(st.WheelHits - c.lastSched.WheelHits))
	c.Telemetry.Counter("sim.scheduler.heap_spills").Add(int64(st.HeapSpills - c.lastSched.HeapSpills))
	c.Telemetry.Counter("sim.scheduler.proc_reuses").Add(int64(st.ProcReuses - c.lastSched.ProcReuses))
	c.lastSched = st
}
