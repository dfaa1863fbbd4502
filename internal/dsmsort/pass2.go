package dsmsort

import (
	"fmt"

	"lmas/internal/bte"
	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/critpath"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// OutputStore holds DSM-Sort's final output, striped across the ASUs ("a
// γ-way merge to form sorted runs striped across the ASUs"). Each packet is
// tagged with its bucket and a per-bucket sequence number (in Run) so the
// global order is reconstructible: buckets are disjoint increasing key
// ranges, and within a bucket packets are emitted in merge order.
type OutputStore struct {
	RecordSize int
	Streams    []*container.Stream // one per ASU
}

// NewOutputStore allocates output storage on every ASU.
func NewOutputStore(cl *cluster.Cluster) *OutputStore {
	os := &OutputStore{RecordSize: cl.Params.RecordSize}
	for _, asu := range cl.ASUs {
		os.Streams = append(os.Streams,
			container.NewStream("output@"+asu.Name, bte.NewDisk(asu.Disk), cl.Params.RecordSize))
	}
	return os
}

// Free releases the output's packet storage back to the buffer pool; call
// it once the output has been validated and is no longer needed.
func (o *OutputStore) Free() {
	for _, st := range o.Streams {
		st.FreeAll()
	}
}

// Records reports the total records stored.
func (o *OutputStore) Records() int64 {
	var n int64
	for _, st := range o.Streams {
		n += st.Records()
	}
	return n
}

// MergeResult reports merge-pass outcomes.
type MergeResult struct {
	Elapsed sim.Duration
	// ASUMergeLevels is the maximum number of local merge levels any
	// (ASU, bucket) pair needed (1 when runs fit in a single γ2-way
	// merge).
	ASUMergeLevels int
	HostOps        float64
	ASUOps         float64

	// Records consumed so far by each merge stage — the ASU local mergers
	// (read from run storage), the host mergers, the output collectors —
	// read by the cluster's progress sampler while the pass runs.
	asuIn, hostIn, collectIn int64
}

// oneEach is the refill of a merge whose sources are one buffer each:
// source i yields bufs[i] on its first call, if it holds a record.
func oneEach(bufs []records.Buffer) records.Refill {
	return func(i int, spent records.Buffer) (records.Buffer, bool) {
		return bufs[i], spent.Size() == 0 && bufs[i].Len() > 0
	}
}

// mergeBuffers merges k sorted buffers into one sorted buffer (pure
// computation; callers charge the CPU cost separately). The result is drawn
// from the buffer pool and owned by the caller; every record position is
// written before return.
func mergeBuffers(bufs []records.Buffer, recSize int) records.Buffer {
	total := 0
	for _, b := range bufs {
		total += b.Len()
	}
	out := records.NewPooled(total, recSize)
	records.Merge(out, len(bufs), oneEach(bufs))
	return out
}

// mergePackets merges k sources into packets of up to packetRecords
// records, each in a pooled buffer drawn when its first record arrives, and
// hands every packet to emit, which owns it from then on. A source refills
// before a full packet is emitted, as the record that fills it leaves the
// merge.
func mergePackets(k int, refill records.Refill, packetRecords, recSize int, emit func(records.Buffer)) {
	m := records.NewMerger(k, refill)
	var out records.Buffer
	fill := 0
	for m.More() {
		if fill == 0 {
			out = records.NewPooled(packetRecords, recSize)
		}
		m.Pop(out.Record(fill), refill)
		fill++
		if fill == packetRecords {
			emit(out)
			fill = 0
		}
	}
	if fill > 0 {
		emit(out.Slice(0, fill))
	}
	m.Release()
}

// MergePass executes DSM-Sort's merge pass: for every bucket, each ASU
// pre-merges its local runs γ2 ways (possibly over multiple levels) into a
// single sorted stream, and a host merges the per-ASU streams γ1 = D ways
// into the bucket's final output, striped back across the ASUs. "The merge
// is divided between hosts and ASUs, so that γ1·γ2 = γ" (Section 4.3).
func MergePass(cl *cluster.Cluster, cfg Config, rs *RunStore) (*OutputStore, *MergeResult, error) {
	if cfg.Gamma2 < 2 {
		return nil, nil, fmt.Errorf("dsmsort: gamma2 must be >= 2 for merging, have %d", cfg.Gamma2)
	}
	out := NewOutputStore(cl)
	res := &MergeResult{}
	hostN := len(cl.Hosts)
	d := len(cl.ASUs)
	// The merge stages' progress, for the cluster's periodic sampler; the
	// queues below are watched as they are built. Inert when none attached.
	cl.WatchStage("merge.asu", func() int64 { return res.asuIn })
	cl.WatchStage("merge.host", func() int64 { return res.hostIn })
	cl.WatchStage("merge.collect", func() int64 { return res.collectIn })

	// Output collectors: one proc per ASU draining an inbox of final
	// packets, charging ASU touch (packet reassembly) plus disk write.
	pf := cl.Profiler
	collectors := make([]*sim.Queue[container.Packet], d)
	for i, asu := range cl.ASUs {
		i, asu := i, asu
		collectors[i] = sim.NewQueue[container.Packet](cl.Sim, fmt.Sprintf("out.collect%d", i), 8)
		cl.WatchQueue(collectors[i])
		collectProc := cl.Sim.SpawnOn(asu.Part, fmt.Sprintf("collect@asu%d", i), func(p *sim.Proc) {
			pf.Bind(p, "merge.collect", asu.Name, critpath.ClassASUCPU, critpath.ClassASUCPU)
			touch := cl.Touch(asu)
			for {
				pk, ok := collectors[i].Get(p)
				if !ok {
					break
				}
				pf.BeginPacket(p, pk.Prov)
				res.collectIn += int64(pk.Len())
				ops := float64(pk.Len()) * touch
				res.ASUOps += ops
				asu.Compute(p, ops)
				out.Streams[i].Append(p, pk)
				pf.EndPacket(p)
			}
			out.Streams[i].Flush(p)
		})
		// A host merger blocked on a full collector inbox is being slowed
		// by the ASU's packet reassembly and output writes; apportion by
		// the collector proc's mix (ASU CPU plus disk).
		pf.BlameWaitProc(collectors[i].Name()+" not-full", collectProc, critpath.ClassASUCPU)
	}

	// Per (bucket, ASU) local merge feeding a bounded stream queue; per
	// bucket a host merger consuming those queues.
	type bucketWork struct {
		bucket int
		queues []*sim.Queue[container.Packet]
		srcs   []*cluster.Node
	}
	var buckets []bucketWork
	alpha := len(rs.Streams[0])
	openCollectors := 0 // producers into collectors (host mergers)
	for b := 0; b < alpha; b++ {
		var queues []*sim.Queue[container.Packet]
		var srcs []*cluster.Node
		for asuIdx := 0; asuIdx < d; asuIdx++ {
			st := rs.Streams[asuIdx][b]
			if st == nil || st.Packets() == 0 {
				continue
			}
			q := sim.NewQueue[container.Packet](cl.Sim, fmt.Sprintf("merge.b%d.asu%d", b, asuIdx), 4)
			cl.WatchQueue(q)
			queues = append(queues, q)
			asu := cl.ASUs[asuIdx]
			srcs = append(srcs, asu)
			b := b
			cl.Sim.SpawnOn(asu.Part, fmt.Sprintf("asumerge.b%d@asu%d", b, asuIdx), func(p *sim.Proc) {
				pf.Bind(p, "merge.asu", asu.Name, critpath.ClassASUCPU, critpath.ClassASUCPU)
				levels := asuLocalMerge(cl, cfg, p, asu, st, q, res)
				if levels > res.ASUMergeLevels {
					res.ASUMergeLevels = levels
				}
				q.Close()
			})
		}
		if len(queues) == 0 {
			continue
		}
		buckets = append(buckets, bucketWork{bucket: b, queues: queues, srcs: srcs})
		openCollectors++
	}

	// Close collector inboxes when every host merger is done.
	remaining := openCollectors
	done := func() {
		remaining--
		if remaining == 0 {
			for _, q := range collectors {
				q.Close()
			}
		}
	}
	if openCollectors == 0 {
		for _, q := range collectors {
			q.Close()
		}
	}

	stripe := 0
	for i, bw := range buckets {
		bw := bw
		host := cl.Hosts[i%hostN]
		hostProc := cl.Sim.SpawnOn(host.Part, fmt.Sprintf("hostmerge.b%d@%s", bw.bucket, host.Name), func(p *sim.Proc) {
			pf.Bind(p, "merge.host", host.Name, critpath.ClassHostCPU, critpath.ClassHostCPU)
			hostBucketMerge(cl, cfg, p, host, bw.bucket, bw.queues, bw.srcs, collectors, &stripe, res)
			done()
		})
		// An ASU merger blocked on its full stream queue is being slowed
		// by the consuming host merger; apportion by its mix.
		for _, q := range bw.queues {
			pf.BlameWaitProc(q.Name()+" not-full", hostProc, critpath.ClassHostCPU)
		}
	}

	start := cl.Sim.Now()
	if err := cl.Sim.Run(); err != nil {
		return nil, nil, fmt.Errorf("dsmsort: merge pass failed: %w", err)
	}
	res.Elapsed = sim.Duration(cl.Sim.Now() - start)
	if reg := cl.Telemetry; reg != nil {
		reg.Counter("dsmsort.merge.levels").Add(int64(res.ASUMergeLevels))
		reg.Counter("dsmsort.merge.host_ops").Add(int64(res.HostOps))
		reg.Counter("dsmsort.merge.asu_ops").Add(int64(res.ASUOps))
		reg.Gauge("dsmsort.merge.elapsed_sec").Set(cl.Sim.Now(), res.Elapsed.Seconds())
		for _, q := range collectors {
			cl.FlushQueueStats(q)
		}
		for _, bw := range buckets {
			for _, q := range bw.queues {
				cl.FlushQueueStats(q)
			}
		}
	}
	return out, res, nil
}

// asuLocalMerge merges the runs of one (ASU, bucket) stream γ2 ways into a
// single sorted stream of packets pushed to q. Returns the number of merge
// levels used.
func asuLocalMerge(cl *cluster.Cluster, cfg Config, p *sim.Proc, asu *cluster.Node, st *container.Stream, q *sim.Queue[container.Packet], res *MergeResult) int {
	recSize := cl.Params.RecordSize
	cm := cl.Params.Costs
	touch := cl.Touch(asu)

	// Load this bucket's runs (sequential disk read). Level-0 run buffers
	// stay engine-owned (the scan is non-destructive); merged intermediate
	// runs are pooled and owned here — owned tracks which is which.
	var runs []records.Buffer
	var owned []bool
	sc := st.Scan()
	for {
		pk, ok := sc.Next(p)
		if !ok {
			break
		}
		res.asuIn += int64(pk.Len())
		runs = append(runs, pk.Buf)
		owned = append(owned, false)
	}
	levels := 0
	// Intermediate levels: merge batches of γ2 runs into longer runs,
	// charging CPU plus the write+read round trip intermediate data
	// makes through local storage.
	eng := st.Engine()
	for len(runs) > cfg.Gamma2 {
		levels++
		var next []records.Buffer
		var nextOwned []bool
		for lo := 0; lo < len(runs); lo += cfg.Gamma2 {
			hi := lo + cfg.Gamma2
			if hi > len(runs) {
				hi = len(runs)
			}
			batch := runs[lo:hi]
			nrec := 0
			for _, b := range batch {
				nrec += b.Len()
			}
			ops := float64(nrec) * (touch + cluster.Log2(len(batch))*cm.CompareOps)
			res.ASUOps += ops
			merged := mergeBuffers(batch, recSize)
			asu.Compute(p, ops)
			// The batch's records now live in merged; recycle the pooled
			// intermediate inputs (engine-owned level-0 runs stay put).
			for i := lo; i < hi; i++ {
				if owned[i] {
					runs[i].Release()
				}
			}
			// Intermediate run round-trips through local storage. The
			// engine takes ownership of whatever it appends and the
			// round-trip's content is never read back, so charge it on a
			// pooled placeholder of identical length — virtual time only
			// depends on the byte count — while merged stays live here.
			tmp := bufpool.Get(merged.Bytes())
			id := eng.Append(p, tmp)
			eng.Read(p, id)
			eng.Free(id)
			next = append(next, merged)
			nextOwned = append(nextOwned, true)
		}
		runs, owned = next, nextOwned
	}
	levels++
	// Final level: streaming γ2-way merge emitting packets to the host.
	pf := cl.Profiler
	perRec := touch + cluster.Log2(len(runs))*cm.CompareOps
	mergePackets(len(runs), oneEach(runs), cfg.PacketRecords, recSize, func(buf records.Buffer) {
		// Merged packets root fresh provenance chains: their inputs were
		// stored by pass 1, and chains do not persist through storage.
		id := pf.StartChain(p)
		// The packet owns its pooled buffer; the host merger releases it
		// once the records are copied into the bucket's output.
		pk := container.Packet{Buf: buf, Sorted: true, Bucket: -1, Run: -1, Owned: true, Prov: id}
		ops := float64(buf.Len()) * perRec
		res.ASUOps += ops
		asu.Compute(p, ops)
		// Stream to the consuming host merger; the network hop is
		// charged by the host side on receipt (it knows its NIC).
		if err := q.Put(p, pk); err != nil {
			panic(err)
		}
		pf.EndPacket(p)
	})
	for i := range runs {
		if owned[i] {
			runs[i].Release()
		}
	}
	return levels
}

// hostBucketMerge merges the ASU streams of one bucket γ1 = len(queues)
// ways on a host and stripes output packets across the ASU collectors.
func hostBucketMerge(cl *cluster.Cluster, cfg Config, p *sim.Proc, host *cluster.Node, bucket int, queues []*sim.Queue[container.Packet], srcs []*cluster.Node, collectors []*sim.Queue[container.Packet], stripe *int, res *MergeResult) {
	recSize := cl.Params.RecordSize
	cm := cl.Params.Costs
	touch := cl.Touch(host)
	gamma1 := len(queues)
	pf := cl.Profiler
	// A source is one ASU's stream of packets, each owning its buffer: a
	// read-out packet goes back to the pool as the next one is received.
	refill := func(i int, spent records.Buffer) (records.Buffer, bool) {
		spent.Release()
		pk, ok := queues[i].Get(p)
		if !ok {
			return records.Buffer{}, false
		}
		res.hostIn += int64(pk.Len())
		// Charge the ASU->host hop for the received packet, on its chain.
		pf.BeginPacket(p, pk.Prov)
		cl.Net.Stream(p, srcs[i].NIC, host.NIC, pk.Bytes()+64)
		pf.EndPacket(p)
		return pk.Buf, true
	}
	seq := 0
	mergePackets(gamma1, refill, cfg.PacketRecords, recSize, func(buf records.Buffer) {
		// Output packets derive from the most recent input chain the merger
		// consumed, keeping the dependency walk rooted in the ASU mergers.
		id := pf.Derive(p)
		pf.BeginPacket(p, id)
		// The collector appends the packet to the output stream, which
		// transfers the pooled buffer's ownership to the ASU's engine.
		pk := container.Packet{Buf: buf, Sorted: true, Bucket: bucket, Run: seq, Owned: true, Prov: id}
		seq++
		ops := float64(buf.Len()) * (touch + cluster.Log2(gamma1)*cm.CompareOps)
		res.HostOps += ops
		host.Compute(p, ops)
		dest := *stripe % len(collectors)
		*stripe++
		cl.Net.Stream(p, host.NIC, cl.ASUs[dest].NIC, pk.Bytes()+64)
		if err := collectors[dest].Put(p, pk); err != nil {
			panic(err)
		}
		pf.EndPacket(p)
	})
}
