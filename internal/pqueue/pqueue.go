// Package pqueue implements an external-memory priority queue, the
// substrate for time-forward processing [Chiang et al., SODA'95] that
// TerraFlow's watershed step relies on (Section 4.1): "Step 3 uses neighbor
// information to propagate colors from the lowest points up/outward to the
// peaks and ridges... it uses time-forward processing and relies on
// ordering for correctness."
//
// The structure keeps an insertion buffer of bounded size in memory; when
// the buffer fills, it is sorted and spilled to external storage as a
// sorted run. PopMin merges the buffer minimum with the heads of all
// spilled runs. Each item is written and read at most once externally, and
// in-memory work is O(log) comparisons per operation.
package pqueue

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// Item is a prioritized message: time-forward processing sends Payload to
// the computation step identified by Key.
type Item struct {
	// Key orders items; for TerraFlow it is (elevation, cell id).
	Key uint64
	// Payload is the message body (a watershed color, for TerraFlow).
	Payload uint64
}

const itemBytes = 16

// PQ is an external-memory priority queue. All operations must be invoked
// from the owning simulation's running proc; external runs are stored on
// the provided engine and charged to its device. CPU comparison costs are
// charged to the owning node.
type PQ struct {
	node *cluster.Node
	cl   *cluster.Cluster
	eng  bte.Engine

	memCap int
	buf    []Item // insertion buffer, unsorted
	runs   []*run

	len    int
	spills int
}

// run is a spilled sorted run with a read cursor. Drained runs return to
// runPool so the decoded-items slice capacity is reused across spills
// instead of reallocated per run.
type run struct {
	id     bte.BlockID
	items  []Item // decoded lazily on first read; capacity reused via runPool
	loaded bool
	pos    int
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// New creates a priority queue whose insertion buffer holds memItems items.
// Spilled runs are stored on eng (typically a disk engine of the node that
// owns the computation); comparison costs are charged to node's CPU.
func New(cl *cluster.Cluster, node *cluster.Node, eng bte.Engine, memItems int) *PQ {
	if memItems < 2 {
		panic("pqueue: memory must hold at least 2 items")
	}
	return &PQ{node: node, cl: cl, eng: eng, memCap: memItems}
}

// Len reports the number of queued items.
func (q *PQ) Len() int { return q.len }

// Spills reports how many runs were ever written externally.
func (q *PQ) Spills() int { return q.spills }

// Push inserts it, spilling the insertion buffer if full.
func (q *PQ) Push(p *sim.Proc, it Item) {
	if len(q.buf) == q.memCap {
		q.spill(p)
	}
	q.buf = append(q.buf, it)
	q.len++
	// One heap-insert's worth of comparisons.
	q.charge(p, cluster.CeilLog2(q.memCap))
}

func (q *PQ) spill(p *sim.Proc) {
	sort.Slice(q.buf, func(i, j int) bool { return less(q.buf[i], q.buf[j]) })
	data := make([]byte, len(q.buf)*itemBytes)
	for i, it := range q.buf {
		binary.LittleEndian.PutUint64(data[i*itemBytes:], it.Key)
		binary.LittleEndian.PutUint64(data[i*itemBytes+8:], it.Payload)
	}
	// Sorting cost for the spill.
	q.charge(p, float64(len(q.buf))*cluster.CeilLog2(len(q.buf)))
	id := q.eng.Append(p, data)
	r := runPool.Get().(*run)
	*r = run{id: id, items: r.items[:0]}
	q.runs = append(q.runs, r)
	q.spills++
	q.buf = q.buf[:0]
}

func (r *run) load(p *sim.Proc, eng bte.Engine) {
	if r.loaded {
		return
	}
	data := eng.Read(p, r.id)
	n := len(data) / itemBytes
	r.items = slices.Grow(r.items[:0], n)[:n]
	r.loaded = true
	for i := range r.items {
		r.items[i].Key = binary.LittleEndian.Uint64(data[i*itemBytes:])
		r.items[i].Payload = binary.LittleEndian.Uint64(data[i*itemBytes+8:])
	}
}

// Peek reports the smallest item without removing it. ok is false when
// empty.
func (q *PQ) Peek(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	var best Item
	found := false
	for _, it := range q.buf {
		if !found || less(it, best) {
			best, found = it, true
		}
	}
	for _, r := range q.runs {
		r.load(p, q.eng)
		if r.pos < len(r.items) {
			if it := r.items[r.pos]; !found || less(it, best) {
				best, found = it, true
			}
		}
	}
	q.charge(p, cluster.CeilLog2(len(q.runs)+1))
	return best, found
}

// PopMin removes and returns the smallest item. ok is false when empty.
func (q *PQ) PopMin(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	// Candidate from the buffer: linear scan is O(memCap), but we charge
	// only the heap-equivalent log cost since a production structure
	// would keep the buffer heapified; the scan here is emulation-host
	// work, not emulated work.
	bi := -1
	for i := range q.buf {
		if bi < 0 || less(q.buf[i], q.buf[bi]) {
			bi = i
		}
	}
	// Candidate among run heads.
	ri := -1
	for i, r := range q.runs {
		r.load(p, q.eng)
		if r.pos >= len(r.items) {
			continue
		}
		if ri < 0 || less(r.items[r.pos], q.runs[ri].items[q.runs[ri].pos]) {
			ri = i
		}
	}
	var out Item
	switch {
	case bi < 0 && ri < 0:
		return Item{}, false
	case ri < 0 || (bi >= 0 && !less(q.runs[ri].items[q.runs[ri].pos], q.buf[bi])):
		out = q.buf[bi]
		q.buf[bi] = q.buf[len(q.buf)-1]
		q.buf = q.buf[:len(q.buf)-1]
	default:
		r := q.runs[ri]
		out = r.items[r.pos]
		r.pos++
		if r.pos == len(r.items) {
			q.eng.Free(r.id)
			copy(q.runs[ri:], q.runs[ri+1:])
			// Clear the tail so the backing array doesn't pin the run,
			// then recycle it: nothing else references a drained run.
			q.runs[len(q.runs)-1] = nil
			q.runs = q.runs[:len(q.runs)-1]
			runPool.Put(r)
		}
	}
	q.len--
	q.charge(p, cluster.CeilLog2(q.memCap)+cluster.CeilLog2(len(q.runs)+1))
	return out, true
}

func (q *PQ) charge(p *sim.Proc, compares float64) {
	if q.node == nil {
		return
	}
	q.node.Compute(p, compares*q.cl.Params.Costs.CompareOps)
}

func less(a, b Item) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Payload < b.Payload
}
