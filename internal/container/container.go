// Package container implements the stored-data collection types of the
// extended TPIE model (Section 3.2): Streams (ordered scanning) and Sets
// (unordered scanning with pending/completed marks and optional destructive
// scans), together with the Packet grouping mechanism that preserves
// intermediate structure — such as sortedness — inside a collection
// (Section 3.2, Figure 4). The model's third type, the random-access Array,
// is not built: no workload here reads packets by index.
//
// Containers store Packets as blocks on a bte.Engine, so scanning a
// container charges the virtual-time I/O costs of the node that owns it.
package container

import (
	"fmt"

	"lmas/internal/bte"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// Packet is a group of related records that is always processed as a whole.
// Packets "impose a partial order on the records in a set, and constrain
// the distribution of records across functor instances": a packet is never
// split by routing, so properties established within it (like sortedness)
// survive later phases.
type Packet struct {
	Buf records.Buffer
	// Sorted records that the packet's records are nondecreasing by key.
	Sorted bool
	// Bucket is the distribute subset this packet belongs to, or -1.
	Bucket int
	// Run identifies the sorted run this packet is part of, or -1.
	Run int
	// Owned records that the packet holds exclusive ownership of Buf's
	// storage. Release returns owned storage to the buffer pool; appending
	// an owned packet to a collection transfers ownership to the engine.
	Owned bool
	// Prov is the packet's provenance chain in the critical-path profiler,
	// or 0 when no profiler is attached (or the packet predates one).
	// Chains do not persist through collection storage: packets reloaded
	// from an engine start unchained.
	Prov int32
}

// NewPacket wraps buf in an unannotated packet that does not own its storage.
func NewPacket(buf records.Buffer) Packet { return Packet{Buf: buf, Bucket: -1, Run: -1} }

// NewOwnedPacket wraps buf in a packet that owns buf's storage exclusively:
// whoever consumes the packet must re-emit it, append it to a collection
// (transferring ownership to the engine), or Release it back to the pool.
func NewOwnedPacket(buf records.Buffer) Packet {
	return Packet{Buf: buf, Bucket: -1, Run: -1, Owned: true}
}

// Release returns the packet's buffer to the pool if the packet owns it, and
// clears the packet either way. A no-op on unowned packets, so consumers can
// release unconditionally: engine-owned packets (non-destructive scans) and
// sub-packets aliasing a larger buffer pass through unharmed.
func (pk *Packet) Release() {
	if pk.Owned {
		pk.Buf.Release()
	}
	*pk = Packet{}
}

// Len reports the number of records in the packet.
func (pk Packet) Len() int { return pk.Buf.Len() }

// Bytes reports the packet payload size.
func (pk Packet) Bytes() int { return pk.Buf.Bytes() }

func (pk Packet) String() string {
	return fmt.Sprintf("packet{n=%d sorted=%v bucket=%d run=%d}", pk.Len(), pk.Sorted, pk.Bucket, pk.Run)
}

// meta is the per-packet metadata a collection keeps in memory; the record
// payload itself lives in the engine.
type meta struct {
	id     bte.BlockID
	n      int
	sorted bool
	bucket int
	run    int
	// consumed marks the packet completed for the current scan.
	consumed bool
	freed    bool
}

// Collection is the common implementation of Stream and Set.
type Collection struct {
	name    string
	eng     bte.Engine
	recSize int
	pks     []meta
	live    int // packets not yet freed
	records int64
	// scanOrder is scratch for Scan order slices. Starting a scan already
	// invalidates earlier scans on the same collection (resetMarks), so
	// reusing one slice is safe.
	scanOrder []int
}

func newCollection(name string, eng bte.Engine, recSize int) Collection {
	return Collection{name: name, eng: eng, recSize: recSize}
}

// Name reports the collection name.
func (c *Collection) Name() string { return c.name }

// Engine returns the backing block engine.
func (c *Collection) Engine() bte.Engine { return c.eng }

// Packets reports the number of live packets.
func (c *Collection) Packets() int { return c.live }

// Records reports the total number of records in live packets.
func (c *Collection) Records() int64 { return c.records }

// RecordSize reports the record size for this collection.
func (c *Collection) RecordSize() int { return c.recSize }

// append stores pk as a new block. Per the engine's Append contract, this
// transfers ownership of pk.Buf's storage to the engine: the caller must not
// use, re-append or Release the buffer afterwards.
func (c *Collection) append(p *sim.Proc, pk Packet) {
	if pk.Buf.Size() != c.recSize {
		panic(fmt.Sprintf("container %s: record size %d, want %d", c.name, pk.Buf.Size(), c.recSize))
	}
	id := c.eng.Append(p, bufBytes(pk.Buf))
	if len(c.pks) == cap(c.pks) {
		// Grow with a floor: collections hold at least a handful of
		// packets, and the default doubling from tiny caps costs several
		// reallocations per stream in run-heavy phases.
		ncap := 2 * cap(c.pks)
		if ncap < 16 {
			ncap = 16
		}
		np := make([]meta, len(c.pks), ncap)
		copy(np, c.pks)
		c.pks = np
	}
	c.pks = append(c.pks, meta{id: id, n: pk.Len(), sorted: pk.Sorted, bucket: pk.Bucket, run: pk.Run})
	c.live++
	c.records += int64(pk.Len())
}

// Flush waits for buffered writes on the backing engine to retire.
func (c *Collection) Flush(p *sim.Proc) { c.eng.Flush(p) }

// load reads packet i from the engine.
func (c *Collection) load(p *sim.Proc, i int) Packet {
	m := &c.pks[i]
	if m.freed {
		panic(fmt.Sprintf("container %s: load of freed packet %d", c.name, i))
	}
	data := c.eng.Read(p, m.id)
	return Packet{
		Buf:    records.FromBytes(data, c.recSize),
		Sorted: m.sorted,
		Bucket: m.bucket,
		Run:    m.run,
	}
}

func (c *Collection) freePacket(i int) {
	m := &c.pks[i]
	if m.freed {
		return
	}
	c.eng.Free(m.id)
	m.freed = true
	c.live--
	c.records -= int64(m.n)
}

// detachPacket drops packet i's bookkeeping and hands its storage to the
// caller without recycling it (destructive scans transfer ownership to the
// packet they just delivered).
func (c *Collection) detachPacket(i int) {
	m := &c.pks[i]
	if m.freed {
		return
	}
	c.eng.Detach(m.id)
	m.freed = true
	c.live--
	c.records -= int64(m.n)
}

// FreeAll releases every live packet's storage back to the buffer pool.
// It charges no virtual time; harnesses call it after validation to retire
// a collection so leak checks can account for every buffer.
func (c *Collection) FreeAll() {
	for i := range c.pks {
		c.freePacket(i)
	}
}

// ForEach visits every live packet without charging virtual time or
// touching device state; it exists for validation and instrumentation
// outside the emulated timeline. fn returning false stops the walk.
func (c *Collection) ForEach(fn func(pk Packet) bool) {
	for i := range c.pks {
		m := &c.pks[i]
		if m.freed {
			continue
		}
		pk := Packet{
			Buf:    records.FromBytes(c.eng.Peek(m.id), c.recSize),
			Sorted: m.sorted,
			Bucket: m.bucket,
			Run:    m.run,
		}
		if !fn(pk) {
			return
		}
	}
}

// resetMarks clears the pending/completed marks for a new scan.
func (c *Collection) resetMarks() {
	for i := range c.pks {
		c.pks[i].consumed = false
	}
}

// orderScratch returns the collection's reusable scan-order slice, sized n.
func (c *Collection) orderScratch(n int) []int {
	if cap(c.scanOrder) < n {
		c.scanOrder = make([]int, n)
	}
	return c.scanOrder[:n]
}

// bufBytes exposes a buffer's backing bytes for engine storage.
func bufBytes(b records.Buffer) []byte { return b.Raw() }

// Stream is the traditional sequential-access collection: "a read on stream
// always delivers the next unconsumed record in a defined sequence, even if
// this is less efficient" (Section 3.2).
type Stream struct{ Collection }

// NewStream creates an empty stream on eng.
func NewStream(name string, eng bte.Engine, recSize int) *Stream {
	return &Stream{newCollection(name, eng, recSize)}
}

// Append adds pk at the end of the stream.
func (s *Stream) Append(p *sim.Proc, pk Packet) { s.append(p, pk) }

// Scan starts an ordered scan over all packets. Each scan marks all records
// pending again and invalidates earlier scans on the same collection.
func (s *Stream) Scan() *Scan {
	s.resetMarks()
	order := s.orderScratch(len(s.pks))
	for i := range order {
		order[i] = i
	}
	return &Scan{c: &s.Collection, order: order, pending: s.live}
}

// Set is an unordered collection: "data containers that do not define the
// order of records returned in satisfying read operations. This allows the
// system to provide records in any order that is convenient" (Section 3.2).
type Set struct{ Collection }

// NewSet creates an empty set on eng.
func NewSet(name string, eng bte.Engine, recSize int) *Set {
	return &Set{newCollection(name, eng, recSize)}
}

// Add inserts pk into the set.
func (s *Set) Add(p *sim.Proc, pk Packet) { s.append(p, pk) }

// Scan starts a scan that delivers every pending packet exactly once, in an
// order convenient to the system. rotate biases the starting position, so
// different consumers (or repeated scans) observe different orders —
// callers must not depend on any particular one. If destructive is true,
// storage for completed packets is released as they are consumed, "so that
// only pending records remain in the collection" (Section 3.2).
func (s *Set) Scan(rotate int, destructive bool) *Scan {
	s.resetMarks()
	n := len(s.pks)
	order := s.orderScratch(n)
	if n > 0 {
		start := ((rotate % n) + n) % n
		for i := 0; i < n; i++ {
			order[i] = (start + i) % n
		}
	}
	return &Scan{c: &s.Collection, order: order, destructive: destructive, pending: s.live}
}

// Scan iterates a collection's packets. The paper's model scans collections
// "in their entirety: records contained in a set or stream are marked as
// pending or completed for each scan".
type Scan struct {
	c           *Collection
	order       []int
	pos         int
	destructive bool
	pending     int // live packets this scan has not yet delivered
}

// Next delivers the next pending packet, blocking p for I/O time. ok is
// false when the scan has consumed the entire collection. Packets delivered
// by a destructive scan own their storage: the consumer must re-emit,
// append, or Release them.
func (sc *Scan) Next(p *sim.Proc) (Packet, bool) {
	for sc.pos < len(sc.order) {
		i := sc.order[sc.pos]
		sc.pos++
		m := &sc.c.pks[i]
		if m.consumed || m.freed {
			if m.freed && !m.consumed {
				sc.pending-- // freed externally since the scan started
			}
			continue
		}
		pk := sc.c.load(p, i)
		m.consumed = true
		sc.pending--
		if sc.destructive {
			// The scan has the only reference now; ownership of the
			// block's storage moves to the delivered packet.
			sc.c.detachPacket(i)
			pk.Owned = true
		}
		return pk, true
	}
	sc.c.eng.EndReadRun()
	return Packet{}, false
}

// Remaining reports how many pending packets the scan has not yet delivered.
func (sc *Scan) Remaining() int { return sc.pending }
