// Package records implements the fixed-size record layer that all streaming
// computation in this library operates on.
//
// The paper's experiments "sort 128-byte records with 4-byte keys"
// (Section 6); this package provides that record format, deterministic
// workload generators (including the half-uniform / half-exponential input
// used in Figure 10), and validation helpers (sortedness checks and an
// order-independent permutation checksum) used by tests and experiment
// harnesses to prove that emulated computations really compute.
package records

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"lmas/internal/bufpool"
)

// DefaultSize is the record size used throughout the paper's evaluation.
const DefaultSize = 128

// KeyBytes is the number of leading record bytes holding the sort key.
const KeyBytes = 4

// Key is a record's 4-byte sort key.
type Key uint32

// MaxKey is the largest representable key.
const MaxKey Key = math.MaxUint32

// KeyOf extracts a record's sort key from its leading bytes. This is the
// single little-endian key load every kernel shares; encoding/binary
// compiles it to one 4-byte load.
func KeyOf(rec []byte) Key { return Key(binary.LittleEndian.Uint32(rec)) }

// Buffer is a dense array of n fixed-size records backed by a single byte
// slice, the in-memory representation of a block of records. Buffers are
// cheap to sub-slice; sub-buffers alias the parent's storage.
type Buffer struct {
	data []byte
	size int // bytes per record
}

// NewBuffer allocates a zeroed buffer of n records of the given size.
func NewBuffer(n, size int) Buffer {
	if size < KeyBytes {
		panic(fmt.Sprintf("records: size %d < KeyBytes", size))
	}
	return Buffer{data: make([]byte, n*size), size: size}
}

// NewPooled draws a buffer of n records from the process-wide buffer pool.
// Unlike NewBuffer, the contents are UNSPECIFIED: callers must write every
// record they later read. The caller owns the buffer exclusively and is
// responsible for returning it — directly with Release, or by transferring
// ownership into a container packet or block engine that releases it later.
func NewPooled(n, size int) Buffer {
	if size < KeyBytes {
		panic(fmt.Sprintf("records: size %d < KeyBytes", size))
	}
	return Buffer{data: bufpool.Get(n * size), size: size}
}

// Release returns the buffer's storage to the pool. The caller must own the
// storage exclusively and must not use b (or any alias) afterwards. Safe on
// buffers that did not come from the pool: their storage is left to the GC.
func (b Buffer) Release() {
	if len(b.data) > 0 {
		bufpool.Put(b.data)
	}
}

// FromBytes wraps data (whose length must be a multiple of size) as a Buffer.
func FromBytes(data []byte, size int) Buffer {
	if size < KeyBytes || len(data)%size != 0 {
		panic("records: bad FromBytes arguments")
	}
	return Buffer{data: data, size: size}
}

// Len reports the number of records.
func (b Buffer) Len() int {
	if b.size == 0 {
		return 0
	}
	return len(b.data) / b.size
}

// Size reports the bytes per record.
func (b Buffer) Size() int { return b.size }

// Bytes reports the total payload size in bytes.
func (b Buffer) Bytes() int { return len(b.data) }

// Raw returns the buffer's entire backing byte slice.
func (b Buffer) Raw() []byte { return b.data }

// Record returns the i'th record as a mutable byte slice aliasing the buffer.
func (b Buffer) Record(i int) []byte { return b.data[i*b.size : (i+1)*b.size : (i+1)*b.size] }

// Key reports the sort key of record i.
func (b Buffer) Key(i int) Key {
	return Key(binary.LittleEndian.Uint32(b.data[i*b.size:]))
}

// SetKey sets the sort key of record i.
func (b Buffer) SetKey(i int, k Key) {
	binary.LittleEndian.PutUint32(b.data[i*b.size:], uint32(k))
}

// Swap exchanges records i and j in place. The sort kernel does not use
// it (it permutes whole records once, see sortkern.go); it remains for
// callers that shuffle records directly.
func (b Buffer) Swap(i, j int) {
	ri, rj := b.Record(i), b.Record(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Slice returns the sub-buffer of records [lo, hi); it aliases b.
func (b Buffer) Slice(lo, hi int) Buffer {
	return Buffer{data: b.data[lo*b.size : hi*b.size], size: b.size}
}

// Clone returns a deep copy of b.
func (b Buffer) Clone() Buffer {
	d := make([]byte, len(b.data))
	copy(d, b.data)
	return Buffer{data: d, size: b.size}
}

// ClonePooled returns a deep copy of b backed by pool storage. Use it where
// a packet needs its own copy of a slice of a larger buffer (loading input
// sets, staging flushes): the copy's ownership transfers into whatever
// structure the packet lands in, and comes back to the pool when that
// structure frees it.
func (b Buffer) ClonePooled() Buffer {
	d := bufpool.Get(len(b.data))
	copy(d, b.data)
	return Buffer{data: d, size: b.size}
}

// CopyFrom copies src's records into b starting at record offset dst.
// The record sizes must match.
func (b Buffer) CopyFrom(dst int, src Buffer) {
	if src.size != b.size {
		panic("records: CopyFrom size mismatch")
	}
	copy(b.data[dst*b.size:], src.data)
}

// IsSorted reports whether the buffer is nondecreasing by key.
func (b Buffer) IsSorted() bool {
	for i := 1; i < b.Len(); i++ {
		if b.Key(i) < b.Key(i-1) {
			return false
		}
	}
	return true
}

// Checksum is an order-independent digest of a multiset of records: equal
// multisets have equal checksums regardless of record order, so comparing
// input and output checksums verifies that a sort or shuffle moved every
// record exactly once and corrupted none.
type Checksum struct {
	Count int
	Sum   uint64 // sum of per-record hashes (hashRecord), wrapping
	Xor   uint64 // xor of per-record hashes
}

// Add folds all records of b into c.
func (c *Checksum) Add(b Buffer) {
	n := b.Len()
	for i := 0; i < n; i++ {
		h := hashRecord(b.Record(i))
		c.Count++
		c.Sum += h
		c.Xor ^= h
	}
}

// Equal reports whether c and d digest the same multiset (with overwhelming
// probability).
func (c Checksum) Equal(d Checksum) bool {
	return c.Count == d.Count && c.Sum == d.Sum && c.Xor == d.Xor
}

func (c Checksum) String() string {
	return fmt.Sprintf("{n=%d sum=%016x xor=%016x}", c.Count, c.Sum, c.Xor)
}

// Odd 64-bit constants for hashRecord (the wyhash family's secrets).
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
	hashK3 = 0x589965cc75374cc3
)

// mulFold multiplies a and b to 128 bits and folds the halves together, so
// every input bit can reach every output bit in one step.
func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashRecord is the per-record hash under Checksum: a multiply-fold hash that
// reads rec as little-endian 8-byte words. Whole 32-byte blocks feed two
// independent lanes (two words each), so the multiplies of one block overlap;
// leftover words then rotate through the lanes one at a time, and the final
// len(rec)%8 bytes are gathered bytewise into one more word. Each word is
// mixed with its lane's running state before the multiply, which makes the
// hash sensitive to where in the record a word sits; the length seeds lane a,
// so a zero-padded tail cannot pass for a shorter record. The values are
// never persisted — no report, store segment or baseline holds a checksum —
// so the function may change whenever a faster or stronger one turns up.
func hashRecord(rec []byte) uint64 {
	a, b := uint64(len(rec))^hashK0, uint64(hashK1)
	for ; len(rec) >= 32; rec = rec[32:] {
		a = mulFold(binary.LittleEndian.Uint64(rec)^hashK2, binary.LittleEndian.Uint64(rec[8:])^a)
		b = mulFold(binary.LittleEndian.Uint64(rec[16:])^hashK3, binary.LittleEndian.Uint64(rec[24:])^b)
	}
	for ; len(rec) >= 8; rec = rec[8:] {
		a, b = b, mulFold(binary.LittleEndian.Uint64(rec)^hashK2, a^hashK3)
	}
	var tail uint64
	for i, x := range rec {
		tail |= uint64(x) << (8 * uint(i))
	}
	// Final avalanche: fold the lanes and the tail together, then once more
	// against a constant so Sum and Xor see well-mixed bits.
	return mulFold(mulFold(a^tail^hashK2, b^hashK3)^hashK0, hashK1)
}
