package records

import (
	"slices"
	"sync"
)

// The sort kernel below exists for the emulation host's wall clock only.
// Simulated sorting cost is charged analytically (log2(β) compares per
// record, per the paper's work equation), so the algorithm used to produce
// the sorted bytes is free to be as fast as possible: it changes no
// virtual-time outcome, only how long a run takes to execute.
//
// Strategy: sort (key, index) pairs with an LSD radix sort — 8-byte moves
// instead of full-record swaps — then apply the resulting permutation to
// the 128-byte records once, following cycles. A comparison sort on the
// pairs handles tiny buffers where radix passes don't amortize.

// radixMinLen is the buffer length below which pair sorting falls back to
// a comparison sort; radix counting passes don't amortize under ~64 keys.
const radixMinLen = 64

// keyIdx pairs a record's sort key with its original position. Sorting
// pairs and permuting once replaces O(n log n) full-record swaps with
// O(n) record moves.
type keyIdx struct {
	key uint32
	idx uint32
}

// sortScratch is the reusable working memory for one Sort call.
type sortScratch struct {
	pairs []keyIdx
	tmp   []keyIdx
	rec   []byte
}

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

// Sort sorts the buffer in place by key. The sort is not stable; records
// with equal keys may appear in any order, which is harmless because
// validation uses an order-independent checksum within equal-key runs.
// (The implementation happens to order equal keys by original position.)
func (b Buffer) Sort() {
	n := b.Len()
	if n < 2 {
		return
	}
	sc := sortPool.Get().(*sortScratch)
	sc.pairs = slices.Grow(sc.pairs[:0], n)[:n]
	for i := 0; i < n; i++ {
		sc.pairs[i] = keyIdx{key: uint32(b.Key(i)), idx: uint32(i)}
	}
	if n < radixMinLen {
		insertionSortPairs(sc.pairs)
	} else {
		sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
		radixSortPairs(sc.pairs, sc.tmp)
	}
	b.permute(sc)
	sortPool.Put(sc)
}

// insertionSortPairs orders pairs by (key, idx); n is tiny here.
func insertionSortPairs(a []keyIdx) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i
		for j > 0 && (a[j-1].key > p.key || (a[j-1].key == p.key && a[j-1].idx > p.idx)) {
			a[j] = a[j-1]
			j--
		}
		a[j] = p
	}
}

// radixSortPairs sorts pairs by key with an LSD radix sort, one 8-bit
// counting pass per key byte, skipping passes where every key shares the
// byte. It is stable, so equal keys stay in index order. On return the
// sorted pairs are in a; tmp is clobbered.
func radixSortPairs(a, tmp []keyIdx) {
	// One histogram sweep for all four byte positions.
	var counts [4][256]int
	for _, p := range a {
		counts[0][p.key&0xff]++
		counts[1][(p.key>>8)&0xff]++
		counts[2][(p.key>>16)&0xff]++
		counts[3][(p.key>>24)&0xff]++
	}
	src, dst := a, tmp
	for pass := 0; pass < 4; pass++ {
		cnt := &counts[pass]
		// Skip a pass when all keys share this byte (common for skewed
		// or low-entropy key ranges): it would be an identity shuffle.
		if cnt[src[0].key>>(uint(pass)*8)&0xff] == len(a) {
			continue
		}
		pos := 0
		var offs [256]int
		for v := 0; v < 256; v++ {
			offs[v] = pos
			pos += cnt[v]
		}
		shift := uint(pass) * 8
		for _, p := range src {
			v := (p.key >> shift) & 0xff
			dst[offs[v]] = p
			offs[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// permute rearranges the buffer so record i holds what was at
// pairs[i].idx, following permutation cycles with a single temporary
// record: each record is moved exactly once (plus one save/restore per
// cycle) instead of O(log n) times under swap-based sorting. pairs is
// consumed: idx fields are overwritten with a visited marker.
func (b Buffer) permute(sc *sortScratch) {
	const done = ^uint32(0)
	pairs := sc.pairs
	size := b.size
	sc.rec = slices.Grow(sc.rec[:0], size)[:size]
	tmp := sc.rec
	for i := range pairs {
		src := pairs[i].idx
		if src == done || int(src) == i {
			continue
		}
		// Record i starts a cycle: save it, then pull each record from
		// where its content must come from until the cycle closes.
		copy(tmp, b.data[i*size:(i+1)*size])
		dst := i
		for int(src) != i {
			copy(b.data[dst*size:(dst+1)*size], b.data[int(src)*size:(int(src)+1)*size])
			pairs[dst].idx = done
			dst = int(src)
			src = pairs[dst].idx
		}
		copy(b.data[dst*size:(dst+1)*size], tmp)
		pairs[dst].idx = done
	}
}
