package records

// MergeItem is one source's current head in a k-way merge: its key and the
// index of the source it came from.
type MergeItem struct {
	Key Key
	Src int
}

// MergeHeap is a loser-tree-equivalent k-way merge frontier, shared by every
// merge in the tree (dsmsort's ASU and host merges, extsort's run merge). It
// is a hand-rolled binary heap rather than container/heap because heap.Pop
// boxes every popped item into an interface value — one allocation per
// exhausted merge source — and the merge frontier sits in the hottest
// emulation-host loop of the merge pass. Fill it with append, call Init,
// then read h[0] and either overwrite it and FixTop or PopTop.
type MergeHeap []MergeItem

// siftDown restores the heap property below index i.
func (h MergeHeap) siftDown(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].Key < h[least].Key {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].Key < h[least].Key {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Init heapifies h in place.
func (h MergeHeap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// FixTop restores the heap property after the root's key changed.
func (h MergeHeap) FixTop() { h.siftDown(0) }

// PopTop removes the root (its merge source is exhausted).
func (h *MergeHeap) PopTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).siftDown(0)
}
