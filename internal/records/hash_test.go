package records

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// hashSizes are the record sizes the hash tests sweep: the minimum (a bare
// key), one tail byte, a word plus a tail, the lane loop plus a leftover
// word and a tail (100), the paper's size, and that plus a tail.
var hashSizes = []int{4, 5, 12, 100, 128, 131}

func randomRecord(size int, seed int64) []byte {
	rec := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(rec)
	return rec
}

// TestHashEveryBitCounts flips each single bit of a record: every byte must
// reach the digest, whichever lane, leftover word or tail it sits in.
func TestHashEveryBitCounts(t *testing.T) {
	for _, size := range hashSizes {
		rec := randomRecord(size, int64(size))
		want := hashRecord(rec)
		for bit := 0; bit < size*8; bit++ {
			rec[bit/8] ^= 1 << (bit % 8)
			if hashRecord(rec) == want {
				t.Fatalf("size %d: flipping bit %d left the hash unchanged", size, bit)
			}
			rec[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// TestHashPositionSensitive swaps every pair of 8-byte words in a record: a
// hash that merely summed or xored its words would not notice.
func TestHashPositionSensitive(t *testing.T) {
	for _, size := range []int{100, 128, 131} {
		rec := randomRecord(size, 7)
		want := hashRecord(rec)
		word := func(i int) []byte { return rec[i*8 : i*8+8] }
		for i := 0; i < size/8; i++ {
			for j := i + 1; j < size/8; j++ {
				wi, wj := binary.LittleEndian.Uint64(word(i)), binary.LittleEndian.Uint64(word(j))
				binary.LittleEndian.PutUint64(word(i), wj)
				binary.LittleEndian.PutUint64(word(j), wi)
				if hashRecord(rec) == want {
					t.Fatalf("size %d: swapping words %d and %d left the hash unchanged", size, i, j)
				}
				binary.LittleEndian.PutUint64(word(i), wi)
				binary.LittleEndian.PutUint64(word(j), wj)
			}
		}
	}
}

// TestHashTailBytes: records equal except in the bytes past the last whole
// word differ, and a zero-padded tail does not pass for a shorter record.
func TestHashTailBytes(t *testing.T) {
	for _, size := range hashSizes {
		a := randomRecord(size, 3)
		tail := size % 8
		if tail == 0 {
			tail = 8 // no bytewise tail: the last whole word stands in
		}
		for off := size - tail; off < size; off++ {
			b := append([]byte(nil), a...)
			b[off]++
			if hashRecord(a) == hashRecord(b) {
				t.Fatalf("size %d: records differing only in byte %d hash alike", size, off)
			}
		}
		zeroTail := append(append([]byte(nil), a...), 0)
		if hashRecord(a) == hashRecord(zeroTail) {
			t.Fatalf("size %d: appending a zero byte left the hash unchanged", size)
		}
	}
}

func TestChecksumEmpty(t *testing.T) {
	var c Checksum
	c.Add(Buffer{})
	c.Add(NewBuffer(0, DefaultSize))
	if c != (Checksum{}) {
		t.Fatalf("empty buffers digest to %v, want the zero Checksum", c)
	}
}

// TestChecksumPiecewise: validation digests the output packet by packet and
// compares with the input digested whole, so adding a buffer's pieces to one
// Checksum must give the whole buffer's digest at any split point.
func TestChecksumPiecewise(t *testing.T) {
	b := Generate(1000, 64, 7, Uniform{})
	var whole Checksum
	whole.Add(b)
	for _, cut := range []int{0, 1, 500, 999, 1000} {
		var pieces Checksum
		pieces.Add(b.Slice(0, cut))
		pieces.Add(b.Slice(cut, 1000))
		if pieces != whole {
			t.Fatalf("cut=%d: pieces digest to %+v, whole %+v", cut, pieces, whole)
		}
	}
}
