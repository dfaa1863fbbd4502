package dsmsort

import (
	"cmp"
	"fmt"
	"slices"

	"lmas/internal/container"
	"lmas/internal/records"
)

// This file holds the integrity audits the sort's harness runs outside
// virtual time: the run-store check between passes and the final output
// validation. Both stream every stored packet through one packetAudit —
// digesting records, verifying sortedness, and checking bucket key ranges —
// without collecting the packets.

// fault locates the first packet an audit found at fault.
type fault struct {
	at          int // visit index; -1 while no packet offends
	asu, bucket int
}

// packetAudit is one streaming pass over stored packets: it digests every
// record and remembers the first packet visited that is not sorted and the
// first holding a record outside its expected bucket.
type packetAudit struct {
	sp                    []records.Key
	sum                   records.Checksum
	visited               int
	unsorted, misbucketed fault
}

func newPacketAudit(alpha int) packetAudit {
	return packetAudit{sp: records.Splitters(alpha), unsorted: fault{at: -1}, misbucketed: fault{at: -1}}
}

// visit folds b, stored on asu and expected inside bucket, into the audit.
func (a *packetAudit) visit(b records.Buffer, asu, bucket int) {
	a.sum.Add(b)
	sorted := b.IsSorted()
	if !sorted && a.unsorted.at < 0 {
		a.unsorted = fault{a.visited, asu, bucket}
	}
	if a.misbucketed.at < 0 && !inBucket(b, sorted, bucket, a.sp) {
		a.misbucketed = fault{a.visited, asu, bucket}
	}
	a.visited++
}

// inBucket reports whether every key in b falls in bucket want of sp. BucketOf
// is monotone in the key, so a buffer known to be sorted is inside the bucket
// exactly when its first and last keys are; an unsorted one is scanned record
// by record.
func inBucket(b records.Buffer, sorted bool, want int, sp []records.Key) bool {
	n := b.Len()
	if n == 0 {
		return true
	}
	if sorted {
		return records.BucketOf(b.Key(0), sp) == want && records.BucketOf(b.Key(n-1), sp) == want
	}
	for r := 0; r < n; r++ {
		if records.BucketOf(b.Key(r), sp) != want {
			return false
		}
	}
	return true
}

// audit digests every stored record and verifies run integrity (each run
// sorted and inside its bucket's key range) in one scan.
func (rs *RunStore) audit(alpha int) (records.Checksum, error) {
	a := newPacketAudit(alpha)
	for asu, row := range rs.Streams {
		for bucket, st := range row {
			if st == nil {
				continue
			}
			st.ForEach(func(pk container.Packet) bool {
				a.visit(pk.Buf, asu, bucket)
				return true
			})
		}
	}
	// Sortedness outranks bucket placement when one packet violates both.
	if u, m := a.unsorted, a.misbucketed; u.at >= 0 && (m.at < 0 || u.at <= m.at) {
		return a.sum, fmt.Errorf("run on asu%d bucket %d not sorted", u.asu, u.bucket)
	}
	if m := a.misbucketed; m.at >= 0 {
		return a.sum, fmt.Errorf("record in wrong bucket on asu%d: bucket %d", m.asu, m.bucket)
	}
	return a.sum, nil
}

// seqSpan is what the cross-sequence check needs of one non-empty output
// packet: where it sits in its bucket's order and its end keys.
type seqSpan struct {
	bucket, run       int
	firstKey, lastKey records.Key
}

// Validate checks that the output is a complete ascending sort of in:
// right count, matching multiset checksum, every packet sorted, packets
// within a bucket nondecreasing across sequence numbers, and bucket key
// ranges respected. It runs outside virtual time.
func (o *OutputStore) Validate(in *Input, alpha int) error {
	if got := o.Records(); got != int64(in.N) {
		return fmt.Errorf("dsmsort: output has %d records, want %d", got, in.N)
	}
	a := newPacketAudit(alpha)
	packets := 0
	for _, st := range o.Streams {
		packets += st.Packets()
	}
	spans := make([]seqSpan, 0, packets)
	for asu, st := range o.Streams {
		st.ForEach(func(pk container.Packet) bool {
			a.visit(pk.Buf, asu, pk.Bucket)
			if n := pk.Len(); n > 0 {
				spans = append(spans, seqSpan{pk.Bucket, pk.Run, pk.Buf.Key(0), pk.Buf.Key(n - 1)})
			}
			return true
		})
	}
	if u := a.unsorted; u.at >= 0 {
		return fmt.Errorf("dsmsort: unsorted output packet in bucket %d", u.bucket)
	}
	if m := a.misbucketed; m.at >= 0 {
		return fmt.Errorf("dsmsort: output record in wrong bucket %d", m.bucket)
	}
	if !a.sum.Equal(in.Checksum) {
		return fmt.Errorf("dsmsort: output checksum mismatch: %v vs %v", a.sum, in.Checksum)
	}
	slices.SortStableFunc(spans, func(x, y seqSpan) int {
		return cmp.Or(cmp.Compare(x.bucket, y.bucket), cmp.Compare(x.run, y.run))
	})
	for i := 1; i < len(spans); i++ {
		if prev, s := spans[i-1], spans[i]; s.bucket == prev.bucket && s.firstKey < prev.lastKey {
			return fmt.Errorf("dsmsort: bucket %d packets out of order across seq", s.bucket)
		}
	}
	return nil
}
