package dsmsort

import (
	"fmt"
	"sort"

	"lmas/internal/container"
	"lmas/internal/records"
)

// This file holds the integrity audits the sort's harness runs outside
// virtual time: the run-store check between passes and the final output
// validation. Both walk every stored packet — digesting records, verifying
// sortedness, and checking bucket key ranges.

// packetAudit digests every packet in pks and locates integrity violations:
// the lowest-index packet that is not sorted, and the lowest-index packet
// containing a record outside its expected bucket (per bucketOf). Either
// index is -1 when no packet offends.
func packetAudit(pks []container.Packet, bucketOf func(i int) int, sp []records.Key) (sum records.Checksum, badSorted, badBucket int) {
	badSorted, badBucket = -1, -1
	for i, pk := range pks {
		sum.Add(pk.Buf)
		sorted := pk.Buf.IsSorted()
		if !sorted && badSorted < 0 {
			badSorted = i
		}
		if badBucket < 0 && !inBucket(pk.Buf, sorted, bucketOf(i), sp) {
			badBucket = i
		}
	}
	return sum, badSorted, badBucket
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

// runLoc names a run packet's position in the run store.
type runLoc struct{ asu, bucket int }

// audit digests every stored record and verifies run integrity (each run
// sorted and inside its bucket's key range) in one scan.
func (rs *RunStore) audit(alpha int) (records.Checksum, error) {
	sp := records.Splitters(alpha)
	var pks []container.Packet
	var locs []runLoc
	for asu, row := range rs.Streams {
		for bucket, st := range row {
			if st == nil {
				continue
			}
			st.ForEach(func(pk container.Packet) bool {
				pks = append(pks, pk)
				locs = append(locs, runLoc{asu, bucket})
				return true
			})
		}
	}
	sum, badSorted, badBucket := packetAudit(pks,
		func(i int) int { return locs[i].bucket }, sp)
	// Sortedness outranks bucket placement when one packet violates both.
	if badSorted >= 0 && (badBucket < 0 || badSorted <= badBucket) {
		l := locs[badSorted]
		return sum, fmt.Errorf("run on asu%d bucket %d not sorted", l.asu, l.bucket)
	}
	if badBucket >= 0 {
		l := locs[badBucket]
		return sum, fmt.Errorf("record in wrong bucket on asu%d: bucket %d", l.asu, l.bucket)
	}
	return sum, nil
}

// Validate checks that the output is a complete ascending sort of in:
// right count, matching multiset checksum, every packet sorted, packets
// within a bucket nondecreasing across sequence numbers, and bucket key
// ranges respected. It runs outside virtual time.
func (o *OutputStore) Validate(in *Input, alpha int) error {
	if got := o.Records(); got != int64(in.N) {
		return fmt.Errorf("dsmsort: output has %d records, want %d", got, in.N)
	}
	var pks []container.Packet
	for _, st := range o.Streams {
		st.ForEach(func(pk container.Packet) bool {
			pks = append(pks, pk)
			return true
		})
	}
	sum, badSorted, badBucket := packetAudit(pks,
		func(i int) int { return pks[i].Bucket }, records.Splitters(alpha))
	if badSorted >= 0 {
		return fmt.Errorf("dsmsort: unsorted output packet in bucket %d", pks[badSorted].Bucket)
	}
	if badBucket >= 0 {
		return fmt.Errorf("dsmsort: output record in wrong bucket %d", pks[badBucket].Bucket)
	}
	if !sum.Equal(in.Checksum) {
		return fmt.Errorf("dsmsort: output checksum mismatch: %v vs %v", sum, in.Checksum)
	}
	byBucket := map[int][]container.Packet{}
	for _, pk := range pks {
		byBucket[pk.Bucket] = append(byBucket[pk.Bucket], pk)
	}
	for bucket, bpks := range byBucket {
		sort.Slice(bpks, func(i, j int) bool { return bpks[i].Run < bpks[j].Run })
		var last records.Key
		haveLast := false
		for _, pk := range bpks {
			if pk.Len() == 0 {
				continue
			}
			if haveLast && pk.Buf.Key(0) < last {
				return fmt.Errorf("dsmsort: bucket %d packets out of order across seq", bucket)
			}
			last = pk.Buf.Key(pk.Len() - 1)
			haveLast = true
		}
	}
	return nil
}
