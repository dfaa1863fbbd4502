package dsmsort

import (
	"fmt"
	"sort"

	"lmas/internal/container"
	"lmas/internal/records"
)

// This file holds the chunked integrity audits the sort's harness runs
// outside virtual time: the run-store check between passes and the final
// output validation. Both walk every stored packet — digesting records,
// verifying sortedness, and checking bucket key ranges — which is the
// dominant teardown cost of a bench cell, so the per-packet work dispatches
// through the engine's offload seam (records.Executor over Sim.ExecChunks).
// Verdicts and checksums are identical for every executor: chunks own
// disjoint packet ranges, partial checksums combine commutatively, and the
// first offending packet is selected by index after the scan.

// auditGrain is the packets-per-chunk grain (~2k records at the default
// 64-record packet size).
const auditGrain = 32

// packetAudit digests every packet in pks and locates integrity violations:
// the lowest-index packet that is not sorted, and the lowest-index packet
// containing a record outside its expected bucket (per bucketOf). Either
// index is -1 when no packet offends. The per-chunk scans run through exec;
// nil or small inputs scan serially.
func packetAudit(pks []container.Packet, bucketOf func(i int) int, sp []records.Key, exec records.Executor) (sum records.Checksum, badSorted, badBucket int) {
	nc := (len(pks) + auditGrain - 1) / auditGrain
	if exec == nil || nc < 2 {
		exec = records.Serial
	}
	sums := make([]records.Checksum, nc)
	unsorted := make([]int, nc)
	misbucket := make([]int, nc)
	exec(nc, func(ci int) {
		unsorted[ci], misbucket[ci] = -1, -1
		lo, hi := ci*auditGrain, (ci+1)*auditGrain
		if hi > len(pks) {
			hi = len(pks)
		}
		for i := lo; i < hi; i++ {
			pk := pks[i]
			sums[ci].Add(pk.Buf)
			sorted := pk.Buf.IsSorted()
			if !sorted && unsorted[ci] < 0 {
				unsorted[ci] = i
			}
			if misbucket[ci] < 0 && !inBucket(pk.Buf, sorted, bucketOf(i), sp) {
				misbucket[ci] = i
			}
		}
	})
	badSorted, badBucket = -1, -1
	for ci := 0; ci < nc; ci++ {
		sum.Combine(sums[ci])
		if badSorted < 0 && unsorted[ci] >= 0 {
			badSorted = unsorted[ci]
		}
		if badBucket < 0 && misbucket[ci] >= 0 {
			badBucket = misbucket[ci]
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

// auditExec digests every stored record and verifies run integrity (each run
// sorted and inside its bucket's key range) in one chunked scan through exec.
// It subsumes Checksum + sortedRunsOK; results match those serial references
// for every executor.
func (rs *RunStore) auditExec(alpha int, exec records.Executor) (records.Checksum, error) {
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
		func(i int) int { return locs[i].bucket }, sp, exec)
	// Sortedness outranks bucket placement when one packet violates both,
	// matching sortedRunsOK's per-packet check order.
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

// ValidateExec is OutputStore.Validate with the per-packet checks (multiset
// checksum, packet sortedness, bucket key ranges) chunked through exec. The
// cross-packet order check within each bucket stays on the calling goroutine
// (it is a cheap boundary-key walk). Verdicts are identical to Validate for
// every executor.
func (o *OutputStore) ValidateExec(in *Input, alpha int, exec records.Executor) error {
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
		func(i int) int { return pks[i].Bucket }, records.Splitters(alpha), exec)
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
