package dsmsort

import (
	"math/rand"
	"testing"

	"lmas/internal/container"
	"lmas/internal/records"
)

// packetAuditFullScan is the reference packetAudit is held to: a serial walk
// that tests every record of every packet against its bucket, sorted or not.
func packetAuditFullScan(pks []container.Packet, bucketOf func(i int) int, sp []records.Key) (sum records.Checksum, badSorted, badBucket int) {
	badSorted, badBucket = -1, -1
	for i, pk := range pks {
		sum.Add(pk.Buf)
		if badSorted < 0 && !pk.Buf.IsSorted() {
			badSorted = i
		}
		for r := 0; badBucket < 0 && r < pk.Len(); r++ {
			if records.BucketOf(pk.Buf.Key(r), sp) != bucketOf(i) {
				badBucket = i
			}
		}
	}
	return sum, badSorted, badBucket
}

// TestPacketAuditMatchesFullScan builds random packet lists — sorted packets
// inside their bucket's key range, with unsorted, mis-bucketed and
// unsorted-and-mis-bucketed packets injected — and requires the audit's
// checksum and both lowest-index verdicts to equal the full scan's.
func TestPacketAuditMatchesFullScan(t *testing.T) {
	const alpha, recSize = 8, 16
	sp := records.Splitters(alpha)
	rng := rand.New(rand.NewSource(13))
	bucketLo := func(b int) records.Key {
		if b == 0 {
			return 0
		}
		return sp[b-1]
	}
	width := sp[0]
	var sawUnsorted, sawMisbucket, sawClean int
	for trial := 0; trial < 300; trial++ {
		pks := make([]container.Packet, rng.Intn(160))
		var faults [3]int
		for i := range pks {
			bucket := rng.Intn(alpha)
			n := rng.Intn(12)
			buf := records.Generate(n, recSize, rng.Int63(), records.Uniform{})
			for r := 0; r < n; r++ {
				buf.SetKey(r, bucketLo(bucket)+records.Key(rng.Int63n(int64(width))))
			}
			buf.Sort()
			// Inject a fault into roughly one packet in ten; later trials
			// inject none so clean lists are covered too.
			if n >= 3 && trial < 250 && rng.Intn(10) == 0 {
				other := bucketLo((bucket+1+rng.Intn(alpha-1))%alpha) + records.Key(rng.Int63n(int64(width)))
				switch fault := rng.Intn(3); fault {
				case 0: // unsorted, still inside the bucket
					if buf.Key(0) != buf.Key(n-1) {
						buf.Swap(0, n-1)
						faults[fault]++
					}
				case 1: // sorted, but one end leaves the bucket
					if other > buf.Key(n-1) {
						buf.SetKey(n-1, other)
					} else {
						buf.SetKey(0, other)
					}
					faults[fault]++
				case 2: // a stray key in the middle: unsorted, ends in range
					if mid := 1 + rng.Intn(n-2); other < buf.Key(mid-1) || other > buf.Key(mid+1) {
						buf.SetKey(mid, other)
						faults[fault]++
					}
				}
			}
			pks[i] = container.Packet{Buf: buf, Bucket: bucket}
		}
		bucketOf := func(i int) int { return pks[i].Bucket }
		wantSum, wantSorted, wantBucket := packetAuditFullScan(pks, bucketOf, sp)
		if wantSorted >= 0 {
			sawUnsorted++
		}
		if wantBucket >= 0 {
			sawMisbucket++
		}
		if wantSorted < 0 && wantBucket < 0 {
			sawClean++
		}
		sum, badSorted, badBucket := packetAudit(pks, bucketOf, sp)
		if sum != wantSum || badSorted != wantSorted || badBucket != wantBucket {
			t.Fatalf("trial %d (%d packets, faults %v): audit = (%v, %d, %d), full scan = (%v, %d, %d)",
				trial, len(pks), faults, sum, badSorted, badBucket, wantSum, wantSorted, wantBucket)
		}
	}
	if sawUnsorted < 50 || sawMisbucket < 50 || sawClean < 50 {
		t.Fatalf("weak coverage: %d unsorted, %d mis-bucketed, %d clean lists", sawUnsorted, sawMisbucket, sawClean)
	}
}
