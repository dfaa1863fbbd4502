package dsmsort

import (
	"math/rand"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
)

// packetAuditFullScan is the reference the streaming packetAudit is held to: a
// serial walk that tests every record of every packet against its bucket,
// sorted or not.
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
// unsorted-and-mis-bucketed packets injected — streams each through the audit
// and requires its checksum and both lowest-index verdicts to equal the full
// scan's.
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
		// Stream the packets through the audit, passing each one's index as
		// its ASU so a fault's location can be checked against its index.
		a := newPacketAudit(alpha)
		for i, pk := range pks {
			a.visit(pk.Buf, i, pk.Bucket)
		}
		sum, badSorted, badBucket := a.sum, a.unsorted.at, a.misbucketed.at
		if sum != wantSum || badSorted != wantSorted || badBucket != wantBucket {
			t.Fatalf("trial %d (%d packets, faults %v): audit = (%v, %d, %d), full scan = (%v, %d, %d)",
				trial, len(pks), faults, sum, badSorted, badBucket, wantSum, wantSorted, wantBucket)
		}
		for _, f := range []fault{a.unsorted, a.misbucketed} {
			if f.at >= 0 && (f.asu != f.at || f.bucket != pks[f.at].Bucket) {
				t.Fatalf("trial %d: fault %+v does not locate packet %d (bucket %d)", trial, f, f.at, pks[f.at].Bucket)
			}
		}
	}
	if sawUnsorted < 50 || sawMisbucket < 50 || sawClean < 50 {
		t.Fatalf("weak coverage: %d unsorted, %d mis-bucketed, %d clean lists", sawUnsorted, sawMisbucket, sawClean)
	}
}

// TestValidateNamesLowestOutOfOrderBucket swaps the records of two
// consecutive equal-length packets in each of two buckets. Every packet stays
// sorted and inside its bucket, and the multiset is intact, so only the
// cross-sequence check catches the damage; it must name the lower of the two
// buckets on every call.
func TestValidateNamesLowestOutOfOrderBucket(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 4000, records.Uniform{}, 5, 32)
	cfg := smallConfig()
	res, err := Sort(cl, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	// Packets alias stored blocks, so swapping bytes through ForEach
	// corrupts the store.
	seq := map[int]map[int]records.Buffer{}
	for _, st := range res.Output.Streams {
		st.ForEach(func(pk container.Packet) bool {
			if seq[pk.Bucket] == nil {
				seq[pk.Bucket] = map[int]records.Buffer{}
			}
			seq[pk.Bucket][pk.Run] = pk.Buf
			return true
		})
	}
	for _, bucket := range []int{3, 1} {
		swapped := false
		for r := 0; !swapped && r+1 < len(seq[bucket]); r++ {
			x, y := seq[bucket][r], seq[bucket][r+1]
			if x.Len() > 0 && x.Len() == y.Len() && x.Key(x.Len()-1) < y.Key(0) {
				tmp := x.Clone()
				x.CopyFrom(0, y)
				y.CopyFrom(0, tmp)
				swapped = true
			}
		}
		if !swapped {
			t.Fatalf("bucket %d has no two consecutive equal-length packets to swap", bucket)
		}
	}
	want := "dsmsort: bucket 1 packets out of order across seq"
	for i := 0; i < 20; i++ {
		if err := res.Output.Validate(in, cfg.Alpha); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
}
