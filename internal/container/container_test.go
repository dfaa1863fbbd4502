package container

import (
	"testing"
	"testing/quick"

	"lmas/internal/bte"
	"lmas/internal/disk"
	"lmas/internal/records"
	"lmas/internal/sim"
)

const recSize = 16

func mkPacket(keys ...records.Key) Packet {
	b := records.NewBuffer(len(keys), recSize)
	for i, k := range keys {
		b.SetKey(i, k)
	}
	return NewPacket(b)
}

// run executes fn as a proc on a fresh sim and fails the test on error.
func run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	s := sim.New()
	s.Spawn("test", fn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOrderedScan(t *testing.T) {
	run(t, func(p *sim.Proc) {
		st := NewStream("s", bte.NewMemory(), recSize)
		for i := 0; i < 5; i++ {
			st.Append(p, mkPacket(records.Key(i*10), records.Key(i*10+1)))
		}
		if st.Packets() != 5 || st.Records() != 10 {
			t.Errorf("packets=%d records=%d", st.Packets(), st.Records())
		}
		sc := st.Scan()
		for i := 0; i < 5; i++ {
			pk, ok := sc.Next(p)
			if !ok {
				t.Fatalf("scan ended early at %d", i)
			}
			if pk.Buf.Key(0) != records.Key(i*10) {
				t.Fatalf("packet %d out of order: key %d", i, pk.Buf.Key(0))
			}
		}
		if _, ok := sc.Next(p); ok {
			t.Error("scan did not end")
		}
	})
}

func TestStreamRescanDeliversEverything(t *testing.T) {
	run(t, func(p *sim.Proc) {
		st := NewStream("s", bte.NewMemory(), recSize)
		for i := 0; i < 3; i++ {
			st.Append(p, mkPacket(records.Key(i)))
		}
		for scanN := 0; scanN < 3; scanN++ {
			sc := st.Scan()
			n := 0
			for {
				if _, ok := sc.Next(p); !ok {
					break
				}
				n++
			}
			if n != 3 {
				t.Fatalf("scan %d delivered %d packets, want 3 (marks must reset)", scanN, n)
			}
		}
	})
}

func TestSetScanRotationsCoverAll(t *testing.T) {
	run(t, func(p *sim.Proc) {
		set := NewSet("set", bte.NewMemory(), recSize)
		const n = 7
		for i := 0; i < n; i++ {
			set.Add(p, mkPacket(records.Key(i)))
		}
		for rotate := -3; rotate < 10; rotate++ {
			seen := map[records.Key]bool{}
			sc := set.Scan(rotate, false)
			for {
				pk, ok := sc.Next(p)
				if !ok {
					break
				}
				k := pk.Buf.Key(0)
				if seen[k] {
					t.Fatalf("rotate=%d: duplicate packet %d", rotate, k)
				}
				seen[k] = true
			}
			if len(seen) != n {
				t.Fatalf("rotate=%d: saw %d of %d packets", rotate, len(seen), n)
			}
		}
	})
}

func TestSetRotationChangesOrder(t *testing.T) {
	run(t, func(p *sim.Proc) {
		set := NewSet("set", bte.NewMemory(), recSize)
		for i := 0; i < 4; i++ {
			set.Add(p, mkPacket(records.Key(i)))
		}
		first := func(rotate int) records.Key {
			sc := set.Scan(rotate, false)
			pk, _ := sc.Next(p)
			return pk.Buf.Key(0)
		}
		if first(0) == first(2) {
			t.Error("rotation does not change delivery order")
		}
	})
}

func TestDestructiveScanReleasesStorage(t *testing.T) {
	run(t, func(p *sim.Proc) {
		eng := bte.NewMemory()
		set := NewSet("set", eng, recSize)
		for i := 0; i < 4; i++ {
			set.Add(p, mkPacket(records.Key(i), records.Key(i+100)))
		}
		sc := set.Scan(0, true)
		sc.Next(p)
		sc.Next(p)
		if set.Packets() != 2 {
			t.Fatalf("after consuming 2 of 4: %d live packets", set.Packets())
		}
		if eng.Blocks() != 2 {
			t.Fatalf("engine still holds %d blocks", eng.Blocks())
		}
		if sc.Remaining() != 2 {
			t.Fatalf("Remaining = %d", sc.Remaining())
		}
		for {
			if _, ok := sc.Next(p); !ok {
				break
			}
		}
		if set.Packets() != 0 || set.Records() != 0 || eng.Bytes() != 0 {
			t.Fatal("destructive scan left storage behind")
		}
	})
}

func TestPacketMetadataSurvivesStorage(t *testing.T) {
	run(t, func(p *sim.Proc) {
		st := NewStream("s", bte.NewMemory(), recSize)
		pk := mkPacket(3, 1, 2)
		pk.Buf.Sort()
		pk.Sorted = true
		pk.Bucket = 7
		pk.Run = 42
		st.Append(p, pk)
		got, ok := st.Scan().Next(p)
		if !ok {
			t.Fatal("no packet")
		}
		if !got.Sorted || got.Bucket != 7 || got.Run != 42 {
			t.Fatalf("metadata lost: %v", got)
		}
		if !got.Buf.IsSorted() {
			t.Fatal("payload corrupted")
		}
	})
}

func TestRecordSizeMismatchPanics(t *testing.T) {
	run(t, func(p *sim.Proc) {
		st := NewStream("s", bte.NewMemory(), recSize)
		defer func() {
			if recover() == nil {
				t.Error("no panic for record size mismatch")
			}
		}()
		st.Append(p, NewPacket(records.NewBuffer(1, recSize*2)))
	})
}

func TestScanOnDiskChargesIO(t *testing.T) {
	s := sim.New()
	d := disk.New(s, "d", 100e6)
	eng := bte.NewDisk(d)
	var elapsed sim.Time
	s.Spawn("p", func(p *sim.Proc) {
		st := NewStream("s", eng, recSize)
		buf := records.NewBuffer(62500, recSize) // 1 MB
		st.Append(p, NewPacket(buf))
		st.Flush(p)
		start := p.Now()
		sc := st.Scan()
		for {
			if _, ok := sc.Next(p); !ok {
				break
			}
		}
		elapsed = p.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != sim.Time(10*sim.Millisecond) {
		t.Fatalf("1MB scan took %v, want 10ms at 100MB/s", elapsed)
	}
}

func TestEmptyCollectionScans(t *testing.T) {
	run(t, func(p *sim.Proc) {
		st := NewStream("s", bte.NewMemory(), recSize)
		if _, ok := st.Scan().Next(p); ok {
			t.Error("empty stream delivered a packet")
		}
		set := NewSet("set", bte.NewMemory(), recSize)
		if _, ok := set.Scan(5, true).Next(p); ok {
			t.Error("empty set delivered a packet")
		}
	})
}

// TestSetScanProperty: for any packet count and rotation, a scan delivers
// each packet exactly once.
func TestSetScanProperty(t *testing.T) {
	f := func(nRaw uint8, rotate int8) bool {
		n := int(nRaw % 20)
		ok := true
		run(t, func(p *sim.Proc) {
			set := NewSet("set", bte.NewMemory(), recSize)
			for i := 0; i < n; i++ {
				set.Add(p, mkPacket(records.Key(i)))
			}
			seen := make(map[records.Key]int)
			sc := set.Scan(int(rotate), false)
			for {
				pk, more := sc.Next(p)
				if !more {
					break
				}
				seen[pk.Buf.Key(0)]++
			}
			if len(seen) != n {
				ok = false
				return
			}
			for _, c := range seen {
				if c != 1 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
