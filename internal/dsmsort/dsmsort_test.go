package dsmsort

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/route"
)

func testParams(hosts, asus int) cluster.Params {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = hosts, asus
	return p
}

func smallConfig() Config {
	return Config{
		Alpha:         4,
		Beta:          64,
		Gamma2:        8,
		PacketRecords: 32,
		Placement:     Active,
		Seed:          1,
	}
}

func TestConfigValidate(t *testing.T) {
	p := testParams(1, 2)
	good := smallConfig()
	if err := good.Validate(p); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Alpha: 0, Beta: 1, Gamma2: 2, PacketRecords: 1},
		{Alpha: 1, Beta: 0, Gamma2: 2, PacketRecords: 1},
		{Alpha: 1, Beta: 1, Gamma2: 0, PacketRecords: 1},
		{Alpha: 1, Beta: 1, Gamma2: 2, PacketRecords: 0},
		{Alpha: 1 << 20, Beta: 1, Gamma2: 2, PacketRecords: 64}, // alpha over ASU buffer
		{Alpha: 1, Beta: 1 << 30, Gamma2: 2, PacketRecords: 1},  // beta over host memory
	}
	for i, c := range bad {
		if err := c.Validate(p); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestWorkEquation(t *testing.T) {
	// Total Work = n log(alpha*beta*gamma): TAB-WORK.
	c := Config{Alpha: 16, Beta: 256, Gamma2: 4}
	n := 1 << 20
	got := c.TotalCompares(n, 4) // gamma1 = 4
	want := float64(n) * math.Log2(16*256*4*4)
	if math.Abs(got-want) > 1 {
		t.Fatalf("TotalCompares = %v, want %v", got, want)
	}
}

func TestMakeInputStripesAcrossASUs(t *testing.T) {
	cl := cluster.New(testParams(1, 4))
	in := MakeInput(cl, 1000, records.Uniform{}, 7, 32)
	if len(in.Sets) != 4 {
		t.Fatalf("%d sets", len(in.Sets))
	}
	var total int64
	for _, set := range in.Sets {
		if set.Records() == 0 {
			t.Fatal("an ASU received no data")
		}
		total += set.Records()
	}
	if total != 1000 {
		t.Fatalf("striped %d records, want 1000", total)
	}
}

func TestRunFormationActive(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 2000, records.Uniform{}, 3, 32)
	rs, res, err := RunFormation(cl, smallConfig(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Runs == 0 || rs.Records() != 2000 {
		t.Fatalf("runs=%d records=%d", res.Runs, rs.Records())
	}
	if res.ASUOps == 0 {
		t.Fatal("active placement charged no ASU ops")
	}
	if res.HostOps == 0 {
		t.Fatal("no host ops charged")
	}
	if res.NetBytes == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestRunFormationConventionalChargesNoASUCompute(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 2000, records.Uniform{}, 3, 32)
	cfg := smallConfig()
	cfg.Placement = Conventional
	_, res, err := RunFormation(cl, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.ASUOps != 0 {
		t.Fatalf("conventional storage charged %v ASU ops", res.ASUOps)
	}
	if res.HostOps == 0 {
		t.Fatal("no host ops charged")
	}
}

// TestOffloadShiftsWork verifies the core claim of the programming model:
// raising alpha shifts computation from hosts to ASUs in the active
// configuration (Figure 9's mechanism).
func TestOffloadShiftsWork(t *testing.T) {
	work := func(alpha int) (host, asu float64) {
		cl := cluster.New(testParams(1, 4))
		in := MakeInput(cl, 4000, records.Uniform{}, 3, 32)
		cfg := smallConfig()
		cfg.Alpha = alpha
		_, res, err := RunFormation(cl, cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.HostOps, res.ASUOps
	}
	h1, a1 := work(1)
	h256, a256 := work(256)
	if a256 <= a1 {
		t.Fatalf("alpha=256 ASU ops %v <= alpha=1 ASU ops %v", a256, a1)
	}
	// Host work per record is nearly alpha-independent in the active
	// config (only per-packet handling varies, because high fan-out
	// distribution yields smaller packets).
	if math.Abs(h256-h1)/h1 > 0.25 {
		t.Fatalf("host ops moved with alpha: %v vs %v", h1, h256)
	}
}

// TestActiveBeatsConventionalWithManyASUs and its converse check the
// Figure 9 crossover in miniature.
func TestFigure9CrossoverShape(t *testing.T) {
	elapsed := func(d int, placement Placement) float64 {
		p := testParams(1, d)
		cl := cluster.New(p)
		in := MakeInput(cl, 65536, records.Uniform{}, 3, 32)
		cfg := Config{Alpha: 64, Beta: 64, Gamma2: 8, PacketRecords: 32, Placement: placement, Seed: 1}
		_, res, err := RunFormation(cl, cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	// Few ASUs: active is slower (weak ASUs bottleneck the distribute).
	if sp := elapsed(2, Conventional) / elapsed(2, Active); sp >= 1 {
		t.Fatalf("2 ASUs: active speedup %.2f, want < 1 (ASUs should bottleneck)", sp)
	}
	// Many ASUs: active is faster (host freed of distribute work).
	if sp := elapsed(32, Conventional) / elapsed(32, Active); sp <= 1 {
		t.Fatalf("32 ASUs: active speedup %.2f, want > 1", sp)
	}
}

func TestFullSortHybridPlacement(t *testing.T) {
	cl := cluster.New(testParams(1, 3))
	in := MakeInput(cl, 3000, records.Uniform{}, 5, 32)
	cfg := smallConfig()
	cfg.Placement = Hybrid
	if _, err := Sort(cl, cfg, in); err != nil {
		t.Fatal(err)
	}
}

func TestHybridMigratesWithScale(t *testing.T) {
	share := func(d int) float64 {
		cl := cluster.New(testParams(1, d))
		in := MakeInput(cl, 1<<14, records.Uniform{}, 5, 32)
		cfg := smallConfig()
		cfg.Alpha = 64
		cfg.Placement = Hybrid
		_, res, err := RunFormation(cl, cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.HybridHostShare
	}
	few, many := share(2), share(16)
	if few < 0.3 {
		t.Errorf("d=2: only %.0f%% of distribute migrated to the host", 100*few)
	}
	if many >= few {
		t.Errorf("host share grew with ASUs: %.2f -> %.2f", few, many)
	}
}

func TestFullSortSmall(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 3000, records.Uniform{}, 5, 32)
	res, err := Sort(cl, smallConfig(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Output.Records() != 3000 {
		t.Fatalf("elapsed=%v records=%d", res.Elapsed, res.Output.Records())
	}
	h, a := res.MeasuredWork()
	if h <= 0 || a <= 0 {
		t.Fatalf("work split %v/%v", h, a)
	}
}

func TestFullSortSkewedInput(t *testing.T) {
	cl := cluster.New(testParams(2, 3))
	in := MakeInputHalves(cl, 4000, records.Uniform{}, records.Exponential{Mean: 0.05}, 5, 32)
	cfg := smallConfig()
	cfg.SortPolicy = route.NewSR(2)
	if _, err := Sort(cl, cfg, in); err != nil {
		t.Fatal(err)
	}
}

func TestFullSortAlreadySorted(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 2000, &records.Sorted{}, 5, 32)
	if _, err := Sort(cl, smallConfig(), in); err != nil {
		t.Fatal(err)
	}
}

func TestFullSortDuplicateKeys(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 2000, constDist{}, 5, 32)
	if _, err := Sort(cl, smallConfig(), in); err != nil {
		t.Fatal(err)
	}
}

type constDist struct{}

func (constDist) Name() string                  { return "const" }
func (constDist) Draw(_ *rand.Rand) records.Key { return 42 }

func TestMultiLevelLocalMerge(t *testing.T) {
	// Tiny gamma2 with many runs forces intermediate ASU merge levels.
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 4096, records.Uniform{}, 5, 32)
	cfg := Config{Alpha: 2, Beta: 16, Gamma2: 2, PacketRecords: 32, Placement: Active, Seed: 1}
	rs, _, err := RunFormation(cl, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	out, mr, err := MergePass(cl, cfg, rs)
	if err != nil {
		t.Fatal(err)
	}
	if mr.ASUMergeLevels < 2 {
		t.Fatalf("expected multi-level local merge, got %d levels", mr.ASUMergeLevels)
	}
	if err := out.Validate(in, cfg.Alpha); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRejectsGamma1(t *testing.T) {
	cl := cluster.New(testParams(1, 1))
	cfg := smallConfig()
	cfg.Gamma2 = 1
	rs := NewRunStore(cl, cfg.Alpha)
	if _, _, err := MergePass(cl, cfg, rs); err == nil {
		t.Fatal("gamma2=1 accepted")
	}
}

// TestSortProperty: the full pipeline sorts arbitrary configurations.
func TestSortProperty(t *testing.T) {
	f := func(seed int64, alphaRaw, betaRaw uint8, dists uint8) bool {
		alpha := 1 << (alphaRaw % 5) // 1..16
		beta := 8 << (betaRaw % 4)   // 8..64
		var dist records.KeyDist = records.Uniform{}
		if dists%2 == 1 {
			dist = records.Exponential{Mean: 0.1}
		}
		cl := cluster.New(testParams(1, 2))
		in := MakeInput(cl, 1500, dist, seed, 16)
		cfg := Config{Alpha: alpha, Beta: beta, Gamma2: 4, PacketRecords: 16, Placement: Active, Seed: seed}
		_, err := Sort(cl, cfg, in)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() float64 {
		cl := cluster.New(testParams(1, 4))
		in := MakeInput(cl, 4000, records.Uniform{}, 9, 32)
		cfg := smallConfig()
		cfg.SortPolicy = route.NewSR(5)
		res, err := Sort(cl, cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic elapsed: %v vs %v", a, b)
	}
}

func TestRunFormationRejectsMismatchedInput(t *testing.T) {
	clA := cluster.New(testParams(1, 4))
	in := MakeInput(clA, 1000, records.Uniform{}, 1, 32)
	clB := cluster.New(testParams(1, 2)) // different ASU count
	if _, _, err := RunFormation(clB, smallConfig(), in); err == nil {
		t.Fatal("mismatched input accepted")
	}
}

func TestRunFormationRejectsInvalidConfig(t *testing.T) {
	cl := cluster.New(testParams(1, 2))
	in := MakeInput(cl, 100, records.Uniform{}, 1, 32)
	cfg := smallConfig()
	cfg.Alpha = 0
	if _, _, err := RunFormation(cl, cfg, in); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSortTinyInputs(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		cl := cluster.New(testParams(1, 2))
		in := MakeInput(cl, n, records.Uniform{}, int64(n), 32)
		if _, err := Sort(cl, smallConfig(), in); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestValidateDetectsCorruption damages a validated output in ways that keep
// it sorted, complete and inside its bucket ranges, so only the multiset
// checksum stands between the damage and a passing validation. Packets alias
// stored blocks, so mutating through ForEach hits the store.
func TestValidateDetectsCorruption(t *testing.T) {
	// firstRecords returns record 0 of the first n non-empty output packets.
	firstRecords := func(out *OutputStore, n int) [][]byte {
		var recs [][]byte
		for _, st := range out.Streams {
			st.ForEach(func(pk container.Packet) bool {
				if pk.Len() > 0 {
					recs = append(recs, pk.Buf.Record(0))
				}
				return len(recs) < n
			})
		}
		return recs[:n]
	}
	cases := []struct {
		name    string
		dist    records.KeyDist
		corrupt func(t *testing.T, out *OutputStore)
	}{
		{"payload byte", records.Uniform{}, func(t *testing.T, out *OutputStore) {
			firstRecords(out, 1)[0][8] ^= 0xff
		}},
		{"one bit in the last payload word", records.Uniform{}, func(t *testing.T, out *OutputStore) {
			rec := firstRecords(out, 1)[0]
			rec[len(rec)-1] ^= 0x80
		}},
		{"two payload words swapped in one record", records.Uniform{}, func(t *testing.T, out *OutputStore) {
			rec := firstRecords(out, 1)[0]
			var w [8]byte
			copy(w[:], rec[8:16])
			copy(rec[8:16], rec[16:24])
			copy(rec[16:24], w[:])
		}},
		// Every key is equal, so overwriting one record with another from a
		// different packet leaves count, order and bucket ranges intact.
		{"record replaced by a duplicate from another packet", constDist{}, func(t *testing.T, out *OutputStore) {
			recs := firstRecords(out, 2)
			if string(recs[0]) == string(recs[1]) {
				t.Fatal("test needs two distinct records")
			}
			copy(recs[1], recs[0])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := cluster.New(testParams(1, 2))
			in := MakeInput(cl, 1000, tc.dist, 5, 32)
			res, err := Sort(cl, smallConfig(), in)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, res.Output)
			err = res.Output.Validate(in, smallConfig().Alpha)
			if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("corrupted output: Validate = %v, want a checksum mismatch", err)
			}
		})
	}
}

func TestSpeedupHelper(t *testing.T) {
	if Speedup(100, 50) != 2 || Speedup(50, 100) != 0.5 || Speedup(1, 0) != 0 {
		t.Fatal("Speedup arithmetic wrong")
	}
}
