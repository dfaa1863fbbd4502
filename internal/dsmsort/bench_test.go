package dsmsort

import (
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/records"
)

func benchSort(b *testing.B, placement Placement, asus int) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(testParams(1, asus))
		in := MakeInput(cl, 1<<14, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 16, Beta: 64, Gamma2: 16, PacketRecords: 64,
			Placement: placement, Seed: 42}
		res, err := Sort(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		// End-of-run recycling (the pool contract): the next iteration
		// draws these buffers instead of allocating.
		res.Output.Free()
		in.Free()
	}
}

func BenchmarkSortActive(b *testing.B)       { benchSort(b, Active, 8) }
func BenchmarkSortConventional(b *testing.B) { benchSort(b, Conventional, 8) }
func BenchmarkSortHybrid(b *testing.B)       { benchSort(b, Hybrid, 8) }

func BenchmarkRunFormationOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(testParams(1, 8))
		in := MakeInput(cl, 1<<15, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 16, Beta: 64, Gamma2: 2, PacketRecords: 64,
			Placement: Active, Seed: 42}
		rs, _, err := RunFormation(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		// End-of-run recycling (the pool contract): the next iteration
		// draws these buffers instead of allocating.
		rs.Free()
		in.Free()
	}
}

// BenchmarkMakeInput loads 2^17 128-B records in 64-record packets onto 8
// ASUs with the buffer pool warm, so its B/op is the loader's own overhead.
// `make bench-allocs` gates it far below the 16 MiB that a buffer holding
// every record would take.
func BenchmarkMakeInput(b *testing.B) {
	load := func() {
		cl := cluster.New(testParams(1, 8))
		MakeInput(cl, 1<<17, records.Uniform{}, 42, 64).Free()
	}
	load() // the first load fills the pool the timed ones draw from
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}

func BenchmarkMergePassOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := cluster.New(testParams(1, 8))
		in := MakeInput(cl, 1<<14, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 8, Beta: 64, Gamma2: 16, PacketRecords: 64,
			Placement: Active, Seed: 42}
		rs, _, err := RunFormation(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, _, err := MergePass(cl, cfg, rs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
		rs.Free()
		in.Free()
		b.StartTimer()
	}
}
