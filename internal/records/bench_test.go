package records

import (
	"math/rand"
	"testing"
)

func newBenchRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// benchShapes are the buffer shapes the data-path benchmarks run at: one
// sort chunk, and the 4-record (512 B) packet that sort_smallpkt digests
// 16 384 of per pass, where per-call overhead would show.
var benchShapes = []struct {
	name string
	n    int
}{
	{"4096rec", 4096},
	{"4rec", 4},
}

// BenchmarkGenerate times the generator's fill loop (rng draws, payload
// expansion, key store) into a reused buffer, leaving out Generate's
// allocation and rng seeding, which at 4 records would be all it measured.
func BenchmarkGenerate(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			buf := NewBuffer(sh.n, DefaultSize)
			g := NewGenerator(1, Uniform{}, Uniform{}, 0)
			b.SetBytes(int64(buf.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Fill(buf)
			}
		})
	}
}

func BenchmarkBufferSort(b *testing.B) {
	src := Generate(4096, DefaultSize, 1, Uniform{})
	b.SetBytes(int64(DefaultSize))
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		b.StopTimer()
		buf := src.Clone()
		b.StartTimer()
		buf.Sort()
	}
}

var checksumSink Checksum

func BenchmarkChecksum(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			buf := Generate(sh.n, DefaultSize, 1, Uniform{})
			b.SetBytes(int64(buf.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c Checksum
				c.Add(buf)
				checksumSink = c
			}
		})
	}
}

func BenchmarkBucketOf(b *testing.B) {
	sp := Splitters(256)
	keys := Generate(4096, KeyBytes+4, 1, Uniform{})
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += BucketOf(keys.Key(i%4096), sp)
	}
	_ = sink
}

func BenchmarkExponentialDraw(b *testing.B) {
	d := Exponential{Mean: 0.05}
	rng := newBenchRng()
	for i := 0; i < b.N; i++ {
		d.Draw(rng)
	}
}

var keySink Key

func BenchmarkKeyOf(b *testing.B) {
	buf := Generate(4096, DefaultSize, 1, Uniform{})
	b.SetBytes(4) // key bytes extracted per op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = KeyOf(buf.Record(i & 4095))
	}
}
