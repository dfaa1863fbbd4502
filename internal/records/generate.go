package records

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// KeyDist generates sort keys for synthetic workloads. Implementations must
// be deterministic functions of the supplied rng.
type KeyDist interface {
	// Name identifies the distribution in experiment output.
	Name() string
	// Draw produces the next key.
	Draw(rng *rand.Rand) Key
}

// Uniform draws keys uniformly from the full key space.
type Uniform struct{}

func (Uniform) Name() string            { return "uniform" }
func (Uniform) Draw(rng *rand.Rand) Key { return Key(rng.Uint32()) }

// Exponential draws keys from an exponential distribution scaled so that
// roughly all mass falls in the low end of the key space — the skewed
// distribution used for the second half of the Figure 10 input. Mean sets
// the distribution mean as a fraction of the key space (e.g. 0.05 puts ~95%
// of keys below 0.15 of the space).
type Exponential struct {
	Mean float64
}

func (Exponential) Name() string { return "exponential" }

func (e Exponential) Draw(rng *rand.Rand) Key {
	mean := e.Mean
	if mean <= 0 {
		mean = 0.05
	}
	v := rng.ExpFloat64() * mean * float64(MaxKey)
	if v >= float64(MaxKey) {
		return MaxKey
	}
	return Key(v)
}

// Zipf draws keys with a Zipfian rank-frequency law mapped over the key
// space, a heavier-tailed skew than Exponential.
type Zipf struct {
	S float64 // exponent > 1; 0 means 1.2
	N int     // distinct values; 0 means 1<<20
}

func (Zipf) Name() string { return "zipf" }

func (z Zipf) Draw(rng *rand.Rand) Key {
	s, n := z.S, z.N
	if s <= 1 {
		s = 1.2
	}
	if n <= 0 {
		n = 1 << 20
	}
	zf := rand.NewZipf(rng, s, 1, uint64(n-1))
	// NewZipf per draw would be wasteful; but Zipf is only used in small
	// ablations. Map rank onto the key space.
	r := zf.Uint64()
	return Key(float64(r) / float64(n) * float64(MaxKey))
}

// Sorted emits keys in increasing order (best case for distribution skew).
type Sorted struct{ next Key }

func (*Sorted) Name() string { return "sorted" }
func (s *Sorted) Draw(rng *rand.Rand) Key {
	k := s.next
	s.next += 1 << 12
	return k
}

// Generator streams a synthetic workload: records 0 .. split-1 take their
// keys from first, every later one from second, and payloads are
// pseudorandom, all derived deterministically from one seed. Filling
// consecutive buffers yields the same bytes as one buffer of their combined
// length, so a loader can generate straight into packet-sized storage.
type Generator struct {
	rng           *rand.Rand
	first, second KeyDist
	left          int // records still to draw from first
}

// NewGenerator starts the stream at record 0.
func NewGenerator(seed int64, first, second KeyDist, split int) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), first: first, second: second, left: split}
}

// Fill writes the stream's next b.Len() records into b, every byte of them.
func (g *Generator) Fill(b Buffer) {
	rng := g.rng
	for i, n := 0, b.Len(); i < n; {
		dist, end := g.second, n
		if g.left > 0 {
			dist, end = g.first, min(n, i+g.left)
			g.left -= end - i
		}
		for ; i < end; i++ {
			// Pseudorandom payload; cheaper than rng.Read and just as good
			// for checksum purposes.
			fillPayload(b.Record(i), rng.Uint64())
			b.SetKey(i, dist.Draw(rng))
		}
	}
}

// Generate builds a buffer of n records of the given size with keys drawn
// from dist and pseudorandom payloads, all derived deterministically from
// seed.
func Generate(n, size int, seed int64, dist KeyDist) Buffer {
	b := NewBuffer(n, size)
	NewGenerator(seed, dist, dist, n).Fill(b)
	return b
}

// GenerateHalves builds the Figure 10 workload: the first half of the
// records drawn from first, the second half from second ("The first half of
// the input data is uniformly distributed, while the second half is
// skewed"). The order matters: streamed in sequence, the skew arrives midway
// through the run.
func GenerateHalves(n, size int, seed int64, first, second KeyDist) Buffer {
	b := NewBuffer(n, size)
	NewGenerator(seed, first, second, n/2).Fill(b)
	return b
}

// fillPayload expands x into rec's payload (the bytes after the key): byte j
// is byte j%8 of the current word, and the word takes one LCG step at every
// 8-byte boundary of the record. So the first word, which shares its 8 bytes
// with the key, contributes only its upper bytes; every later whole word is
// one store; and a trailing partial word contributes its low bytes.
func fillPayload(rec []byte, x uint64) {
	const mul, inc = 6364136223846793005, 1442695040888963407
	j := KeyBytes
	for ; j < 8 && j < len(rec); j++ {
		rec[j] = byte(x >> (uint(j) * 8))
	}
	for ; j+8 <= len(rec); j += 8 {
		x = x*mul + inc
		binary.LittleEndian.PutUint64(rec[j:], x)
	}
	if j < len(rec) {
		x = x*mul + inc
		for k := uint(0); j < len(rec); j, k = j+1, k+8 {
			rec[j] = byte(x >> k)
		}
	}
}

// Splitters returns α-1 key boundaries that partition the key space into α
// equal-width ranges: bucket(k) = number of splitters < ... <= k. With
// uniformly distributed keys the buckets balance; with skewed keys they do
// not — exactly the imbalance that load management addresses in Figure 10.
func Splitters(alpha int) []Key {
	if alpha < 1 {
		panic("records: alpha must be >= 1")
	}
	sp := make([]Key, alpha-1)
	for i := range sp {
		sp[i] = Key(uint64(i+1) * (uint64(MaxKey) + 1) / uint64(alpha))
	}
	return sp
}

// BucketOf reports which of the len(sp)+1 ranges k falls in, by binary
// search over the splitters: the comparison cost is ceil(log2(alpha)), which
// is the "number of compares per key" the paper's work equation counts for
// an alpha-way distribute.
func BucketOf(k Key, sp []Key) int {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := (lo + hi) / 2
		if k >= sp[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ExpectedShare reports the expected fraction of keys falling in bucket i of
// alpha equal-width buckets under dist — used by tests to verify that the
// generators produce the skew the experiments rely on.
func ExpectedShare(dist KeyDist, alpha, i int) float64 {
	switch d := dist.(type) {
	case Uniform:
		return 1.0 / float64(alpha)
	case Exponential:
		mean := d.Mean
		if mean <= 0 {
			mean = 0.05
		}
		lo := float64(i) / float64(alpha) / mean
		hi := float64(i+1) / float64(alpha) / mean
		share := math.Exp(-lo) - math.Exp(-hi)
		if i == alpha-1 {
			share += math.Exp(-hi) // clamped tail mass
		}
		return share
	default:
		return math.NaN()
	}
}
