package records

import "math/rand"

// Executor runs n independent tasks, possibly concurrently, returning only
// when all have finished. Task i must own its data exclusively, and results
// must not depend on execution order — the same purity contract the sim
// engine's offload seam imposes. Serial is the reference implementation every
// executor must be byte-identical to; the harness adapts sim.ExecChunks into
// this type so input generation and output validation run through the same
// offload hook as in-simulation kernels without this package importing sim.
type Executor func(n int, task func(i int))

// Serial runs tasks inline in index order — the reference executor.
func Serial(n int, task func(i int)) {
	for i := 0; i < n; i++ {
		task(i)
	}
}

// chunkRecords is the records-per-task grain for the Exec variants: large
// enough to amortize one offload dispatch per chunk, small enough that even
// quick bench cells (2^14 records) split across several workers.
const chunkRecords = 4096

// chunks decomposes n items into chunkRecords-sized ranges and reports the
// task count; task i covers [bounds(i)). Inputs below two chunks are not
// worth dispatching — callers fall back to the serial path.
func chunks(n int) int { return (n + chunkRecords - 1) / chunkRecords }

func chunkBounds(i, n int) (lo, hi int) {
	lo = i * chunkRecords
	hi = lo + chunkRecords
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Combine folds another checksum into c. The digest is a commutative fold
// over per-record hashes (wrapping sum and xor), so combining per-chunk
// partials in any grouping yields exactly the sequential Add result.
func (c *Checksum) Combine(d Checksum) {
	c.Count += d.Count
	c.Sum += d.Sum
	c.Xor ^= d.Xor
}

// ChecksumExec digests b with fixed-size chunks dispatched through exec,
// returning the same value as a sequential Checksum.Add for every executor.
// A nil exec or a small buffer takes the serial path.
func ChecksumExec(b Buffer, exec Executor) Checksum {
	var sum Checksum
	n := b.Len()
	if exec == nil || n < 2*chunkRecords {
		sum.Add(b)
		return sum
	}
	nc := chunks(n)
	parts := make([]Checksum, nc)
	exec(nc, func(i int) {
		lo, hi := chunkBounds(i, n)
		parts[i].Add(b.Slice(lo, hi))
	})
	for _, p := range parts {
		sum.Combine(p)
	}
	return sum
}

// GenerateExec is Generate with the payload expansion dispatched through
// exec. A sequential pass consumes the rng in exactly Generate's draw order
// (one payload seed, then one key, per record); chunks then expand payload
// bytes and store keys concurrently. Byte-identical to Generate for every
// executor and every chunking.
func GenerateExec(n, size int, seed int64, dist KeyDist, exec Executor) Buffer {
	b := NewBuffer(n, size)
	rng := rand.New(rand.NewSource(seed))
	fillExec(b, 0, n, rng, dist, exec)
	return b
}

// GenerateHalvesExec is GenerateHalves through exec (see GenerateExec).
func GenerateHalvesExec(n, size int, seed int64, first, second KeyDist, exec Executor) Buffer {
	b := NewBuffer(n, size)
	rng := rand.New(rand.NewSource(seed))
	fillExec(b, 0, n/2, rng, first, exec)
	fillExec(b, n/2, n, rng, second, exec)
	return b
}

// fillExec fills records [lo, hi) like fill does, but splits the
// rng-independent payload expansion across exec. The rng draws cannot be
// parallelized (each depends on the previous state), but they are a small
// fraction of generation cost; the payload expansion (fillPayload) — a pure
// function of each record's drawn seed — dominates and chunks cleanly.
func fillExec(b Buffer, lo, hi int, rng *rand.Rand, dist KeyDist, exec Executor) {
	n := hi - lo
	if exec == nil || n < 2*chunkRecords {
		fill(b, lo, hi, rng, dist)
		return
	}
	// Sequential pass: reproduce fill's exact rng call sequence so the
	// stream of draws — and therefore every key and payload — matches the
	// serial generator bit for bit.
	xs := make([]uint64, n)
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Uint64()
		keys[i] = dist.Draw(rng)
	}
	nc := chunks(n)
	exec(nc, func(ci int) {
		clo, chi := chunkBounds(ci, n)
		for i := clo; i < chi; i++ {
			fillPayload(b.Record(lo+i), xs[i])
			b.SetKey(lo+i, keys[i])
		}
	})
}
