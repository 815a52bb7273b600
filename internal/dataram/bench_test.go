package dataram_test

import (
	"math/rand"
	"testing"

	"xcache/internal/core"
	"xcache/internal/dataram"
)

// BenchmarkSectorAlloc measures one Free+Alloc pair on the Widx scale-5
// data RAM (core.WidxConfig().Scaled(3) with the core default of two
// sectors per tag entry: 8192 sectors). The RAM is first filled to
// capacity with runs of 1-4 sectors; every operation then frees a random
// live run and allocates a new one of random size. When that size does
// not fit, the operation retries smaller sizes (the freed run always
// fits its own), so failed whole-RAM scans, which the controller meets
// before makeRoom evicts, are part of the cost.
func BenchmarkSectorAlloc(b *testing.B) {
	cfg := core.WidxConfig().Scaled(3)
	r := dataram.New(dataram.Config{Sectors: 2 * cfg.Sets * cfg.Ways, WordsPerSector: cfg.WordsPerSector}, nil)
	rng := rand.New(rand.NewSource(1))
	type run struct{ base, n int32 }
	var live []run
	for {
		n := 1 + rng.Intn(4)
		base, ok := r.Alloc(n)
		if !ok {
			break
		}
		live = append(live, run{base, int32(n)})
	}
	sizes := make([]int, 1<<12)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(live))
		r.Free(live[j].base, live[j].n)
		for n := sizes[i&(len(sizes)-1)]; ; n-- {
			if base, ok := r.Alloc(n); ok {
				live[j] = run{base, int32(n)}
				break
			}
		}
	}
}
