package metatag_test

import (
	"math/rand"
	"testing"

	"xcache/internal/core"
	"xcache/internal/metatag"
	"xcache/internal/program"
)

// BenchmarkProbe measures one front-end tag probe on the Widx scale-5
// geometry (core.WidxConfig().Scaled(3): 512 sets × 8 ways). The array
// is first filled to capacity, then every probe draws a key from twice
// the capacity, so about half miss and allocate over an LRU victim, as
// the controller's admission path does.
func BenchmarkProbe(b *testing.B) {
	cfg := core.WidxConfig().Scaled(3)
	a := metatag.New(metatag.Config{Sets: cfg.Sets, Ways: cfg.Ways, KeyWords: cfg.KeyWords}, nil)
	capacity := a.Capacity()
	for k := 0; k < capacity; k++ {
		if a.Probe(metatag.Key{uint64(k)}) == nil {
			a.Alloc(metatag.Key{uint64(k)}, program.StateValid, metatag.NoWalker)
		}
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]metatag.Key, 1<<12)
	for i := range keys {
		keys[i] = metatag.Key{uint64(rng.Intn(2 * capacity))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if e := a.Probe(k); e != nil {
			a.Touch(e)
		} else {
			a.Alloc(k, program.StateValid, metatag.NoWalker)
		}
	}
}
