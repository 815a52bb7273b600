package addrcache

import (
	"testing"

	"xcache/internal/sim"
)

// serve pushes one access and steps the kernel until the cache answers.
func serve(k *sim.Kernel, c *Cache, a Access) {
	a.Issued = k.Cycle()
	c.ReqQ.MustPush(a)
	for {
		k.Step()
		if _, ok := c.RespQ.Pop(); ok {
			return
		}
	}
}

// TestWarmHitsAllocateNothing pins the hit path: once 16 blocks are
// resident, reads and write hits over them allocate nothing.
func TestWarmHitsAllocateNothing(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(16 * 4)
	stream := func() {
		for i := 0; i < 16; i++ {
			serve(k, c, Access{ID: uint64(i), Addr: base + uint64(i)*32, Write: i%3 == 0, Data: uint64(i)})
		}
	}
	stream() // cold: 16 misses
	allocs := testing.AllocsPerRun(20, stream)
	if st := c.Stats(); st.Misses != 16 || st.Hits != 16*21 {
		t.Fatalf("stats %+v, want 16 cold misses and %d hits", st, 16*21)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per 16 hits, want 0", allocs)
	}
}

// TestMissesAllocateOnlyReadData pins the miss path: in a one-line cache
// every access misses and evicts a clean line, and the only allocation
// is the DRAM read's response slice.
func TestMissesAllocateOnlyReadData(t *testing.T) {
	k, img, d, c := setup(t, Config{Sets: 1, Ways: 1})
	base := img.AllocWords(16 * 4)
	for i := uint64(0); i < 16*4; i++ {
		img.W64(base+i*8, i+1)
	}
	stream := func() {
		for i := 0; i < 16; i++ {
			serve(k, c, Access{ID: uint64(i), Addr: base + uint64(i)*32})
		}
	}
	stream()
	reads := d.Stats().Reads
	allocs := testing.AllocsPerRun(20, stream)
	if n := d.Stats().Reads - reads; n != 16*21 {
		t.Fatalf("%d DRAM reads, want %d", n, 16*21)
	}
	if allocs > 16 {
		t.Fatalf("%v allocations per 16 misses, want at most one each", allocs)
	}
}

// TestWarmWalksAllocateNothing pins the engine: a walk object reused
// across jobs over a resident chain costs no allocation per step, per
// result or per routed response.
func TestWarmWalksAllocateNothing(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 1}, c)
	head := buildChain(img, []uint64{10, 20, 30, 40})
	w := &chainWalk{}
	walk := func() {
		*w = chainWalk{head: head, target: 40}
		e.Jobs.MustPush(Job{ID: 1, W: w, Issued: k.Cycle()})
		for {
			k.Step()
			if r, ok := e.Resp.Pop(); ok {
				if !r.Result.Found || r.Result.Value != 40 {
					t.Fatalf("result %+v", r.Result)
				}
				return
			}
		}
	}
	walk()
	allocs := testing.AllocsPerRun(20, walk)
	if st := c.Stats(); st.Hits != 4*21 {
		t.Fatalf("cache stats %+v, want %d hits", st, 4*21)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per 4-step walk, want 0", allocs)
	}
}
