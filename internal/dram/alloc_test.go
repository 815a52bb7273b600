package dram

import (
	"testing"

	"xcache/internal/sim"
)

// steadyChannel feeds a channel one request every 4 cycles, spread over
// all banks of a fixed 16 KiB region so the memory image stops growing
// after the first pass, and drains every response as it arrives. It
// returns the kernel and a counter of responses popped.
func steadyChannel(write bool) (*sim.Kernel, *DRAM, *int) {
	k, img, d := setup(DefaultConfig())
	cfg := d.Cfg
	base := img.Alloc(uint64(cfg.Banks)*cfg.RowBytes, cfg.RowBytes)
	data := []uint64{7, 9}
	next, popped := 0, new(int)
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		for {
			if _, ok := d.Resp.Pop(); !ok {
				break
			}
			*popped++
		}
		if c%4 != 0 {
			return
		}
		r := Request{ID: uint64(next), Addr: base + uint64(next%cfg.Banks)*cfg.RowBytes + uint64(next/cfg.Banks%16)*16, Words: 2, Write: write}
		if write {
			r.Data = data
		}
		if d.Req.Push(r) {
			next++
		}
	}))
	k.Run(4000) // warm up queues, window and image pages
	return k, d, popped
}

// TestSteadyStateWritesAllocateNothing pins the slab scheduler: admitting,
// issuing and completing writes allocates nothing once the channel is warm.
func TestSteadyStateWritesAllocateNothing(t *testing.T) {
	k, d, popped := steadyChannel(true)
	before := *popped
	if allocs := testing.AllocsPerRun(10, func() { k.Run(500) }); allocs != 0 {
		t.Fatalf("%v allocations per 500 steady-state cycles, want 0", allocs)
	}
	if *popped-before < 10*100 || d.Stats().Writes == 0 {
		t.Fatalf("channel did no work: %d responses", *popped-before)
	}
}

// TestSteadyStateReadsAllocateOnlyData allows each completed read one
// allocation: the response's fresh data slice, owned by the requester.
func TestSteadyStateReadsAllocateOnlyData(t *testing.T) {
	k, d, popped := steadyChannel(false)
	var perRun []int
	allocs := testing.AllocsPerRun(10, func() {
		before := d.Stats().Reads
		k.Run(500)
		perRun = append(perRun, int(d.Stats().Reads-before))
	})
	measured := perRun[1:] // AllocsPerRun's first call is a warm-up
	reads := 0
	for _, n := range measured {
		reads += n
	}
	mean := float64(reads) / float64(len(measured))
	if mean < 100 || *popped == 0 {
		t.Fatalf("channel did little work: %.1f reads per run", mean)
	}
	if allocs > mean {
		t.Fatalf("%v allocations per run for %.1f completed reads, want at most one each", allocs, mean)
	}
}
