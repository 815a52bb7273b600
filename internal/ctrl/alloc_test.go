package ctrl

import (
	"testing"

	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// streamRig drives a controller with one load per cycle over keys
// next(0), next(1), ... and pops every response. It warms the rig for
// 4000 cycles so walker lists, queues, the DRAM window and the memory
// image reach their steady-state size before anything is measured.
func streamRig(t *testing.T, next func(i int) uint64) (*rig, *int) {
	r := newRig(t, Config{NumActive: 8}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(256)
	i, resps := 0, new(int)
	r.k.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			if _, ok := r.c.RespQ.Pop(); !ok {
				break
			}
			*resps++
		}
		if r.c.ReqQ.Push(MetaReq{ID: uint64(i), Key: metatag.Key{next(i)}, Issued: cy}) {
			i++
		}
	}))
	r.k.Run(4000)
	return r, resps
}

// measureAllocs runs the warm rig 500 cycles at a time under
// testing.AllocsPerRun and returns the allocations per run with the mean
// per-run growth of the stats delta picks (AllocsPerRun's first call is
// a warm-up and is not averaged).
func measureAllocs(r *rig, delta func(Stats, metatag.Stats) uint64) (allocs, mean float64) {
	var per []uint64
	allocs = testing.AllocsPerRun(10, func() {
		before := delta(r.c.Stats(), r.c.Tags.Stats())
		r.k.Run(500)
		per = append(per, delta(r.c.Stats(), r.c.Tags.Stats())-before)
	})
	var sum uint64
	for _, n := range per[1:] {
		sum += n
	}
	return allocs, float64(sum) / float64(len(per)-1)
}

// TestWarmHitsAllocateOnlyResponseData pins the hit path: once every key
// is resident, each response allocates at most its data slice.
func TestWarmHitsAllocateOnlyResponseData(t *testing.T) {
	r, resps := streamRig(t, func(i int) uint64 { return uint64(i % 32) })
	allocs, hits := measureAllocs(r, func(s Stats, _ metatag.Stats) uint64 { return s.Hits })
	if hits < 100 || *resps == 0 {
		t.Fatalf("stream did little work: %.1f hits per run", hits)
	}
	if r.c.Stats().Misses != 32 {
		t.Fatalf("%d misses, want only the 32 cold ones", r.c.Stats().Misses)
	}
	if allocs > hits {
		t.Fatalf("%v allocations per run for %.1f hits, want at most one each", allocs, hits)
	}
}

// TestWarmMissesDoNotGrowWalkerLists pins walker-slice reuse: a stream
// that always misses (256 keys cycled through a 64-entry array), with
// each key issued twice so the second merges as a waiter and replays,
// allocates only the objects each event hands on: a response's data
// slice, a DRAM fill's data slice and an eviction record. The
// pending-message, waiter and replay lists grow no more once warm.
func TestWarmMissesDoNotGrowWalkerLists(t *testing.T) {
	r, _ := streamRig(t, func(i int) uint64 { return uint64(i/2) % 256 })
	allocs, owned := measureAllocs(r, func(s Stats, ts metatag.Stats) uint64 {
		return s.Responses + s.FillsIssued + ts.Evictions
	})
	if st := r.c.Stats(); st.MergedWaiters < 100 || owned < 50 {
		t.Fatalf("stream did little work: %.1f responses+fills+evictions per run (%+v)", owned, st)
	}
	if allocs > owned {
		t.Fatalf("%v allocations per run for %.1f responses+fills+evictions, want at most one each", allocs, owned)
	}
}
