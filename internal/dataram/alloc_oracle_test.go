package dataram

import (
	"fmt"
	"math/rand"
	"testing"
)

// refRAM is the sector allocator as it was before the bitmap: a []bool
// occupancy array scanned first-fit from the firstFree hint, retried once
// from sector 0. It is kept verbatim as the oracle the bitmap allocator
// must match call for call.
type refRAM struct {
	sectors   int
	used      []bool
	free      int
	stats     Stats
	firstFree int
}

func newRefRAM(sectors int) *refRAM {
	return &refRAM{sectors: sectors, used: make([]bool, sectors), free: sectors}
}

func (r *refRAM) Alloc(n int) (base int32, ok bool) {
	if n <= 0 {
		panic(fmt.Sprintf("dataram: alloc %d sectors", n))
	}
	if n > r.free {
		r.stats.AllocFails++
		return 0, false
	}
	run := 0
	start := 0
	for i := r.firstFree; i < r.sectors; i++ {
		if r.used[i] {
			run = 0
			continue
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			for j := start; j < start+n; j++ {
				r.used[j] = true
			}
			r.free -= n
			r.stats.SectorAlloc += uint64(n)
			if start == r.firstFree {
				r.firstFree = start + n
			}
			return int32(start), true
		}
	}
	// Wrap: retry the scan from 0 once (hint may have skipped freed runs).
	if r.firstFree != 0 {
		r.firstFree = 0
		return r.Alloc(n)
	}
	r.stats.AllocFails++
	return 0, false
}

func (r *refRAM) Free(base int32, n int32) {
	for i := base; i < base+n; i++ {
		if !r.used[i] {
			panic(fmt.Sprintf("dataram: double free of sector %d", i))
		}
		r.used[i] = false
	}
	r.free += int(n)
	r.stats.SectorFree += uint64(n)
	if int(base) < r.firstFree {
		r.firstFree = int(base)
	}
}

// allocPair runs the bitmap RAM and the oracle side by side.
type allocPair struct {
	t    testing.TB
	got  *RAM
	want *refRAM
	live [][2]int32 // (base, n) runs both sides hold
	dead [][2]int32 // runs already freed, for double-free probes
}

func newAllocPair(t testing.TB, sectors int) *allocPair {
	return &allocPair{t: t, got: New(Config{Sectors: sectors, WordsPerSector: 1}, nil), want: newRefRAM(sectors)}
}

func (p *allocPair) alloc(n int) {
	p.t.Helper()
	gb, gok := p.got.Alloc(n)
	wb, wok := p.want.Alloc(n)
	if gb != wb || gok != wok {
		p.t.Fatalf("Alloc(%d) = (%d, %v), oracle (%d, %v)", n, gb, gok, wb, wok)
	}
	if gok {
		p.live = append(p.live, [2]int32{gb, int32(n)})
	}
	p.compare(fmt.Sprintf("Alloc(%d)", n))
}

// free releases run i of the live list, or re-frees a dead run when
// double is set, requiring both sides to agree on the panic.
func (p *allocPair) free(i int, double bool) {
	p.t.Helper()
	list := &p.live
	if double {
		list = &p.dead
	}
	if len(*list) == 0 {
		return
	}
	i %= len(*list)
	run := (*list)[i]
	gp := panics(func() { p.got.Free(run[0], run[1]) })
	wp := panics(func() { p.want.Free(run[0], run[1]) })
	if gp != wp {
		p.t.Fatalf("Free(%d, %d): panic %v, oracle panic %v", run[0], run[1], gp, wp)
	}
	if !double {
		*list = append((*list)[:i], (*list)[i+1:]...)
		p.dead = append(p.dead, run)
	}
	p.compare(fmt.Sprintf("Free(%d, %d)", run[0], run[1]))
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func (p *allocPair) compare(op string) {
	p.t.Helper()
	g, w := p.got, p.want
	if g.FreeSectors() != w.free || g.Stats() != w.stats || g.firstFree != w.firstFree {
		p.t.Fatalf("after %s: free %d stats %+v hint %d, oracle free %d stats %+v hint %d",
			op, g.FreeSectors(), g.Stats(), g.firstFree, w.free, w.stats, w.firstFree)
	}
	for i, u := range w.used {
		if bit := g.used[i>>6]>>(uint(i)&63)&1 == 1; bit != u {
			p.t.Fatalf("after %s: sector %d used=%v, oracle %v", op, i, bit, u)
		}
	}
}

// runAllocStream interprets data as an Alloc/Free program over a RAM
// whose size comes from the first byte (1..200 sectors, so most sizes
// are not multiples of 64). Each following byte pair is one operation:
// an allocation of up to 70 sectors (runs may cross 64-sector words), a
// free of a live run, or a double free of a dead one.
func runAllocStream(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	p := newAllocPair(t, 1+int(data[0])%200)
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i], int(data[i+1])
		switch {
		case op%16 == 15:
			p.free(arg, true)
		case op%2 == 0:
			p.alloc(1 + arg%70)
		default:
			p.free(arg, false)
		}
	}
}

// TestSectorAllocMatchesOracle drives scripted and random streams through
// both allocators in lockstep.
func TestSectorAllocMatchesOracle(t *testing.T) {
	t.Run("fragmentation", func(t *testing.T) {
		p := newAllocPair(t, 100)
		for i := 0; i < 20; i++ {
			p.alloc(5)
		}
		for i := 0; i < 10; i++ {
			p.free(i, false) // every other 5-run
		}
		p.alloc(6) // no 6-run in a comb of 5-holes
		p.alloc(5)
		p.alloc(3)
		p.alloc(2)
	})
	t.Run("wrap-retry", func(t *testing.T) {
		p := newAllocPair(t, 130)
		for i := 0; i < 13; i++ {
			p.alloc(10) // hint ends at 130
		}
		p.free(5, false) // [50,60): hint back to 50
		p.free(6, false) // [70,80): hint stays
		p.alloc(15)      // 20 free, no 15-run past the hint: wraps, fails
		if p.got.firstFree != 0 || p.got.Stats().AllocFails != 1 {
			t.Fatalf("hint %d, %d fails after the wrap, want 0 and 1", p.got.firstFree, p.got.Stats().AllocFails)
		}
		p.alloc(10) // lands at 50 and, with the hint at 0, does not advance it
		p.alloc(10)
	})
	t.Run("word-boundary", func(t *testing.T) {
		p := newAllocPair(t, 256)
		p.alloc(50)
		p.alloc(80) // [50,130) spans three words
		p.alloc(126)
		p.alloc(1)       // full
		p.free(1, false) // hint back to 50
		p.alloc(20)      // [50,70) crosses word 0/1
		// Re-freeing [50,130) releases [50,70) on both sides, across the
		// word boundary, then panics at sector 70.
		p.free(0, true)
		p.alloc(64)
		p.alloc(3)
	})
	t.Run("odd-size", func(t *testing.T) {
		p := newAllocPair(t, 77)
		p.alloc(70)
		p.alloc(7)
		p.alloc(1)
		p.free(0, false)
		p.alloc(71) // 70 free but not 71 contiguous
		p.alloc(70)
	})
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 200; s++ {
		data := make([]byte, 2+2*rng.Intn(300))
		rng.Read(data)
		runAllocStream(t, data)
	}
}

// FuzzSectorAlloc is the open-ended form of the oracle: any byte stream
// is a valid Alloc/Free program, and the bitmap allocator must match the
// []bool first-fit allocator on every call. The committed corpus
// (testdata/fuzz/FuzzSectorAlloc) replays in `make fuzz-smoke`.
func FuzzSectorAlloc(f *testing.F) {
	f.Add([]byte{99, 0, 4, 0, 4, 0, 4, 1, 0, 0, 5, 15, 0, 0, 4})
	f.Add([]byte{64, 0, 63, 0, 0, 1, 0, 0, 63, 0, 1})
	f.Add([]byte{129, 0, 59, 0, 59, 0, 9, 1, 0, 1, 0, 0, 29, 0, 49})
	f.Fuzz(func(t *testing.T, data []byte) { runAllocStream(t, data) })
}
