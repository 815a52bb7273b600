// Package dataram implements the banked, sector-organized data RAM of
// §4.1 y6. The RAM is logically an array of fixed-granularity sectors;
// each cached element occupies a contiguous run of sectors (the meta-tag
// entry stores the start pointer and count, like a decoupled sector
// cache). Banking is represented by a per-cycle word bandwidth the
// controller enforces; this package provides storage, allocation and
// energy accounting.
package dataram

import (
	"fmt"
	"math/bits"

	"xcache/internal/energy"
)

// Config sets the RAM geometry.
type Config struct {
	Sectors        int // total sectors
	WordsPerSector int // #wlen: words striped across banks per sector
	Banks          int // physical banks (= words deliverable per cycle)
}

// Stats counts RAM activity.
type Stats struct {
	WordReads   uint64
	WordWrites  uint64
	SectorAlloc uint64
	SectorFree  uint64
	AllocFails  uint64
}

// RAM is the data store.
type RAM struct {
	Cfg   Config
	words []uint64
	// used is the sector-occupancy bitmap: bit i%64 of word i/64 is set
	// while sector i is allocated.
	used  []uint64
	free  int
	stats Stats
	Meter *energy.Counters
	// firstFree is a scan hint for the first-fit allocator.
	firstFree int
}

// New builds the RAM.
func New(cfg Config, meter *energy.Counters) *RAM {
	if cfg.Sectors <= 0 || cfg.WordsPerSector <= 0 {
		panic(fmt.Sprintf("dataram: bad geometry %+v", cfg))
	}
	if cfg.Banks <= 0 {
		cfg.Banks = cfg.WordsPerSector
	}
	return &RAM{
		Cfg:   cfg,
		words: make([]uint64, cfg.Sectors*cfg.WordsPerSector),
		used:  make([]uint64, (cfg.Sectors+63)/64),
		free:  cfg.Sectors,
		Meter: meter,
	}
}

// Stats returns a copy of lifetime stats.
func (r *RAM) Stats() Stats { return r.stats }

// FreeSectors reports unallocated sectors.
func (r *RAM) FreeSectors() int { return r.free }

// Words returns total word capacity.
func (r *RAM) Words() int { return len(r.words) }

// Bytes returns the RAM capacity in bytes.
func (r *RAM) Bytes() int { return len(r.words) * 8 }

// Alloc reserves a contiguous run of n sectors (first fit) and returns the
// starting sector index. ok is false when no run is available; the walker
// retries after evictions free space.
func (r *RAM) Alloc(n int) (base int32, ok bool) {
	if n <= 0 {
		panic(fmt.Sprintf("dataram: alloc %d sectors", n))
	}
	if n > r.free {
		r.stats.AllocFails++
		return 0, false
	}
	start := r.firstFit(r.firstFree, n)
	if start < 0 && r.firstFree != 0 {
		// Wrap: retry the scan from 0 once (hint may have skipped freed runs).
		r.firstFree = 0
		start = r.firstFit(0, n)
	}
	if start < 0 {
		r.stats.AllocFails++
		return 0, false
	}
	for i := start; i < start+n; i++ {
		r.used[i>>6] |= 1 << (uint(i) & 63)
	}
	r.free -= n
	r.stats.SectorAlloc += uint64(n)
	if start == r.firstFree {
		r.firstFree = start + n
	}
	return int32(start), true
}

// firstFit returns the start of the first run of n free sectors
// beginning at or after sector from, or -1. It alternates two word-wise
// searches: the next free sector (skipping fully used words), then the
// first used sector inside the candidate run, past which the search
// resumes.
func (r *RAM) firstFit(from, n int) int {
	for start := r.scan(from, r.Cfg.Sectors, true); start+n <= r.Cfg.Sectors; {
		end := r.scan(start, start+n, false)
		if end == start+n {
			return start
		}
		start = r.scan(end, r.Cfg.Sectors, true)
	}
	return -1
}

// scan returns the first sector in [i, limit) whose used bit is clear
// (free) or set (!free), or limit when there is none.
func (r *RAM) scan(i, limit int, free bool) int {
	flip := uint64(0)
	if free {
		flip = ^uint64(0)
	}
	for i < limit {
		wi := i >> 6
		if w := (r.used[wi] ^ flip) >> (uint(i) & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), limit)
		}
		i = (wi + 1) << 6
	}
	return limit
}

// Free releases a run allocated by Alloc.
func (r *RAM) Free(base int32, n int32) {
	for i := base; i < base+n; i++ {
		bit := uint64(1) << (uint(i) & 63)
		if r.used[i>>6]&bit == 0 {
			panic(fmt.Sprintf("dataram: double free of sector %d", i))
		}
		r.used[i>>6] &^= bit
	}
	r.free += int(n)
	r.stats.SectorFree += uint64(n)
	if int(base) < r.firstFree {
		r.firstFree = int(base)
	}
}

// Read returns the word at word index w, charging data-RAM energy.
func (r *RAM) Read(w int32) uint64 {
	r.stats.WordReads++
	if r.Meter != nil {
		r.Meter.DataBytes += 8
	}
	return r.words[w]
}

// Write stores v at word index w, charging data-RAM energy.
func (r *RAM) Write(w int32, v uint64) {
	r.stats.WordWrites++
	if r.Meter != nil {
		r.Meter.DataBytes += 8
	}
	r.words[w] = v
}

// SectorWordBase converts a sector index to its first word index.
func (r *RAM) SectorWordBase(sector int32) int32 {
	return sector * int32(r.Cfg.WordsPerSector)
}

// ReadRun reads nWords starting at the first word of sector base
// (hit-path block return), charging energy once per word.
func (r *RAM) ReadRun(base int32, nWords int) []uint64 {
	out := make([]uint64, nWords)
	w := r.SectorWordBase(base)
	for i := range out {
		out[i] = r.Read(w + int32(i))
	}
	return out
}
