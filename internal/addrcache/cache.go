// Package addrcache implements the baseline the paper compares against: a
// conventional address-tagged set-associative cache (with MSHRs) fronted
// by a walk engine. Because the tags are addresses, the DSA must walk its
// data structure — hash, chase pointers, read row_ptr — through the cache
// on every access, even when the element it wants is already on chip;
// that is precisely the behaviour X-Cache's meta-tags short-circuit.
//
// The access path allocates nothing per access. New allocates every
// line's data in one set-major slab, and a fill copies into the victim's
// slot. The MSHRs are a fixed array with inline waiter lists. An
// AccessResp carries its block by value: Data holds up to MaxBlockWords
// words, of which the first Words are valid, so New rejects a geometry
// with larger blocks. The engine pops each response into a buffer it
// owns and hands Walk.Next a slice of it, so Next must not retain data
// past the call.
package addrcache

import (
	"fmt"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/sim"
)

// MaxBlockWords is the largest Config.BlockWords: the size of the block
// an AccessResp carries by value.
const MaxBlockWords = 8

// maxWaiters is how many accesses one MSHR holds; a further access to the
// same block stalls the port until the fill.
const maxWaiters = 8

// Access is a block read — or, with Write set, a word store (the cache
// write-allocates and marks the line dirty) — issued to the cache.
type Access struct {
	ID     uint64
	Addr   uint64 // any address inside the block
	Write  bool
	Data   uint64 // word stored at Addr when Write
	Issued sim.Cycle
}

// AccessResp returns the whole enclosing block, by value: Data[:Words]
// is the block as it stood when the access was served.
type AccessResp struct {
	ID        uint64
	BlockBase uint64
	Words     int
	Data      [MaxBlockWords]uint64
}

// Config sets cache geometry and timing.
type Config struct {
	Sets       int
	Ways       int
	BlockWords int // words per block (4 → 32-byte blocks), at most MaxBlockWords
	HitLatency int
	MSHRs      int
	TagBytes   int // address tag bytes per way, charged per set probe
	ReqDepth   int
	RespDepth  int
}

func (c *Config) defaults() {
	if c.BlockWords == 0 {
		c.BlockWords = 4
	}
	if c.HitLatency == 0 {
		c.HitLatency = 3
	}
	if c.MSHRs == 0 {
		c.MSHRs = 16
	}
	if c.TagBytes == 0 {
		c.TagBytes = 4
	}
	if c.ReqDepth == 0 {
		c.ReqDepth = 32
	}
	if c.RespDepth == 0 {
		c.RespDepth = 64
	}
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MSHRMerge  uint64
	Fills      uint64
	Writebacks uint64
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

type mshr struct {
	live    bool
	block   uint64
	n       int // waiters[:n] are the accesses to answer, in arrival order
	waiters [maxWaiters]Access
}

type pendingResp struct {
	readyAt sim.Cycle
	resp    AccessResp
	access  Access
}

// Cache is the address-tagged baseline cache.
type Cache struct {
	Cfg   Config
	ReqQ  *sim.Queue[Access]
	RespQ *sim.Queue[AccessResp]

	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	lines []line   // Sets × Ways, set-major
	data  []uint64 // line i's words are data[i*BlockWords : (i+1)*BlockWords]
	mshrs []mshr   // Cfg.MSHRs entries
	live  int      // live MSHRs
	pend  []pendingResp
	tick  uint64
	stats Stats
	Meter *energy.Counters
	// Latency accounting mirrors ctrl.Stats so harnesses can compare.
	L2USum, L2UCount uint64
}

// New builds the cache and registers it with the kernel.
func New(k *sim.Kernel, cfg Config, memReq *sim.Queue[dram.Request],
	memResp *sim.Queue[dram.Response], meter *energy.Counters) *Cache {

	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 || cfg.BlockWords > MaxBlockWords {
		panic(fmt.Sprintf("addrcache: bad geometry %+v", cfg))
	}
	c := &Cache{
		Cfg:     cfg,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[Access](k, "ac.req", cfg.ReqDepth),
		RespQ:   sim.NewQueue[AccessResp](k, "ac.resp", cfg.RespDepth),
		lines:   make([]line, cfg.Sets*cfg.Ways),
		data:    make([]uint64, cfg.Sets*cfg.Ways*cfg.BlockWords),
		mshrs:   make([]mshr, cfg.MSHRs),
	}
	k.Add(c)
	return c
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Idle reports whether no work is queued or in flight.
func (c *Cache) Idle() bool {
	return c.ReqQ.Len() == 0 && c.live == 0 && len(c.pend) == 0
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() uint64 { return uint64(c.Cfg.BlockWords) * 8 }

func (c *Cache) blockOf(addr uint64) uint64 { return addr &^ (c.BlockBytes() - 1) }

// setOf returns the flat index of way 0 of block's set.
func (c *Cache) setOf(block uint64) int {
	return int((block/c.BlockBytes())&uint64(c.Cfg.Sets-1)) * c.Cfg.Ways
}

// lineData returns line i's slot in the data slab.
func (c *Cache) lineData(i int) []uint64 {
	bw := c.Cfg.BlockWords
	return c.data[i*bw : (i+1)*bw : (i+1)*bw]
}

// findMSHR returns the live MSHR index for block, or -1.
func (c *Cache) findMSHR(block uint64) int {
	if c.live == 0 {
		return -1
	}
	for i := range c.mshrs {
		if c.mshrs[i].live && c.mshrs[i].block == block {
			return i
		}
	}
	return -1
}

// Tick implements sim.Component.
func (c *Cache) Tick(cy sim.Cycle) {
	c.deliver(cy)
	c.acceptFills(cy)

	// One lookup per cycle (single tag port, like the X-Cache front-end).
	acc, ok := c.ReqQ.Peek()
	if !ok {
		return
	}
	block := c.blockOf(acc.Addr)

	// Charge a set probe. CACTI serial (low-power) mode reads the tag
	// array once and then a single data way — one way-sized tag access.
	if c.Meter != nil {
		c.Meter.TagBytes += uint64(c.Cfg.TagBytes)
	}

	if i := c.findMSHR(block); i >= 0 {
		m := &c.mshrs[i]
		if m.n >= maxWaiters {
			return // MSHR waiter list full: stall the port
		}
		c.ReqQ.Pop()
		c.stats.Accesses++
		c.stats.Misses++
		c.stats.MSHRMerge++
		m.waiters[m.n] = acc
		m.n++
		return
	}

	s := c.setOf(block)
	for i := s; i < s+c.Cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == block {
			c.ReqQ.Pop()
			c.stats.Accesses++
			c.stats.Hits++
			c.tick++
			ln.lru = c.tick
			if acc.Write {
				c.lineData(i)[(acc.Addr-block)/8] = acc.Data
				ln.dirty = true
			}
			c.respond(cy, acc, block, i)
			return
		}
	}

	// Miss: need an MSHR and a memory-request slot.
	if c.live >= c.Cfg.MSHRs || !c.MemReq.CanPush() {
		return
	}
	c.ReqQ.Pop()
	c.stats.Accesses++
	c.stats.Misses++
	for i := range c.mshrs {
		if m := &c.mshrs[i]; !m.live {
			m.live, m.block, m.n = true, block, 1
			m.waiters[0] = acc
			break
		}
	}
	c.live++
	c.MemReq.MustPush(dram.Request{ID: block, Addr: block, Words: c.Cfg.BlockWords})
	if c.Meter != nil {
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

// respond schedules acc's response: line ln's block, HitLatency from now.
func (c *Cache) respond(cy sim.Cycle, acc Access, block uint64, ln int) {
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
	}
	c.pend = append(c.pend, pendingResp{readyAt: cy + sim.Cycle(c.Cfg.HitLatency), access: acc})
	r := &c.pend[len(c.pend)-1].resp
	r.ID, r.BlockBase = acc.ID, block
	r.Words = copy(r.Data[:], c.lineData(ln))
}

func (c *Cache) deliver(cy sim.Cycle) {
	n := 0
	for i := range c.pend {
		p := &c.pend[i]
		if p.readyAt <= cy && c.RespQ.CanPush() {
			c.RespQ.MustPush(p.resp)
			c.L2USum += uint64(cy - p.access.Issued)
			c.L2UCount++
			continue
		}
		if n != i {
			c.pend[n] = *p
		}
		n++
	}
	c.pend = c.pend[:n]
}

const wbFlag = uint64(1) << 63

// writeback pushes dirty line i to memory. Writebacks are off the
// critical path; if the memory queue is full the write is not issued and
// the caller's refill overwrites the line.
func (c *Cache) writeback(i int) {
	if !c.MemReq.CanPush() {
		return
	}
	ln := &c.lines[i]
	data := c.lineData(i)
	c.MemReq.MustPush(dram.Request{ID: wbFlag | ln.tag, Addr: ln.tag,
		Words: len(data), Write: true, Data: append([]uint64(nil), data...)})
	ln.dirty = false
	c.stats.Writebacks++
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *Cache) acceptFills(cy sim.Cycle) {
	for {
		resp, ok := c.MemResp.Pop()
		if !ok {
			break
		}
		if resp.ID&wbFlag != 0 {
			continue // writeback ack
		}
		mi := c.findMSHR(resp.ID)
		if mi < 0 {
			panic(fmt.Sprintf("addrcache: fill for unknown block %#x", resp.ID))
		}
		c.stats.Fills++
		m := &c.mshrs[mi]
		m.live = false
		c.live--

		// Install (LRU victim), writing back a dirty victim first.
		s := c.setOf(m.block)
		v := s
		for i := s; i < s+c.Cfg.Ways; i++ {
			if !c.lines[i].valid {
				v = i
				break
			}
			if c.lines[i].lru < c.lines[v].lru {
				v = i
			}
		}
		if c.lines[v].valid && c.lines[v].dirty {
			c.writeback(v)
		}
		c.tick++
		c.lines[v] = line{valid: true, tag: m.block, lru: c.tick}
		data := c.lineData(v)
		copy(data, resp.Data)
		if c.Meter != nil {
			c.Meter.DataBytes += c.BlockBytes()
		}

		// Answer every waiter, applying write-allocated stores in order.
		for _, acc := range m.waiters[:m.n] {
			if acc.Write {
				data[(acc.Addr-m.block)/8] = acc.Data
				c.lines[v].dirty = true
			}
			c.respond(cy, acc, m.block, v)
		}
	}
}

// InvalidateAll drops every line (the DASX baseline reloads its
// read-only object cache each refill-compute-update round); dirty lines
// are discarded, so only use on read-only workloads. The data slab is
// kept: a refill overwrites a slot before any access reads it.
func (c *Cache) InvalidateAll() { clear(c.lines) }

// CheckInvariants audits the MSHR ledger: the live count matches the
// live entries and fits Cfg.MSHRs, no two live MSHRs hold one block, each
// holds 1..8 waiters, and no valid line holds a block still in flight.
// check.Attach runs it after every step of a supervised run.
func (c *Cache) CheckInvariants(cy sim.Cycle) error {
	if c.live < 0 || c.live > c.Cfg.MSHRs {
		return fmt.Errorf("cycle %d: addrcache: %d live MSHRs, capacity %d", cy, c.live, c.Cfg.MSHRs)
	}
	live := 0
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.live {
			continue
		}
		live++
		if m.n < 1 || m.n > maxWaiters {
			return fmt.Errorf("cycle %d: addrcache: MSHR %d (block %#x) holds %d waiters, want 1..%d",
				cy, i, m.block, m.n, maxWaiters)
		}
		for j := i + 1; j < len(c.mshrs); j++ {
			if c.mshrs[j].live && c.mshrs[j].block == m.block {
				return fmt.Errorf("cycle %d: addrcache: MSHRs %d and %d both hold block %#x", cy, i, j, m.block)
			}
		}
		s := c.setOf(m.block)
		for w := s; w < s+c.Cfg.Ways; w++ {
			if c.lines[w].valid && c.lines[w].tag == m.block {
				return fmt.Errorf("cycle %d: addrcache: block %#x is resident (way %d) and in flight (MSHR %d)",
					cy, m.block, w-s, i)
			}
		}
	}
	if live != c.live {
		return fmt.Errorf("cycle %d: addrcache: live MSHR count %d, but %d entries are live", cy, c.live, live)
	}
	return nil
}
