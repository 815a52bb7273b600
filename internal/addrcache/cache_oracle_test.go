package addrcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/sim"
)

// lockSide is one half of a lockstep pair: a cache on its own kernel,
// image and DRAM channel. The cache's memory port is a short queue that a
// tap drains into the channel, logging every request it forwards.
type lockSide struct {
	k    *sim.Kernel
	img  *mem.Image
	d    *dram.DRAM
	memQ *sim.Queue[dram.Request]
	sent []dram.Request // requests forwarded since the last compare
}

func newLockSide(memDepth int, base uint64, words int) *lockSide {
	s := &lockSide{k: sim.NewKernel(), img: mem.NewImage()}
	for i := 0; i < words; i++ {
		s.img.W64(base+uint64(i)*8, uint64(i)*0x9e3779b97f4a7c15|1)
	}
	s.d = dram.New(s.k, dram.DefaultConfig(), s.img)
	s.memQ = sim.NewQueue[dram.Request](s.k, "ac.mem", memDepth)
	return s
}

// tap forwards the cache's memory requests to the channel; registered
// after the cache, it sees each request the cycle after its push.
func (s *lockSide) tap() {
	s.k.Add(sim.ComponentFunc(func(sim.Cycle) {
		for s.memQ.Len() > 0 && s.d.Req.CanPush() {
			r, _ := s.memQ.Pop()
			s.sent = append(s.sent, r)
			s.d.Req.MustPush(r)
		}
	}))
}

// lockPair drives a Cache and the refCache oracle with the same accesses
// and compares them after every cycle: the responses each pops, the
// memory requests each sends (writeback data included), Stats, the
// latency sums and the response queue depth. The Cache's MSHR ledger is
// audited every cycle too.
type lockPair struct {
	t        testing.TB
	got      *Cache
	want     *refCache
	gs, ws   *lockSide
	base     uint64
	nBlocks  int
	hold     bool // leave responses queued (response back-pressure)
	id       uint64
	last     uint64 // block of the last access
	repeat   int    // cycles left that reuse the last block
	cycles   int
	maxMerge int // most waiters one MSHR held
	invals   int
}

func newLockPair(t testing.TB, cfg Config, memDepth int) *lockPair {
	cfg.defaults()
	nBlocks := 3 * cfg.Sets * cfg.Ways
	if nBlocks < 4 {
		nBlocks = 4
	}
	const base = 0x10000
	words := nBlocks * cfg.BlockWords
	p := &lockPair{t: t, base: base, nBlocks: nBlocks,
		gs: newLockSide(memDepth, base, words), ws: newLockSide(memDepth, base, words)}
	p.got = New(p.gs.k, cfg, p.gs.memQ, p.gs.d.Resp, &energy.Counters{})
	p.want = newRefCache(p.ws.k, cfg, p.ws.memQ, p.ws.d.Resp, &energy.Counters{})
	p.gs.tap()
	p.ws.tap()
	return p
}

// push offers one access to both caches; both must accept or refuse it.
func (p *lockPair) push(block uint64, write bool) {
	bw := uint64(p.got.Cfg.BlockWords)
	a := Access{ID: p.id, Addr: p.base + block*bw*8 + (p.id%bw)*8, Write: write,
		Data: p.id*0x100000001b3 + 7, Issued: p.gs.k.Cycle()}
	okG, okW := p.got.ReqQ.Push(a), p.want.ReqQ.Push(a)
	if okG != okW {
		p.t.Fatalf("cycle %d: push of %+v accepted %v, oracle %v", p.cycles, a, okG, okW)
	}
	if okG {
		p.id++
		p.last = block
	}
}

// op applies one script byte: a read or write of a block drawn from the
// byte (3 × the cache's lines, so sets conflict), a run of accesses to
// the last block (merges up to the waiter limit), a toggle of response
// back-pressure, InvalidateAll (rarely, as it discards dirty lines), or
// an idle cycle.
func (p *lockPair) op(b byte) {
	block := uint64(b>>3) % uint64(p.nBlocks)
	switch {
	case p.repeat > 0:
		p.repeat--
		p.push(p.last, b&1 == 1)
	case b%8 <= 2:
		p.push(block, false)
	case b%8 == 3:
		p.push(block, true)
	case b%8 == 4:
		p.repeat = 4 + int(b>>3)%12
	case b%8 == 5:
		p.hold = !p.hold
	case b%8 == 6 && b < 32:
		p.got.InvalidateAll()
		p.want.InvalidateAll()
		p.invals++
	}
	p.step()
}

// step advances both kernels one cycle and compares them.
func (p *lockPair) step() {
	p.gs.k.Step()
	p.ws.k.Step()
	p.cycles++
	cy := p.gs.k.Cycle()
	for i := range p.got.mshrs {
		if m := &p.got.mshrs[i]; m.live && m.n > p.maxMerge {
			p.maxMerge = m.n
		}
	}
	if err := p.got.CheckInvariants(cy); err != nil {
		p.t.Fatal(err)
	}
	for !p.hold {
		g, okG := p.got.RespQ.Pop()
		w, okW := p.want.RespQ.Pop()
		if okG != okW {
			p.t.Fatalf("cycle %d: response present %v, oracle %v", cy, okG, okW)
		}
		if !okG {
			break
		}
		if g.ID != w.ID || g.BlockBase != w.BlockBase || !slices.Equal(g.Data[:g.Words], w.Data) {
			p.t.Fatalf("cycle %d: response %d @%#x %v, oracle %d @%#x %v",
				cy, g.ID, g.BlockBase, g.Data[:g.Words], w.ID, w.BlockBase, w.Data)
		}
	}
	if g, w := p.got.RespQ.Len(), p.want.RespQ.Len(); g != w {
		p.t.Fatalf("cycle %d: %d responses queued, oracle %d", cy, g, w)
	}
	if len(p.gs.sent) != len(p.ws.sent) {
		p.t.Fatalf("cycle %d: %d memory requests, oracle %d", cy, len(p.gs.sent), len(p.ws.sent))
	}
	for i, g := range p.gs.sent {
		w := p.ws.sent[i]
		if g.ID != w.ID || g.Addr != w.Addr || g.Words != w.Words || g.Write != w.Write || !slices.Equal(g.Data, w.Data) {
			p.t.Fatalf("cycle %d: memory request %+v, oracle %+v", cy, g, w)
		}
	}
	p.gs.sent, p.ws.sent = p.gs.sent[:0], p.ws.sent[:0]
	if g, w := p.got.Stats(), p.want.Stats(); g != w {
		p.t.Fatalf("cycle %d: stats %+v, oracle %+v", cy, g, w)
	}
	if p.got.L2USum != p.want.L2USum || p.got.L2UCount != p.want.L2UCount {
		p.t.Fatalf("cycle %d: L2U %d/%d, oracle %d/%d", cy,
			p.got.L2USum, p.got.L2UCount, p.want.L2USum, p.want.L2UCount)
	}
}

// drain releases back-pressure and steps until both sides are idle.
func (p *lockPair) drain() {
	p.hold = false
	for i := 0; !(p.got.Idle() && p.got.RespQ.Len() == 0 && p.gs.memQ.Len() == 0 && p.gs.d.Idle()); i++ {
		if i == 50_000 {
			p.t.Fatalf("no drain after %d cycles: %d MSHRs, %d pending", i, p.got.live, len(p.got.pend))
		}
		p.step()
	}
	if !p.want.Idle() {
		p.t.Fatal("oracle not idle once the cache drained")
	}
}

// runCacheStream interprets data as a lockstep program: the first eight
// bytes pick the geometry (1–4 sets, 1–3 ways, 4- or 8-word blocks,
// 1–4 MSHRs, 1–4 entry request, response and memory queues, hit
// latency 1–3), and each further byte is one cycle's op.
func runCacheStream(t testing.TB, data []byte) *lockPair {
	if len(data) < 8 {
		return nil
	}
	cfg := Config{
		Sets:       1 << (data[0] % 3),
		Ways:       1 + int(data[1]%3),
		BlockWords: 4 << (data[2] % 2),
		MSHRs:      1 + int(data[3]%4),
		RespDepth:  1 + int(data[4]%4),
		ReqDepth:   1 + int(data[5]%4),
		HitLatency: 1 + int(data[6]%3),
	}
	p := newLockPair(t, cfg, 1+int(data[7]%4))
	for _, b := range data[8:] {
		p.op(b)
	}
	p.drain()
	return p
}

// TestCacheMatchesOracle drives random streams through the Cache and the
// refCache in lockstep, and checks that together they reached every
// path: merges up to the waiter limit, dirty evictions with writebacks,
// and InvalidateAll.
func TestCacheMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var merges, writebacks, maxMerge, invals int
	for s := 0; s < 300; s++ {
		data := make([]byte, 8+rng.Intn(600))
		rng.Read(data)
		p := runCacheStream(t, data)
		st := p.got.Stats()
		merges += int(st.MSHRMerge)
		writebacks += int(st.Writebacks)
		maxMerge = max(maxMerge, p.maxMerge)
		invals += p.invals
	}
	if merges == 0 || writebacks == 0 || maxMerge < maxWaiters || invals == 0 {
		t.Fatalf("streams missed a path: %d merges (most waiters %d), %d writebacks, %d invalidations",
			merges, maxMerge, writebacks, invals)
	}
}

// FuzzAddrCache is the open-ended form of the oracle: any byte stream is
// a valid lockstep program, and the Cache must match the refCache on
// every cycle. The committed corpus (testdata/fuzz/FuzzAddrCache)
// replays in `make fuzz-smoke`.
func FuzzAddrCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 16, 11, 8, 4, 124, 3, 3, 3})
	f.Add([]byte{2, 1, 1, 3, 3, 3, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 9, 6, 0, 3, 11, 19})
	f.Fuzz(func(t *testing.T, data []byte) { runCacheStream(t, data) })
}

// refCache is the address cache as it stood before the allocation-free
// access path: per-line data slices, a map of heap MSHRs with growing
// waiter lists, and a fresh block copy per response. It is kept verbatim
// (types renamed) as the oracle the lockstep test and FuzzAddrCache run
// the Cache against.

// refResp returns the whole enclosing block.
type refResp struct {
	ID        uint64
	BlockBase uint64
	Data      []uint64
}

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	data  []uint64
	lru   uint64
}

type refMSHR struct {
	block   uint64
	waiters []Access
}

type refPending struct {
	readyAt sim.Cycle
	resp    refResp
	access  Access
}

// refCache is the address-tagged baseline cache.
type refCache struct {
	Cfg   Config
	ReqQ  *sim.Queue[Access]
	RespQ *sim.Queue[refResp]

	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	sets    [][]refLine
	mshrs   map[uint64]*refMSHR
	pend    []refPending
	tick    uint64
	stats   Stats
	Meter   *energy.Counters
	nextTag uint64
	// Latency accounting mirrors ctrl.Stats so harnesses can compare.
	L2USum, L2UCount uint64
}

// newRefCache builds the cache and registers it with the kernel.
func newRefCache(k *sim.Kernel, cfg Config, memReq *sim.Queue[dram.Request],
	memResp *sim.Queue[dram.Response], meter *energy.Counters) *refCache {

	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("addrcache: bad geometry %+v", cfg))
	}
	c := &refCache{
		Cfg:     cfg,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[Access](k, "ac.req", cfg.ReqDepth),
		RespQ:   sim.NewQueue[refResp](k, "ac.resp", cfg.RespDepth),
		mshrs:   map[uint64]*refMSHR{},
	}
	c.sets = make([][]refLine, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	k.Add(c)
	return c
}

// Stats returns a copy of the statistics.
func (c *refCache) Stats() Stats { return c.stats }

// Idle reports whether no work is queued or in flight.
func (c *refCache) Idle() bool {
	return c.ReqQ.Len() == 0 && len(c.mshrs) == 0 && len(c.pend) == 0
}

// BlockBytes returns the block size in bytes.
func (c *refCache) BlockBytes() uint64 { return uint64(c.Cfg.BlockWords) * 8 }

func (c *refCache) blockOf(addr uint64) uint64 { return addr &^ (c.BlockBytes() - 1) }

func (c *refCache) setOf(block uint64) []refLine {
	idx := (block / c.BlockBytes()) & uint64(c.Cfg.Sets-1)
	return c.sets[idx]
}

// Tick implements sim.Component.
func (c *refCache) Tick(cy sim.Cycle) {
	c.deliver(cy)
	c.acceptFills(cy)

	// One lookup per cycle (single tag port, like the X-refCache front-end).
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

	if m, exists := c.mshrs[block]; exists {
		if len(m.waiters) >= 8 {
			return // MSHR waiter list full: stall the port
		}
		c.ReqQ.Pop()
		c.stats.Accesses++
		c.stats.Misses++
		c.stats.MSHRMerge++
		m.waiters = append(m.waiters, acc)
		return
	}

	set := c.setOf(block)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == block {
			c.ReqQ.Pop()
			c.stats.Accesses++
			c.stats.Hits++
			c.tick++
			ln.lru = c.tick
			if acc.Write {
				ln.data[(acc.Addr-block)/8] = acc.Data
				ln.dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.pend = append(c.pend, refPending{
				readyAt: cy + sim.Cycle(c.Cfg.HitLatency),
				resp:    refResp{ID: acc.ID, BlockBase: block, Data: append([]uint64(nil), ln.data...)},
				access:  acc,
			})
			return
		}
	}

	// Miss: need an MSHR and a memory-request slot.
	if len(c.mshrs) >= c.Cfg.MSHRs || !c.MemReq.CanPush() {
		return
	}
	c.ReqQ.Pop()
	c.stats.Accesses++
	c.stats.Misses++
	c.mshrs[block] = &refMSHR{block: block, waiters: []Access{acc}}
	c.MemReq.MustPush(dram.Request{ID: block, Addr: block, Words: c.Cfg.BlockWords})
	if c.Meter != nil {
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *refCache) deliver(cy sim.Cycle) {
	keep := c.pend[:0]
	for _, p := range c.pend {
		if p.readyAt <= cy && c.RespQ.CanPush() {
			c.RespQ.MustPush(p.resp)
			c.L2USum += uint64(cy - p.access.Issued)
			c.L2UCount++
			continue
		}
		keep = append(keep, p)
	}
	c.pend = keep
}

// writeback pushes a dirty refLine to memory. Writebacks are off the
// critical path; if the memory queue is full the refLine is written back
// lazily on a later fill (a simplification a victim buffer would hide).
func (c *refCache) writeback(ln *refLine) {
	if !c.MemReq.Push(dram.Request{ID: wbFlag | ln.tag, Addr: ln.tag,
		Words: len(ln.data), Write: true, Data: append([]uint64(nil), ln.data...)}) {
		return
	}
	ln.dirty = false
	c.stats.Writebacks++
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *refCache) acceptFills(cy sim.Cycle) {
	for {
		resp, ok := c.MemResp.Peek()
		if !ok {
			break
		}
		if resp.ID&wbFlag != 0 {
			c.MemResp.Pop()
			continue // writeback ack
		}
		m, exists := c.mshrs[resp.ID]
		if !exists {
			panic(fmt.Sprintf("addrcache: fill for unknown block %#x", resp.ID))
		}
		c.MemResp.Pop()
		c.stats.Fills++
		delete(c.mshrs, resp.ID)

		// Install (LRU victim), writing back a dirty victim first.
		set := c.setOf(m.block)
		victim := &set[0]
		for i := range set {
			ln := &set[i]
			if !ln.valid {
				victim = ln
				break
			}
			if ln.lru < victim.lru {
				victim = ln
			}
		}
		if victim.valid && victim.dirty {
			c.writeback(victim)
		}
		c.tick++
		*victim = refLine{valid: true, tag: m.block, data: append([]uint64(nil), resp.Data...), lru: c.tick}
		if c.Meter != nil {
			c.Meter.DataBytes += c.BlockBytes()
		}

		// Answer every waiter, applying write-allocated stores in order.
		for _, acc := range m.waiters {
			if acc.Write {
				victim.data[(acc.Addr-m.block)/8] = acc.Data
				victim.dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.pend = append(c.pend, refPending{
				readyAt: cy + sim.Cycle(c.Cfg.HitLatency),
				resp:    refResp{ID: acc.ID, BlockBase: m.block, Data: append([]uint64(nil), victim.data...)},
				access:  acc,
			})
		}
	}
}

// InvalidateAll drops every refLine (the DASX baseline reloads its
// read-only object cache each refill-compute-update round); dirty lines
// are discarded, so only use on read-only workloads.
func (c *refCache) InvalidateAll() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = refLine{}
		}
	}
}
