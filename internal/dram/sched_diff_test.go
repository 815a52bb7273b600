package dram

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xcache/internal/mem"
	"xcache/internal/sim"
)

// This file keeps the original O(banks × window) scheduler verbatim as a
// test oracle: refDRAM rescans the whole window per idle bank, decodes
// addresses on every comparison and compacts the window every cycle. The
// lockstep harness drives it and the production DRAM with the same
// seeded request streams and requires identical responses, response
// order, Stats, Pending() and Diagnose() at every cycle.

// refDRAM is the reference channel: the pre-slab scheduler, unchanged
// apart from its type names.
type refDRAM struct {
	Cfg     Config
	Req     *sim.Queue[Request]
	Resp    *sim.Queue[Response]
	Faults  FaultInjector
	Disrupt Disruptor

	img        *mem.Image
	banks      []bank
	window     []*refPending
	busFree    sim.Cycle
	stats      Stats
	respHold   []Response
	delayed    []delayedResp
	burstExtra int
	strict     bool
	protoErr   error
}

func newRefDRAM(k *sim.Kernel, cfg Config, img *mem.Image) *refDRAM {
	d := &refDRAM{
		Cfg:   cfg,
		Req:   sim.NewQueue[Request](k, "dram.req", cfg.QueueDepth),
		Resp:  sim.NewQueue[Response](k, "dram.resp", cfg.RespDepth),
		img:   img,
		banks: make([]bank, cfg.Banks),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	k.Add(d)
	return d
}

func (d *refDRAM) Stats() Stats { return d.stats }

// schedParams shapes one seeded request stream and the channel it runs on.
type schedParams struct {
	Seed       int64
	N          int  // requests in the stream
	Banks      int  // channel banks
	WritePct   int  // share of writes, in percent
	Rows       int  // distinct rows per bank: 1 gives row hits, many give conflicts
	MaxWords   int  // largest burst, in words
	PerCycle   int  // most requests offered per cycle
	PopEvery   int  // the requester drains responses every PopEvery cycles
	RespDepth  int  // response queue capacity (small values exercise respHold)
	Window     int  // scheduler window depth
	BusPerWord int  // data-bus cycles per word (0 makes every burst 1 cycle)
	Faults     bool // drop and delay read responses
	Disrupt    bool // outage, stall and burst-latency episodes
}

func (p schedParams) config() Config {
	cfg := DefaultConfig()
	cfg.Banks = p.Banks
	cfg.RespDepth = p.RespDepth
	cfg.WindowDepth = p.Window
	cfg.TBusPerWord = p.BusPerWord
	return cfg
}

// schedStream draws the request stream. Addresses are chosen as (bank,
// row, column), so Rows sets the row-hit/row-conflict mix directly.
func schedStream(p schedParams, cfg Config) []Request {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]Request, p.N)
	for i := range out {
		bank := uint64(rng.Intn(cfg.Banks))
		row := uint64(rng.Intn(p.Rows))
		col := uint64(rng.Intn(int(cfg.RowBytes / 8)))
		r := Request{
			ID:    uint64(i + 1),
			Addr:  (row*uint64(cfg.Banks)+bank)*cfg.RowBytes + col*8,
			Words: 1 + rng.Intn(p.MaxWords),
			Write: rng.Intn(100) < p.WritePct,
		}
		if r.Write {
			r.Data = make([]uint64, r.Words)
			for j := range r.Data {
				if rng.Intn(4) != 0 { // some zero words clear the image
					r.Data[j] = rng.Uint64()
				}
			}
		}
		out[i] = r
	}
	return out
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hashFaults drops about a tenth of read responses and delays a fifth,
// as a pure function of (ID, cycle).
type hashFaults struct{}

func (hashFaults) ReadResponse(r Response, c sim.Cycle) (bool, int) {
	h := mix64(r.ID<<24 ^ uint64(c))
	switch h % 10 {
	case 0:
		return true, 0
	case 1, 2:
		return false, int(h>>8%40) + 1
	}
	return false, 0
}

// hashDisrupt cuts time into 29-cycle episodes, each an outage, a stall,
// a burst-latency hold or healthy, as a pure function of the cycle.
// Outages let several in-flight requests fall due on the same cycle.
type hashDisrupt struct{}

func (hashDisrupt) ChannelState(c sim.Cycle) (frozen, stalled bool, extra int) {
	h := mix64(uint64(c / 29))
	switch h % 6 {
	case 0:
		return true, false, 0
	case 1:
		return false, true, 0
	case 2:
		return false, false, int(h>>8%16) + 1
	}
	return false, false, 0
}

// schedChannel is what the lockstep harness compares on both channels.
type schedChannel interface {
	Stats() Stats
	Pending() int
	Diagnose() []string
	Idle() bool
}

// schedTwin is one channel plus the requester that feeds it the stream.
type schedTwin struct {
	k    *sim.Kernel
	ch   schedChannel
	resp *sim.Queue[Response]
	next int        // stream index of the next request to offer
	got  []Response // responses popped this cycle
}

func newSchedTwin(p schedParams, stream []Request, ref bool) *schedTwin {
	cfg := p.config()
	k, img := sim.NewKernel(), mem.NewImage()
	for _, r := range stream {
		img.W64(r.Addr, r.ID)
	}
	t := &schedTwin{k: k}
	var req *sim.Queue[Request]
	var faults FaultInjector
	var disrupt Disruptor
	if p.Faults {
		faults = hashFaults{}
	}
	if p.Disrupt {
		disrupt = hashDisrupt{}
	}
	if ref {
		d := newRefDRAM(k, cfg, img)
		d.Faults, d.Disrupt, d.strict = faults, disrupt, true
		t.ch, req, t.resp = d, d.Req, d.Resp
	} else {
		d := New(k, cfg, img)
		d.Faults, d.Disrupt = faults, disrupt
		d.EnableProtocolCheck()
		t.ch, req, t.resp = d, d.Req, d.Resp
	}
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		if int(c)%p.PopEvery == 0 {
			for {
				r, ok := t.resp.Pop()
				if !ok {
					break
				}
				t.got = append(t.got, r)
			}
		}
		for i := 0; i < p.PerCycle && t.next < len(stream) && req.Push(stream[t.next]); i++ {
			t.next++
		}
	}))
	return t
}

func (t *schedTwin) done(n int) bool {
	return t.next == n && t.ch.Idle() && t.resp.Len() == 0
}

// runSchedLockstep steps the production channel and the reference in
// lockstep and returns the first divergence, or nil once both drain.
func runSchedLockstep(p schedParams) error {
	stream := schedStream(p, p.config())
	got, want := newSchedTwin(p, stream, false), newSchedTwin(p, stream, true)
	d := got.ch.(*DRAM)
	for cyc := sim.Cycle(0); cyc < 500_000; cyc++ {
		got.got, want.got = got.got[:0], want.got[:0]
		got.k.Step()
		want.k.Step()
		if !slices.EqualFunc(got.got, want.got, func(a, b Response) bool {
			return a.ID == b.ID && a.Addr == b.Addr && slices.Equal(a.Data, b.Data) && (a.Data == nil) == (b.Data == nil)
		}) {
			return fmt.Errorf("cycle %d: responses %+v, reference %+v", cyc, got.got, want.got)
		}
		if g, w := got.ch.Stats(), want.ch.Stats(); g != w {
			return fmt.Errorf("cycle %d: stats %+v, reference %+v", cyc, g, w)
		}
		if g, w := got.ch.Pending(), want.ch.Pending(); g != w {
			return fmt.Errorf("cycle %d: pending %d, reference %d", cyc, g, w)
		}
		if g, w := got.ch.Diagnose(), want.ch.Diagnose(); !slices.Equal(g, w) {
			return fmt.Errorf("cycle %d: diagnose\n%s\nreference\n%s", cyc, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
		if err := d.CheckInvariants(cyc); err != nil {
			return fmt.Errorf("cycle %d: %v", cyc, err)
		}
		if g, w := got.done(len(stream)), want.done(len(stream)); g != w {
			return fmt.Errorf("cycle %d: drained %t, reference %t", cyc, g, w)
		} else if g {
			return nil
		}
	}
	return fmt.Errorf("stream did not drain within the cycle budget")
}

func TestSchedLockstep(t *testing.T) {
	base := schedParams{N: 300, Banks: 8, WritePct: 30, Rows: 4, MaxWords: 8,
		PerCycle: 2, PopEvery: 1, RespDepth: 64, Window: 32, BusPerWord: 1}
	cases := map[string]func(p *schedParams){
		"mixed":         func(p *schedParams) {},
		"row-hits":      func(p *schedParams) { p.Rows, p.PerCycle = 1, 3 },
		"row-conflicts": func(p *schedParams) { p.Rows, p.Banks = 64, 2 },
		"resp-full":     func(p *schedParams) { p.RespDepth, p.PopEvery = 2, 40 },
		"faults":        func(p *schedParams) { p.Faults = true },
		"disruptor":     func(p *schedParams) { p.Disrupt = true },
		"everything": func(p *schedParams) {
			p.Faults, p.Disrupt, p.Window, p.RespDepth, p.PopEvery, p.BusPerWord = true, true, 8, 3, 7, 0
		},
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p := base
				p.Seed = seed
				tweak(&p)
				if err := runSchedLockstep(p); err != nil {
					t.Fatalf("seed %d %+v: %v", seed, p, err)
				}
			}
		})
	}
}

// FuzzDRAMSched runs the lockstep oracle over fuzzed stream parameters.
func FuzzDRAMSched(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint8(40), uint8(4), uint8(8), uint8(2), uint8(1), uint8(64), uint8(32), uint8(0))
	f.Add(int64(2), uint16(200), uint8(3), uint8(10), uint8(1), uint8(4), uint8(3), uint8(30), uint8(2), uint8(16), uint8(1))
	f.Add(int64(3), uint16(250), uint8(8), uint8(50), uint8(30), uint8(16), uint8(4), uint8(5), uint8(4), uint8(8), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, banks, writePct, rows, maxWords, perCycle, popEvery, respDepth, window, flags uint8) {
		p := schedParams{
			Seed:       seed,
			N:          1 + int(n)%400,
			Banks:      1 + int(banks)%16,
			WritePct:   int(writePct) % 101,
			Rows:       1 + int(rows)%64,
			MaxWords:   1 + int(maxWords)%16,
			PerCycle:   1 + int(perCycle)%4,
			PopEvery:   1 + int(popEvery)%64,
			RespDepth:  1 + int(respDepth)%64,
			Window:     1 + int(window)%48,
			BusPerWord: 1 - int(flags>>2&1),
			Faults:     flags&1 != 0,
			Disrupt:    flags&2 != 0,
		}
		if err := runSchedLockstep(p); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	})
}

type refPending struct {
	req      Request
	arrived  sim.Cycle
	started  bool
	complete sim.Cycle
}

// Pending reports the number of requests admitted but not yet completed.
func (d *refDRAM) Pending() int { return len(d.window) + len(d.respHold) + len(d.delayed) }

// Idle reports whether the channel has no queued or in-flight work.
func (d *refDRAM) Idle() bool {
	return d.Req.Len() == 0 && len(d.window) == 0 && len(d.respHold) == 0 && len(d.delayed) == 0
}

// Diagnose describes per-bank and scheduler state for stall reports.
func (d *refDRAM) Diagnose() []string {
	var out []string
	out = append(out, fmt.Sprintf("window %d/%d, respHold %d, delayed %d, busFree @%d",
		len(d.window), d.Cfg.WindowDepth, len(d.respHold), len(d.delayed), d.busFree))
	for i := range d.banks {
		b := &d.banks[i]
		state := "closed"
		if b.openRow >= 0 {
			state = fmt.Sprintf("row %d open", b.openRow)
		}
		out = append(out, fmt.Sprintf("bank %d: %s, busy until %d", i, state, b.busyUntil))
	}
	for _, p := range d.window {
		tag := "queued"
		if p.started {
			tag = fmt.Sprintf("completes @%d", p.complete)
		}
		out = append(out, fmt.Sprintf("req id=%d addr=%#x words=%d arrived @%d (%s)",
			p.req.ID, p.req.Addr, p.req.Words, p.arrived, tag))
	}
	return out
}

func (d *refDRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	rowGlobal := addr / d.Cfg.RowBytes
	return int(rowGlobal % uint64(d.Cfg.Banks)), int64(rowGlobal / uint64(d.Cfg.Banks))
}

// Tick implements sim.Component.
func (d *refDRAM) Tick(c sim.Cycle) {
	stalled := false
	d.burstExtra = 0
	if d.Disrupt != nil {
		frozen, st, extra := d.Disrupt.ChannelState(c)
		if frozen {
			// Hard outage: the channel does nothing. Requests pile up in
			// Req, completed-but-undelivered work sits where it is, and
			// in-flight completion times simply pass unobserved (their
			// responses deliver on the first healthy cycle after the
			// episode). The layer above is expected to notice the silence
			// and fail over.
			d.stats.OutageCycles++
			return
		}
		stalled, d.burstExtra = st, extra
		if stalled {
			d.stats.StallCycles++
		}
	}

	// Release fault-delayed responses whose hold expired.
	if len(d.delayed) > 0 {
		keep := d.delayed[:0]
		for _, dr := range d.delayed {
			if dr.readyAt <= c {
				d.deliver(dr.resp)
				continue
			}
			keep = append(keep, dr)
		}
		d.delayed = keep
	}

	// Retry responses that were blocked on a full response queue.
	for len(d.respHold) > 0 {
		if !d.Resp.Push(d.respHold[0]) {
			break
		}
		d.respHold = d.respHold[1:]
	}

	// Admit new requests into the scheduling window.
	for len(d.window) < d.Cfg.WindowDepth {
		req, ok := d.Req.Pop()
		if !ok {
			break
		}
		d.window = append(d.window, &refPending{req: req, arrived: c})
	}
	if p := d.Pending(); p > d.stats.PeakPending {
		d.stats.PeakPending = p
	}

	// Issue: for each idle bank, pick the oldest pending request targeting
	// it, preferring row hits (FR-FCFS-lite). A stall episode suppresses
	// issue entirely — admitted requests wait in the window.
	if !stalled {
		d.issue(c)
	}

	// Complete.
	remaining := d.window[:0]
	for _, p := range d.window {
		if !p.started || p.complete > c {
			remaining = append(remaining, p)
			continue
		}
		d.finish(p, c)
	}
	d.window = remaining
}

// issue picks, for each idle bank, the oldest pending request targeting
// it, preferring row hits (FR-FCFS-lite), and schedules it on the shared
// data bus.
func (d *refDRAM) issue(c sim.Cycle) {
	for bi := range d.banks {
		b := &d.banks[bi]
		if b.busyUntil > c {
			continue
		}
		var pick *refPending
		for _, p := range d.window {
			if p.started {
				continue
			}
			pb, prow := d.mapAddr(p.req.Addr)
			if pb != bi {
				continue
			}
			if pick == nil {
				pick = p
				continue
			}
			_, pickRow := d.mapAddr(pick.req.Addr)
			if prow == b.openRow && pickRow != b.openRow {
				pick = p
			}
		}
		if pick == nil {
			continue
		}
		_, row := d.mapAddr(pick.req.Addr)
		lat := d.Cfg.ChannelFixed + d.Cfg.TCAS
		issue := c + sim.Cycle(d.Cfg.ChannelFixed)
		switch {
		case b.openRow == row:
			d.stats.RowHits++
			if d.strict && b.openRow >= 0 && issue < b.lastAct+sim.Cycle(d.Cfg.TRCD) {
				d.violate("CAS to bank %d at %d before tRCD elapses (ACT at %d, tRCD %d)",
					bi, issue, b.lastAct, d.Cfg.TRCD)
			}
		case b.openRow == -1:
			d.stats.RowMisses++
			lat += d.Cfg.TRCD
			// A never-precharged bank (cold start) has no tRP window.
			if d.strict && b.preValid && issue < b.lastPre+sim.Cycle(d.Cfg.TRP) {
				d.violate("ACT to bank %d at %d before tRP elapses (PRE at %d, tRP %d)",
					bi, issue, b.lastPre, d.Cfg.TRP)
			}
			b.lastAct = issue
		default:
			// Row conflict: precharge at issue, activate tRP later.
			d.stats.RowMisses++
			lat += d.Cfg.TRP + d.Cfg.TRCD
			b.lastPre = issue
			b.preValid = true
			b.lastAct = issue + sim.Cycle(d.Cfg.TRP)
		}
		if d.strict && b.busyUntil > c {
			d.violate("issue to busy bank %d at cycle %d (busy until %d)", bi, c, b.busyUntil)
		}
		b.openRow = row
		burst := pick.req.Words * d.Cfg.TBusPerWord
		if burst < 1 {
			burst = 1
		}
		// Serialize bursts on the shared data bus.
		dataStart := c + sim.Cycle(lat)
		if d.busFree > dataStart {
			dataStart = d.busFree
		}
		d.busFree = dataStart + sim.Cycle(burst)
		d.stats.BusBusy += uint64(burst)
		pick.started = true
		pick.complete = d.busFree
		b.busyUntil = d.busFree
	}
}

// violate records the first timing-protocol violation.
func (d *refDRAM) violate(format string, args ...any) {
	if d.protoErr == nil {
		d.protoErr = fmt.Errorf("dram: "+format, args...)
	}
}

func (d *refDRAM) finish(p *refPending, c sim.Cycle) {
	d.stats.TotalLatency += uint64(c - p.arrived)
	resp := Response{ID: p.req.ID, Addr: p.req.Addr}
	if p.req.Write {
		d.stats.Writes++
		d.stats.WordsWritten += uint64(p.req.Words)
		if len(p.req.Data) != p.req.Words {
			panic(fmt.Sprintf("dram: write %#x has %d data words, want %d", p.req.Addr, len(p.req.Data), p.req.Words))
		}
		d.img.WriteWords(p.req.Addr, p.req.Data)
	} else {
		d.stats.Reads++
		d.stats.WordsRead += uint64(p.req.Words)
		resp.Data = d.img.ReadWords(p.req.Addr, p.req.Words)
		if d.Faults != nil {
			drop, delay := d.Faults.ReadResponse(resp, c)
			if drop {
				d.stats.DroppedResps++
				return
			}
			if delay > 0 {
				d.stats.DelayedResps++
				d.delayed = append(d.delayed, delayedResp{readyAt: c + sim.Cycle(delay), resp: resp})
				return
			}
		}
	}
	// A burst-latency episode holds every response completing this cycle
	// (reads and write acks alike) back by the episode's extra delay.
	if d.burstExtra > 0 {
		d.stats.BurstDelays++
		d.delayed = append(d.delayed, delayedResp{readyAt: c + sim.Cycle(d.burstExtra), resp: resp})
		return
	}
	d.deliver(resp)
}

// deliver pushes a response, spilling to respHold when the queue is full.
func (d *refDRAM) deliver(resp Response) {
	if !d.Resp.Push(resp) {
		d.respHold = append(d.respHold, resp)
	}
}
