// Package widx reproduces the Widx DSA ("Meet the Walkers", MICRO'13):
// hash-index probe acceleration for in-memory databases. The meta-tag is
// the probe key; X-Cache caches the hash-index nodes themselves, so a hit
// skips both the (up to 60-cycle, for TPC-H 19/20 string keys) hashing
// and the bucket-chain walk. The original Widx — the paper's baseline —
// hashes on every probe and walks an address-tagged cache.
package widx

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/hashidx"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Work describes one probe workload: a hash index of NumKeys keys over
// Buckets buckets, probed Probes times with the Profile's key mix.
type Work struct {
	NumKeys int
	Buckets int
	Probes  int
	Profile hashidx.Profile
	Seed    int64
}

// DefaultWork sizes a workload for the given TPC-H profile; scale divides
// the paper-scale sizes for fast unit tests.
func DefaultWork(p hashidx.Profile, scale int) Work {
	if scale < 1 {
		scale = 1
	}
	keys := 200000 / scale
	if keys < 64 {
		keys = 64
	}
	probes := int(float64(keys) * p.ProbesPerKey)
	// Buckets sized for average chain length 6: the deep-walk regime of a
	// 100 GB TPC-H hash join (the index vastly exceeds any on-chip cache
	// and probes traverse multi-node chains).
	return Work{NumKeys: keys, Buckets: keys / 6, Probes: probes, Profile: p, Seed: 42}
}

// Options configure a run.
type Options struct {
	Cfg              core.Config // zero value → core.WidxConfig()
	DRAM             dram.Config
	MaxCycles        int
	IssueWidth       int // datapath probes issued per cycle
	BaselineContexts int // hardware walkers in the original Widx
	Mode             ctrl.ExecMode
	// Check attaches the hardening harness (watchdog, invariant checkers,
	// fault injection) to the run, whatever its kind; nil runs
	// unsupervised.
	Check *check.Config
}

func (o *Options) defaults() {
	if o.Cfg.Sets == 0 {
		o.Cfg = core.WidxConfig()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	if o.IssueWidth == 0 {
		o.IssueWidth = 2
	}
	if o.BaselineContexts == 0 {
		o.BaselineContexts = 4
	}
	o.Cfg.Mode = o.Mode
}

// Spec returns the Widx walker program (§5, Fig 10a): IDX (hash the key)
// → META (load the bucket head) → DATA/MATCH (chase the chain comparing
// keys). shift is 64−log2(buckets), compiled in as a DSA constant.
func Spec(shift uint) program.Spec {
	return program.Spec{
		Name:   "widx",
		States: []string{"Meta", "Data"},
		Consts: map[string]int64{"HSHIFT": int64(shift)},
		Transitions: []program.Transition{
			// IDX + META: hash the key, fetch the bucket head pointer.
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1          ; probe key lives across yields
				allocm
				lde r4, e1         ; multiplicative hash constant
				mul r5, r1, r4
				shr r5, r5, HSHIFT ; bucket index
				shl r5, r5, 3
				lde r4, e0         ; bucket table base
				add r5, r4, r5
				enqfilli r5, 1     ; META: bucket head pointer
				state Meta
			`},
			{State: "Meta", Event: "Fill", Asm: `
				peek r5, 0
				bnz r5, walk
				li r6, 0
				enqresp r6, NOTFOUND
				abort
			walk:
				enqfilli r5, 3     ; AREF: node [key, rid, next]
				state Data
			`},
			// MATCH: compare, follow next, or finish.
			{State: "Data", Event: "Fill", Asm: `
				peek r6, 0         ; node key
				beq r6, r1, match
				peek r5, 2         ; next pointer
				bnz r5, chase
				li r6, 0
				enqresp r6, NOTFOUND
				abort
			chase:
				enqfilli r5, 3
				state Data
			match:
				peek r6, 1         ; RID
				allocdi r7, 1
				writed r7, r6
				li r8, 1
				update r7, r8
				enqresp r6, OK
				halt Valid
			`},
		},
	}
}

// BuildWorkload lays the index out in img and generates the probe trace.
func BuildWorkload(w Work, img *mem.Image) (*hashidx.Index, []uint64) {
	ix := hashidx.Build(img, hashidx.SeqKeys(w.NumKeys), w.Buckets)
	return ix, hashidx.Trace(ix, w.Profile, w.Probes, w.Seed)
}

// datapath drives meta probes against an X-Cache and validates RIDs.
type datapath struct {
	c       *ctrl.Controller
	trace   []uint64
	ix      *hashidx.Index
	cursor  int
	pending int
	done    int
	issueW  int
	ok      bool
}

func (dp *datapath) Tick(cy sim.Cycle) {
	for {
		resp, popped := dp.c.RespQ.Pop()
		if !popped {
			break
		}
		dp.pending--
		dp.done++
		key := dp.trace[resp.ID]
		rid, present := dp.ix.RIDs[key]
		switch {
		case present && (resp.Status != program.StatusOK || resp.Value != rid):
			dp.ok = false
		case !present && resp.Status != program.StatusNotFound:
			dp.ok = false
		}
	}
	for i := 0; i < dp.issueW && dp.cursor < len(dp.trace); i++ {
		req := ctrl.MetaReq{
			ID:     uint64(dp.cursor),
			Op:     ctrl.MetaLoad,
			Key:    metatag.Key{dp.trace[dp.cursor], 0},
			Issued: cy,
		}
		if !dp.c.ReqQ.Push(req) {
			break
		}
		dp.cursor++
		dp.pending++
	}
}

// RunXCache measures the Widx datapath over a programmed X-Cache.
func RunXCache(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	h := dsa.NewHarness("Widx", w.Profile.Name, dsa.KindXCache, opt.DRAM)
	ix, trace := BuildWorkload(w, h.Img)
	xc, err := h.XCache(opt.Cfg, Spec(ix.Shift))
	if err != nil {
		return dsa.Result{}, err
	}
	xc.SetEnv(0, ix.Table)
	xc.SetEnv(1, hashidx.HashMul)

	dp := &datapath{c: xc.Ctrl, trace: trace, ix: ix, issueW: opt.IssueWidth, ok: true}
	h.K.Add(dp)
	if err := h.Run(opt.Check, opt.MaxCycles, func() bool { return dp.done == len(trace) },
		func() string { return fmt.Sprintf("%d/%d probes", dp.done, len(trace)) }); err != nil {
		return dsa.Result{}, err
	}
	return h.XCacheResult(dp.ok), nil
}

// probeWalk is the address-based walk for one probe: bucket head, then
// the node chain. hash is the datapath compute charged before the first
// address (zero for the ideal walker, Profile.HashCycles for Widx).
// NewProbeWalk returns the address-based walk for one probe (shared with
// the DASX baseline, which walks the same index structure).
func NewProbeWalk(ix *hashidx.Index, key uint64, hashCycles int) addrcache.Walk {
	return &probeWalk{ix: ix, key: key, hash: hashCycles}
}

type probeWalk struct {
	ix    *hashidx.Index
	key   uint64
	hash  int
	stage int
	cur   uint64
}

func (p *probeWalk) Next(blockBase uint64, data []uint64) (addrcache.Step, addrcache.Result, bool) {
	switch p.stage {
	case 0:
		p.stage = 1
		p.cur = p.ix.HeadAddr(p.ix.BucketOf(p.key))
		return addrcache.Step{Addr: p.cur, ComputeCycles: p.hash}, addrcache.Result{}, false
	case 1:
		head := data[(p.cur-blockBase)/8]
		if head == 0 {
			return addrcache.Step{}, addrcache.Result{Found: false}, true
		}
		p.stage = 2
		p.cur = head
		return addrcache.Step{Addr: head}, addrcache.Result{}, false
	default:
		off := (p.cur - blockBase) / 8
		nodeKey, rid, next := data[off], data[off+1], data[off+2]
		if nodeKey == p.key {
			return addrcache.Step{}, addrcache.Result{Found: true, Value: rid, Words: 1}, true
		}
		if next == 0 {
			return addrcache.Step{}, addrcache.Result{Found: false}, true
		}
		p.cur = next
		return addrcache.Step{Addr: next}, addrcache.Result{}, false
	}
}

// AddrGeometry sizes an address cache to the same data capacity as an
// X-Cache configuration (same byte count, 32-byte blocks, 8 ways).
func AddrGeometry(cfg core.Config) addrcache.Config { return dsa.AddrGeometry(cfg, 4, 1) }

// runWalked is shared by RunAddr (hash=0: ideal walker) and RunBaseline
// (hash=Profile.HashCycles on every probe: the original Widx datapath).
func runWalked(w Work, opt Options, kind dsa.Kind, hashCycles, contexts int) (dsa.Result, error) {
	h := dsa.NewHarness("Widx", w.Profile.Name, kind, opt.DRAM)
	_, eng := h.Walker(AddrGeometry(opt.Cfg), contexts)
	ix, trace := BuildWorkload(w, h.Img)

	cursor, done := 0, 0
	okAll := true
	h.K.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := eng.Resp.Pop()
			if !popped {
				break
			}
			done++
			key := trace[resp.ID]
			rid, present := ix.RIDs[key]
			if present != resp.Result.Found || (present && rid != resp.Result.Value) {
				okAll = false
			}
		}
		// Build a walk only when the engine takes it (walk.jobs is
		// never clogged, so CanPush holds for the MustPush).
		for cursor < len(trace) && eng.Jobs.CanPush() {
			eng.Jobs.MustPush(addrcache.Job{ID: uint64(cursor),
				W:      &probeWalk{ix: ix, key: trace[cursor], hash: hashCycles},
				Issued: cy})
			// Hashing energy: one ALU op per hash cycle on the datapath.
			h.Meter.AddOps += uint64(hashCycles)
			cursor++
		}
	}))
	if err := h.Run(opt.Check, opt.MaxCycles, func() bool { return done == len(trace) },
		func() string { return fmt.Sprintf("%d/%d probes", done, len(trace)) }); err != nil {
		return dsa.Result{}, err
	}
	return h.AddrResult(okAll), nil
}

// RunAddr measures the address-tagged cache with an ideal walker.
func RunAddr(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	return runWalked(w, opt, dsa.KindAddr, 0, opt.Cfg.NumActive)
}

// RunBaseline measures the original Widx: hardwired walkers that hash on
// every probe and walk through an address cache.
func RunBaseline(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	return runWalked(w, opt, dsa.KindBaseline, w.Profile.HashCycles, opt.BaselineContexts)
}
