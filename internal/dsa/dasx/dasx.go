// Package dasx reproduces the DASX DSA (ICS'15): a hardware data-structure
// iterator whose collector runs ahead of the compute unit, refilling an
// object cache in refill-compute-update rounds. We study the hash-table
// configuration on the same MonetDB/TPC-H probe workloads as Widx
// (§7.2). DASX's hashing is coupled with walking, so X-Cache's gains are
// larger than on Widx: a meta-tag hit skips hash, walk, and the
// round-barrier reload of the baseline's object cache.
package dasx

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/hashidx"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Options configure a DASX run.
type Options struct {
	Cfg        core.Config // zero value → core.DASXConfig()
	DRAM       dram.Config
	MaxCycles  int
	RoundSize  int // objects per refill-compute-update round
	Lookahead  int // collector preload distance (X-Cache runs)
	ComputePer int // compute cycles per object in the compute phase
	// Check attaches the hardening harness to the run, whatever its kind.
	Check *check.Config
}

func (o *Options) defaults() {
	if o.Cfg.Sets == 0 {
		o.Cfg = core.DASXConfig()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	if o.RoundSize == 0 {
		o.RoundSize = 64
	}
	if o.Lookahead == 0 {
		o.Lookahead = 64
	}
	if o.ComputePer == 0 {
		o.ComputePer = 2
	}
}

const preloadBit = uint64(1) << 40

// Spec is the DASX walker: the Widx hash-index walk plus negative
// caching — the collector records not-found objects as zero-sector
// entries so the compute stream's probe hits instead of re-walking the
// chain (DASX's collector "refills multiple objects; subsequent accesses
// are cache hits").
func Spec(shift uint) program.Spec {
	return program.Spec{
		Name:   "dasx",
		States: []string{"Meta", "Data"},
		Consts: map[string]int64{"HSHIFT": int64(shift)},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1
				allocm
				lde r4, e1
				mul r5, r1, r4
				shr r5, r5, HSHIFT
				shl r5, r5, 3
				lde r4, e0
				add r5, r4, r5
				enqfilli r5, 1
				state Meta
			`},
			{State: "Meta", Event: "Fill", Asm: `
				peek r5, 0
				bnz r5, walk
				li r6, 0
				update r6, r6      ; negative entry: zero sectors
				enqresp r6, OK
				halt Valid
			walk:
				enqfilli r5, 3
				state Data
			`},
			{State: "Data", Event: "Fill", Asm: `
				peek r6, 0
				beq r6, r1, match
				peek r5, 2
				bnz r5, chase
				li r6, 0
				update r6, r6      ; negative entry: zero sectors
				enqresp r6, OK
				halt Valid
			chase:
				enqfilli r5, 3
				state Data
			match:
				peek r6, 1
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

// collector drives the X-Cache: a preload stream Lookahead probes ahead
// of the compute stream. Preload responses are discarded; compute
// responses are validated.
type collector struct {
	c          *ctrl.Controller
	trace      []uint64
	ix         *hashidx.Index
	preCursor  int
	cursor     int
	done       int
	lookahead  int
	computeAt  sim.Cycle
	computePer int
	ok         bool
}

func (dp *collector) Tick(cy sim.Cycle) {
	for {
		resp, popped := dp.c.RespQ.Pop()
		if !popped {
			break
		}
		if resp.ID&preloadBit != 0 {
			continue // decoupled preload: no consumer
		}
		dp.done++
		key := dp.trace[resp.ID]
		rid, present := dp.ix.RIDs[key]
		switch {
		case present && (resp.Status != program.StatusOK || resp.Words == 0 || resp.Value != rid):
			dp.ok = false
		case !present && !(resp.Status == program.StatusNotFound ||
			(resp.Status == program.StatusOK && resp.Words == 0)):
			dp.ok = false
		}
		// Update phase: fixed compute per consumed object.
		dp.computeAt = cy + sim.Cycle(dp.computePer)
	}

	// Compute stream first (it must never starve behind the collector):
	// one object at a time, gated by the update phase.
	if dp.cursor < len(dp.trace) && cy >= dp.computeAt && dp.cursor < dp.done+4 {
		req := ctrl.MetaReq{ID: uint64(dp.cursor), Op: ctrl.MetaLoad,
			Key: metatag.Key{dp.trace[dp.cursor], 0}, Issued: cy}
		if dp.c.ReqQ.Push(req) {
			dp.cursor++
		}
	}

	// Collector: run ahead of the compute stream, leaving queue headroom
	// so preloads never monopolize the meta port.
	for dp.preCursor < len(dp.trace) && dp.preCursor < dp.cursor+dp.lookahead &&
		dp.c.ReqQ.Len() < dp.c.ReqQ.Cap()/2 {
		req := ctrl.MetaReq{ID: preloadBit | uint64(dp.preCursor), Op: ctrl.MetaLoad,
			Key: metatag.Key{dp.trace[dp.preCursor], 0}, Issued: cy}
		if !dp.c.ReqQ.Push(req) {
			break
		}
		dp.preCursor++
	}
}

// RunXCache measures DASX over X-Cache with the decoupled collector
// preloading through meta loads.
func RunXCache(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	h := dsa.NewHarness("DASX", w.Profile.Name, dsa.KindXCache, opt.DRAM)
	ix, trace := widx.BuildWorkload(w, h.Img)
	xc, err := h.XCache(opt.Cfg, Spec(ix.Shift))
	if err != nil {
		return dsa.Result{}, err
	}
	xc.SetEnv(0, ix.Table)
	xc.SetEnv(1, hashidx.HashMul)

	dp := &collector{c: xc.Ctrl, trace: trace, ix: ix,
		lookahead: opt.Lookahead, computePer: opt.ComputePer, ok: true}
	h.K.Add(dp)
	if err := h.Run(opt.Check, opt.MaxCycles, func() bool { return dp.done == len(trace) },
		func() string { return fmt.Sprintf("%d/%d", dp.done, len(trace)) }); err != nil {
		return dsa.Result{}, err
	}
	return h.XCacheResult(dp.ok), nil
}

// RunAddr measures the same workload over an address cache with an ideal
// walker (no hashing cost, no round barriers).
func RunAddr(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	r, err := widx.RunAddr(w, widx.Options{Cfg: opt.Cfg, DRAM: opt.DRAM, MaxCycles: opt.MaxCycles, Check: opt.Check})
	r.DSA = "DASX"
	r.Kind = dsa.KindAddr
	return r, err
}

// RunBaseline measures the original DASX: refill-compute-update rounds
// over a hardwired object cache that is reloaded every round, with
// hashing coupled into every walk.
func RunBaseline(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	h := dsa.NewHarness("DASX", w.Profile.Name, dsa.KindBaseline, opt.DRAM)
	cache, eng := h.Walker(widx.AddrGeometry(opt.Cfg), opt.Cfg.NumActive)
	ix, trace := widx.BuildWorkload(w, h.Img)

	var (
		roundStart = 0
		inflight   = 0
		issued     = 0
		done       = 0
		okAll      = true
		computing  = sim.Cycle(0)
	)
	h.K.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := eng.Resp.Pop()
			if !popped {
				break
			}
			inflight--
			done++
			key := trace[resp.ID]
			rid, present := ix.RIDs[key]
			if present != resp.Result.Found || (present && rid != resp.Result.Value) {
				okAll = false
			}
		}
		if cy < computing {
			return // compute phase of the previous round
		}
		roundEnd := roundStart + opt.RoundSize
		if roundEnd > len(trace) {
			roundEnd = len(trace)
		}
		// Refill phase: issue this round's objects.
		for issued < roundEnd {
			if !eng.Jobs.CanPush() {
				return
			}
			hash := w.Profile.HashCycles
			eng.Jobs.MustPush(addrcache.Job{ID: uint64(issued),
				W: widx.NewProbeWalk(ix, trace[issued], hash), Issued: cy})
			h.Meter.AddOps += uint64(hash)
			issued++
			inflight++
		}
		// Round barrier: all refills done → compute phase → reload cache.
		if inflight == 0 && issued == roundEnd && done == issued && roundStart < len(trace) {
			computing = cy + sim.Cycle(opt.ComputePer*(roundEnd-roundStart))
			roundStart = roundEnd
			cache.InvalidateAll()
		}
	}))
	if err := h.Run(opt.Check, opt.MaxCycles, func() bool { return done == len(trace) && h.K.Cycle() >= computing },
		func() string { return fmt.Sprintf("%d/%d", done, len(trace)) }); err != nil {
		return dsa.Result{}, err
	}
	return h.AddrResult(okAll), nil
}
