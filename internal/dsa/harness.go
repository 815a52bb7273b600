package dsa

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Harness is the scaffolding every DSA run shares: the kernel, memory
// image, primary DRAM channel and energy meter, the cache under test, one
// supervised run loop and the Result assembly. A DSA runner supplies only
// its datapath (a sim.Component registered on K), its walker and its
// validation against the reference.
//
// Components register in call order, so a runner that builds its caches
// and channels in the same order always produces the same simulation.
type Harness struct {
	K       *sim.Kernel
	Img     *mem.Image
	DRAM    *dram.DRAM  // primary channel
	DRAMCfg dram.Config // primary channel configuration, defaults applied
	Meter   *energy.Counters

	dsa, workload string
	kind          Kind

	xc    *core.Cache
	cache *addrcache.Cache
	eng   *addrcache.Engine
}

// NewHarness creates the kernel, image, primary DRAM channel and meter of
// one run, labelled with the identity its Result reports. A zero dcfg
// means dram.DefaultConfig().
func NewHarness(dsa, workload string, kind Kind, dcfg dram.Config) *Harness {
	if dcfg.Banks == 0 {
		dcfg = dram.DefaultConfig()
	}
	k := sim.NewKernel()
	img := mem.NewImage()
	return &Harness{K: k, Img: img, DRAM: dram.New(k, dcfg, img), DRAMCfg: dcfg,
		Meter: &energy.Counters{}, dsa: dsa, workload: workload, kind: kind}
}

// Channel adds a further DRAM channel over the run's image (an adjacency
// or stream port). Its statistics count toward the Result.
func (h *Harness) Channel(cfg dram.Config) *dram.DRAM { return dram.New(h.K, cfg, h.Img) }

// XCache builds the run's X-Cache over the primary channel.
func (h *Harness) XCache(cfg core.Config, spec program.Spec) (*core.Cache, error) {
	return h.XCacheOn(cfg, spec, h.DRAM.Req, h.DRAM.Resp)
}

// XCacheOn builds the run's X-Cache over an arbitrary memory port, such
// as a lower cache level in the MXA composition.
func (h *Harness) XCacheOn(cfg core.Config, spec program.Spec,
	req *sim.Queue[dram.Request], resp *sim.Queue[dram.Response]) (*core.Cache, error) {
	xc, err := core.Build(h.K, cfg, spec, req, resp, h.Meter)
	if err != nil {
		return nil, err
	}
	h.xc = xc
	return xc, nil
}

// AddrCache attaches an address-tagged cache over the primary channel.
func (h *Harness) AddrCache(geo addrcache.Config) *addrcache.Cache {
	h.cache = addrcache.New(h.K, geo, h.DRAM.Req, h.DRAM.Resp, h.Meter)
	return h.cache
}

// Walker attaches an address cache plus the ideal-walker engine that
// runs walk jobs through it with the given number of contexts.
func (h *Harness) Walker(geo addrcache.Config, contexts int) (*addrcache.Cache, *addrcache.Engine) {
	c := h.AddrCache(geo)
	h.eng = addrcache.NewEngine(h.K, addrcache.EngineConfig{Contexts: contexts}, c)
	return c, h.eng
}

// AddrGeometry sizes an address cache to an X-Cache configuration's data
// capacity divided by div: blockWords-word blocks, 8 ways and the largest
// power-of-two set count that fits.
func AddrGeometry(cfg core.Config, blockWords, div int) addrcache.Config {
	blocks := cfg.Sets * cfg.Ways * cfg.WordsPerSector / blockWords / div
	const ways = 8
	sets := 1
	for sets*2 <= blocks/ways {
		sets *= 2
	}
	return addrcache.Config{Sets: sets, Ways: ways, BlockWords: blockWords}
}

// Run steps the kernel until done reports true, within max cycles and
// supervised by cfg (nil runs unsupervised, exactly k.RunUntil). An
// aborted run returns its typed *check.Failure, wrapped with progress();
// a run whose X-Cache trapped returns the *ctrl.Trap.
func (h *Harness) Run(cfg *check.Config, max int, done func() bool, progress func() string) error {
	sup := check.Attach(h.K, cfg)
	if ok, rep := check.Run(sup, h.K, done, max); !ok {
		return fmt.Errorf("%s %s: aborted at %s: %w", h.dsa, h.kind, progress(), rep.Failure())
	}
	if h.xc != nil {
		if t := h.xc.Ctrl.Trap(); t != nil {
			return fmt.Errorf("%s %s: %w", h.dsa, h.kind, t)
		}
	}
	return nil
}

// XCacheResult reports the run with the X-Cache controller's statistics.
func (h *Harness) XCacheResult(checked bool) Result {
	r := h.result(checked)
	st := h.xc.Ctrl.Stats()
	r.OnChipHits, r.OnChipMisses, r.HitRate = st.Hits, st.Misses, st.HitRate()
	r.AvgLoadToUse, r.HitLoadToUse = st.AvgLoadToUse(), st.AvgHitLoadToUse()
	r.L2UP50, r.L2UP99 = st.L2UHist.Percentile(0.5), st.L2UHist.Percentile(0.99)
	r.Occupancy = st.OccupancyByteCycles
	r.FillRetries, r.ParityScrubs = st.FillRetries, st.ParityScrubs
	return r
}

// AddrResult reports the run with the address cache's statistics and,
// when a walker engine is attached, its load-to-use.
func (h *Harness) AddrResult(checked bool) Result {
	r := h.result(checked)
	st := h.cache.Stats()
	r.OnChipHits, r.OnChipMisses, r.HitRate = st.Hits, st.Misses, st.HitRate()
	if h.eng != nil {
		r.AvgLoadToUse = h.eng.Stats().AvgLoadToUse()
	}
	return r
}

// result fills the fields every kind shares: identity, cycles, energy and
// DRAM traffic summed over every channel on the kernel.
func (h *Harness) result(checked bool) Result {
	r := Result{DSA: h.dsa, Workload: h.workload, Kind: h.kind,
		Cycles: uint64(h.K.Cycle()), Energy: h.Meter.Energy(energy.DefaultParams()), Checked: checked}
	for _, c := range h.K.Components() {
		if d, ok := c.(*dram.DRAM); ok {
			st := d.Stats()
			r.DRAMAccesses += st.Accesses()
			r.DRAMReadWords += st.WordsRead
			r.DroppedFills += st.DroppedResps
		}
	}
	return r
}
