package main

import (
	"math"
	"sort"
)

// Workload names, in the order the README and BENCHMARK.json list them.
const (
	wlProbe    = "widx-probe"
	wlWalk     = "widx-walk"
	wlPageRank = "pagerank-merge"
	wlSweep    = "fig14-sweep"
)

var workloadNames = []string{wlProbe, wlWalk, wlPageRank, wlSweep}

// metricDef describes one reported metric. End-to-end metrics are printed
// by an untraced run (-trace 0), per-layer metrics by a traced run
// (-trace 1). A per-layer metric names the end-to-end metric it should
// move (Moves), the workload where it should move (On) and, where one
// exists, the workload where it should not (Not).
type metricDef struct {
	Name  string
	Unit  string
	Layer bool
	Moves string
	On    string
	Not   string
}

func e2e(name, unit string) metricDef { return metricDef{Name: name, Unit: unit} }

func layer(name, unit, moves, on, not string) metricDef {
	return metricDef{Name: name, Unit: unit, Layer: true, Moves: moves, On: on, Not: not}
}

const (
	mHostNs  = "host_ns_per_cycle"
	mCPUNs   = "cpu_ns_per_cycle"
	mWall    = "wall_s"
	mSetup   = "setup_s"
	mAlloc   = "alloc_bytes_per_cycle"
	mMaxRSS  = "max_rss_mb"
	mOverhdr = "trace.overhead_ratio"
)

// layerPkgs are the profile folds reported as layer_share.<pkg>.
var layerPkgs = []string{"sim", "dram", "addrcache", "ctrl", "metatag", "dataram", "mem", "dsa", "runner", "runtime"}

// printed are end-to-end figures that every run line prints but the result
// line does not report. They are wall-clock times, and on a shared VM those
// swing with the time the hypervisor takes the CPU away (steal), far more
// than a tenth from run to run; the CPU-time metrics hold. A per-layer
// metric may still name one as the figure it moves.
var printed = []string{mHostNs, mWall}

// catalogue is every metric the benchmark reports, end-to-end first.
// BENCHMARK.json lists the same names and units (pinned by a test).
var catalogue = func() []metricDef {
	defs := []metricDef{
		e2e(mCPUNs, "ns/cycle"),
		e2e(mSetup, "s"),
		e2e(mAlloc, "B/cycle"),
		e2e(mMaxRSS, "MB"),

		layer("sim.simulate_ns_per_cycle", "ns/cycle", mCPUNs, wlProbe, ""),
		layer("sim.commit_ns_per_cycle", "ns/cycle", mCPUNs, wlProbe, ""),
		layer("sim.idle_cycle_share", "share", mCPUNs, wlProbe, ""),
		layer("sim.queue_ops_per_cycle", "1/cycle", mCPUNs, wlProbe, ""),

		layer("dram.tick_ns_per_cycle", "ns/cycle", mCPUNs, wlWalk, ""),
		layer("dram.accesses_per_kcycle", "1/kcycle", mCPUNs, wlWalk, ""),
		layer("dram.row_hit_ratio", "share", mCPUNs, wlWalk, ""),
		layer("dram.avg_latency_cycles", "cycles", mCPUNs, wlWalk, ""),
		layer("dram.bus_busy_share", "share", mCPUNs, wlWalk, ""),

		layer("ctrl.tick_ns_per_cycle", "ns/cycle", mCPUNs, wlProbe, wlWalk),
		layer("ctrl.actions_per_cycle", "1/cycle", mCPUNs, wlProbe, wlWalk),
		layer("ctrl.hit_ratio", "share", mCPUNs, wlProbe, wlWalk),
		layer("ctrl.stall_cycles", "count", mCPUNs, wlProbe, wlWalk),
		layer("ctrl.alloc_retries", "count", mCPUNs, wlProbe, wlWalk),
		layer("metatag.lookups_per_cycle", "1/cycle", mCPUNs, wlProbe, wlWalk),
		layer("metatag.evictions", "count", mCPUNs, wlProbe, wlWalk),

		layer("addrcache.cache_tick_ns_per_cycle", "ns/cycle", mCPUNs, wlWalk, wlProbe),
		layer("addrcache.engine_tick_ns_per_cycle", "ns/cycle", mCPUNs, wlWalk, wlProbe),
		layer("addrcache.hit_ratio", "share", mCPUNs, wlWalk, wlProbe),
		layer("addrcache.mshr_merges", "count", mCPUNs, wlWalk, wlProbe),
		layer("addrcache.engine_steps_per_job", "1/job", mCPUNs, wlWalk, wlProbe),

		layer("dsa.driver_ns_per_cycle", "ns/cycle", mCPUNs, wlWalk, wlProbe),

		layer("runtime.mallocs_per_cycle", "1/cycle", mAlloc, wlWalk, wlProbe),
		layer("runtime.gc_count", "count", mCPUNs, wlPageRank, wlProbe),
		layer("runtime.gc_cpu_share", "share", mCPUNs, wlWalk, wlProbe),

		layer("setup.build_s", "s", mSetup, wlPageRank, ""),
		layer("setup.compile_s", "s", mSetup, wlProbe, ""),
		layer("validate.reference_s", "s", mCPUNs, wlPageRank, wlProbe),

		layer("runner.worker_busy_share", "share", mWall, wlSweep, wlProbe),
		layer("runner.runs_launched", "count", mCPUNs, wlSweep, wlProbe),
		layer("runner.runs_cached", "count", mCPUNs, wlSweep, wlProbe),

		layer(mOverhdr, "ratio", mCPUNs, wlProbe, ""),
		layer("trace.bracket_ns", "ns", mCPUNs, wlProbe, ""),
	}
	shareOn := map[string][2]string{
		"sim":       {wlProbe, ""},
		"dram":      {wlWalk, ""},
		"addrcache": {wlWalk, wlProbe},
		"ctrl":      {wlProbe, wlWalk},
		"metatag":   {wlPageRank, wlWalk},
		"dataram":   {wlPageRank, wlWalk},
		"mem":       {wlWalk, ""},
		"dsa":       {wlPageRank, ""},
		"runner":    {wlSweep, wlProbe},
		"runtime":   {wlWalk, wlProbe},
	}
	for _, p := range layerPkgs {
		defs = append(defs, layer("layer_share."+p, "share", mCPUNs, shareOn[p][0], shareOn[p][1]))
	}
	return defs
}()

// samples collects per-pass values of named metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
