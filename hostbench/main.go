// Command hostbench is the repository's host-speed benchmark: it runs one
// named workload through the simulator's public entry points for a fixed
// number of seconds, checks every run's modelled output, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	hostbench --workload widx-probe --seed 42 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed (sets Work.Seed; fig14-sweep has fixed inputs)")
	seconds := fs.Int("seconds", 25, "measure for this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	pin := fs.String("pin", "", "print the modelled outputs for these seeds (e.g. 0-24,42) as pinned-table lines and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = fmt.Errorf("want --trace 0|1 and --seconds >= 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	if *pin != "" {
		return printPins(wl, *pin, stdout, stderr)
	}

	b := &bench{wl: wl, seed: *seed, out: stdout, traced: *trace == 1, s: samples{}}
	if wl.name == wlSweep {
		if b.fig14, err = pinnedFig14(); err != nil {
			fmt.Fprintln(stderr, "hostbench: cannot load the fig14 oracle:", err)
			return 1
		}
	}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]float64
	if b.traced {
		metrics, err = b.runTraced(budget, filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", wl.name, *seed)))
	} else {
		metrics = b.runEndToEnd(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	return b.report(metrics, stdout, stderr)
}

// bench is one invocation: a workload, a seed and the samples its passes
// recorded. A pass is one whole, validated run of the workload.
type bench struct {
	wl     *workload
	seed   int64
	out    io.Writer
	traced bool
	fig14  []byte  // fig14-sweep's oracle
	first  outputs // outputs of this invocation's first run, for unpinned seeds

	attempted, failed int
	s                 samples
	counts            map[string]float64 // the last rig pass's modelled counts
}

func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(b.out, "run %d FAILED (%s): %v\n", b.attempted, what, err)
}

// loop cycles through kinds of pass, running each at least once, until
// the next pass would overrun the budget.
func loop(budget time.Duration, kinds ...func()) {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		kinds[i%len(kinds)]()
		if i+1 >= len(kinds) && time.Since(start)+time.Since(t) > budget {
			return
		}
	}
}

func (b *bench) runEndToEnd(budget time.Duration) map[string]float64 {
	loop(budget, func() { b.entryPass(nil) })
	m := map[string]float64{}
	for _, d := range catalogue {
		if !d.Layer {
			m[d.Name] = median(b.s[d.Name])
		}
	}
	m[mMaxRSS] = maxRSSMB()
	return m
}

// setupReps is how many times each untraced pass times the workload's
// set-up; setup_s is the median over every set-up of the invocation.
const setupReps = 2

// timeSetup times the workload's set-up alone, setupReps times, each from
// a collected heap.
func (b *bench) timeSetup() error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		st, err := b.wl.setup(b.seed)
		if err != nil {
			return err
		}
		b.s.add(mSetup, st.total().Seconds())
		b.s.add("setup.build_s", st.build.Seconds())
		b.s.add("setup.compile_s", st.compile.Seconds())
	}
	return nil
}

// entryPass times the workload's set-up alone, then one call into its
// public entry point and the check of its output. With prof set it skips
// the set-up, and the call runs under the CPU profiler and feeds only the
// profile and the traced timing, not the end-to-end samples.
func (b *bench) entryPass(prof *layerProfile) {
	b.attempted++
	if prof == nil {
		if err := b.timeSetup(); err != nil {
			b.fail("setup", err)
			return
		}
	}
	runtime.GC()
	if prof != nil {
		if err := prof.start(); err != nil {
			b.fail("profile", err)
			return
		}
	}
	u0 := snapshot()
	cr, err := b.wl.call(b.seed)
	u1 := snapshot()
	if prof != nil {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err == nil {
		err = checkOutputs(b.wl.name, b.seed, cr, &b.first, b.fig14)
	}
	wall := time.Since(u0.wall)
	if err != nil {
		b.fail("entry point", err)
		return
	}
	call := u1.wall.Sub(u0.wall)
	cycles := float64(cr.out.Cycles)
	hostNs := float64(call.Nanoseconds()) / cycles
	fmt.Fprintf(b.out, "run %d %s seed=%d %v %s=%.1f %s=%.3f profiled=%t\n",
		b.attempted, b.wl.name, b.seed, cr.out, mHostNs, hostNs, mWall, wall.Seconds(), prof != nil)
	if prof != nil {
		b.s.add("profiled_host_ns", hostNs)
		return
	}
	b.s.add(mHostNs, hostNs)
	b.s.add(mCPUNs, float64((u1.cpu-u0.cpu).Nanoseconds())/cycles)
	b.s.add(mAlloc, float64(u1.alloc-u0.alloc)/cycles)
	if !b.traced {
		return
	}
	b.s.add("runtime.mallocs_per_cycle", float64(u1.mallocs-u0.mallocs)/cycles)
	b.s.add("runtime.gc_count", float64(u1.numGC-u0.numGC))
	if share, ok := gcShare(u0); ok {
		b.s.add("runtime.gc_cpu_share", share)
	}
	switch b.wl.name {
	case wlPageRank:
		b.s.add("validate.reference_s", prReference(b.seed).Seconds())
	case wlSweep:
		var busy time.Duration
		for _, r := range cr.stats.Runs {
			busy += r.Wall
		}
		b.s.add("runner.worker_busy_share", busy.Seconds()/(sweepWorkers*call.Seconds()))
		b.s.add("runner.runs_launched", float64(cr.stats.Launched))
		b.s.add("runner.runs_cached", float64(cr.stats.Cached))
	}
}

// rigPass runs the traced rig once and checks that it reproduced the entry
// point's modelled outputs.
func (b *bench) rigPass(tr *tracer) {
	runtime.GC()
	r, err := b.wl.rig(b.seed, tr)
	b.attempted++
	if err == nil {
		err = checkOutputs(b.wl.name, b.seed, callResult{out: r.out, checked: r.checked}, &b.first, nil)
	}
	if err != nil {
		b.fail("traced rig", err)
		return
	}
	cycles := float64(r.out.Cycles)
	hostNs := float64((r.setup + r.simulate + r.validate).Nanoseconds()) / cycles
	fmt.Fprintf(b.out, "run %d %s seed=%d %v host_ns_per_cycle=%.1f traced=true\n",
		b.attempted, b.wl.name, b.seed, r.out, hostNs)
	b.s.add("rig_host_ns", hostNs)
	b.s.add("sim.simulate_ns_per_cycle", float64(r.simulate.Nanoseconds())/cycles)
	b.counts = r.counts
}

// runTraced is the traced mode. It cycles through an untraced pass, a
// CPU-profiled pass and, for the Widx workloads, a pass of the bracketed
// rig. The untraced passes give the runtime, set-up and runner metrics;
// the profiled ones the layer shares; the rig the tick spans and the
// modelled counts. trace.overhead_ratio is the traced (rig, else
// profiled) over the untraced host_ns_per_cycle.
func (b *bench) runTraced(budget time.Duration, spansPath string) (map[string]float64, error) {
	prof := newLayerProfile()
	kinds := []func(){func() { b.entryPass(nil) }, func() { b.entryPass(prof) }}
	var tr *tracer
	var markNs, commitNs float64
	traced := "profiled_host_ns"
	if b.wl.stack != nil {
		markNs, commitNs = bracketCost()
		tr = newTracer(b.wl.spans...)
		kinds = append(kinds, func() { b.rigPass(tr) })
		traced = "rig_host_ns"
	}
	loop(budget, kinds...)

	m := map[string]float64{}
	for _, d := range catalogue {
		if d.Layer {
			m[d.Name] = median(b.s[d.Name])
		}
	}
	for _, p := range layerPkgs {
		m["layer_share."+p] = prof.share(p)
	}
	if tr != nil {
		if tr.sampled > 0 {
			n := float64(tr.sampled)
			for i, name := range tr.names {
				m[name+"_ns_per_cycle"] = math.Max(0, float64(tr.self[i])/n-markNs)
			}
			m["sim.commit_ns_per_cycle"] = math.Max(0, float64(tr.commit)/n-commitNs)
		}
		for k, v := range b.counts {
			m[k] = v
		}
		m["trace.bracket_ns"] = markNs
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	m[mOverhdr] = median(b.s[traced]) / median(b.s[mHostNs])
	return m, nil
}

// report prints the result line: every metric of the mode, absent or
// unmeasured ones as 0.
func (b *bench) report(m map[string]float64, stdout, stderr io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: b.attempted > 0 && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, d := range catalogue {
		if d.Layer != b.traced {
			continue
		}
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printPins runs the workload's entry point once per seed and prints the
// modelled outputs as lines of the pinned table in pinned.go.
func printPins(wl *workload, list string, stdout, stderr io.Writer) int {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		z := a
		if err == nil && isRange {
			z, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hostbench: bad -pin list:", err)
			return 2
		}
		for s := a; s <= z; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, s := range seeds {
		cr, err := wl.call(s)
		if err == nil && !cr.checked {
			err = fmt.Errorf("functional validation failed")
		}
		if err != nil {
			fmt.Fprintf(stderr, "hostbench: seed %d: %v\n", s, err)
			return 1
		}
		o := cr.out
		fmt.Fprintf(stdout, "\t\t%d: {%d, %d, %d, %d, %d, %d, %d},\n", s,
			o.Cycles, o.DRAMAccesses, o.DRAMReadWords, o.Hits, o.Misses, o.L2UP50, o.L2UP99)
	}
	return 0
}
