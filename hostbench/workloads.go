package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"xcache/internal/core"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/exp"
	"xcache/internal/exp/runner"
	"xcache/internal/graph"
	"xcache/internal/hashidx"
	"xcache/internal/mem"
	"xcache/internal/program"
	"xcache/internal/sparse"
)

// Workload parameters. The Widx and PageRank points are the Fig 14 specs
// at scale 5 (web-Google at work scale 4×5, the sweep's rule); the sweep
// runs at scale 25, the only scale with a committed oracle (BENCH_0.json).
const (
	widxScale    = 5
	widxProfile  = "TPC-H-22"
	prScale      = 5
	prWorkScale  = 4 * prScale
	sweepScale   = 25
	sweepWorkers = 2
	defaultSeed  = 42
	bench0Path   = "BENCH_0.json"
	fig14ID      = "fig14"
)

// outputs are the modelled results of a run. They are correctness checks,
// not performance metrics: a host-only change must leave them identical.
type outputs struct {
	Cycles, DRAMAccesses, DRAMReadWords, Hits, Misses, L2UP50, L2UP99 uint64
}

func outputsOf(r dsa.Result) outputs {
	return outputs{r.Cycles, r.DRAMAccesses, r.DRAMReadWords, r.OnChipHits, r.OnChipMisses, r.L2UP50, r.L2UP99}
}

func (o outputs) String() string {
	return fmt.Sprintf("sim_cycles=%d dram_accesses=%d dram_read_words=%d hits=%d misses=%d l2u_p50=%d l2u_p99=%d",
		o.Cycles, o.DRAMAccesses, o.DRAMReadWords, o.Hits, o.Misses, o.L2UP50, o.L2UP99)
}

// setupTimes splits the host time spent before the first simulated cycle:
// generating the inputs (build) and compiling the walker plus building the
// simulated system (compile). Both are process CPU time (processCPU), not
// wall time: set-up allocates heavily, and on a shared machine its wall
// time swings with the time the VM is descheduled far more than the
// simulation's does.
type setupTimes struct{ build, compile time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.compile }

// callResult is what one call into the program's entry point produced.
type callResult struct {
	out     outputs
	checked bool
	// Sweep only: the rendered Fig 14 figure and the runner's statistics.
	fig   []byte
	stats runner.Stats
}

// workload is one benchmark workload: its set-up, timed alone, and the
// call into the program's public entry point that a user would make.
type workload struct {
	name  string
	setup func(seed int64) (setupTimes, error)
	call  func(seed int64) (callResult, error)
	// stack, when set, assembles the same simulated system from public
	// constructors with timing marks between its components, named by
	// spans; the traced mode runs it as the rig, and setup times it.
	stack stack
	spans []string
}

func workloadByName(name string) (*workload, error) {
	switch name {
	case wlProbe:
		return &workload{name: name, setup: stackSetup(probeStack, probeSpans), call: probeCall, stack: probeStack, spans: probeSpans}, nil
	case wlWalk:
		return &workload{name: name, setup: stackSetup(walkStack, walkSpans), call: walkCall, stack: walkStack, spans: walkSpans}, nil
	case wlPageRank:
		return &workload{name: name, setup: prSetup, call: prCall}, nil
	case wlSweep:
		return &workload{name: name, setup: sweepSetup, call: sweepCall}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rig runs the workload's stack once with the tracer attached.
func (wl *workload) rig(seed int64, tr *tracer) (rigResult, error) { return runRig(wl.stack, seed, tr) }

// --- Widx: widx-probe (X-Cache) and widx-walk (addr cache, ideal walker) ---

func tpchProfile(name string) hashidx.Profile {
	for _, p := range hashidx.TPCH() {
		if p.Name == name {
			return p
		}
	}
	panic("no TPC-H profile " + name)
}

func widxWork(seed int64) widx.Work {
	w := widx.DefaultWork(tpchProfile(widxProfile), widxScale)
	w.Seed = seed
	return w
}

// widxOptions mirrors runner.Spec.Execute for {Widx, TPC-H-22, scale 5};
// TestEntryPointMatchesSpec pins the equivalence.
func widxOptions() widx.Options {
	return widx.Options{Cfg: core.WidxConfig().Scaled(runner.CacheDiv(widxScale))}
}

func probeCall(seed int64) (callResult, error) {
	r, err := widx.RunXCache(widxWork(seed), widxOptions())
	return callResult{out: outputsOf(r), checked: r.Checked}, err
}

func walkCall(seed int64) (callResult, error) {
	r, err := widx.RunAddr(widxWork(seed), widxOptions())
	return callResult{out: outputsOf(r), checked: r.Checked}, err
}

// --- pagerank-merge: GraphPulse delta-PageRank over X-Cache ---

func prWork(seed int64) graphpulse.Work {
	w := graphpulse.WebGoogle(prWorkScale)
	w.Seed = seed
	return w
}

// prOptions mirrors runner.Spec.Execute for {GraphPulse, web-Google,
// scale 5, work scale 20}: the identity-indexed store keeps sets ≥ 2N.
func prOptions(w graphpulse.Work) graphpulse.Options {
	cfg := core.GraphPulseConfig()
	sets := 1024
	for sets < 2*w.N {
		sets *= 2
	}
	cfg.Sets, cfg.Sectors = sets, 2*sets
	return graphpulse.Options{Cfg: cfg}
}

func prSetup(seed int64) (setupTimes, error) {
	var st setupTimes
	w := prWork(seed)
	t := processCPU()
	g := graph.RMAT(w.N, w.E, w.Seed)
	st.build += processCPU() - t
	t = processCPU()
	sys, err := core.NewSystem(prOptions(w).Cfg, dram.DefaultConfig(), graphpulse.Spec())
	if err == nil {
		dram.New(sys.K, dram.DefaultConfig(), sys.Img)
	}
	st.compile += processCPU() - t
	if err != nil {
		return st, err
	}
	t = processCPU()
	g.WriteTo(sys.Img)
	st.build += processCPU() - t
	return st, nil
}

func prCall(seed int64) (callResult, error) {
	w := prWork(seed)
	r, err := graphpulse.RunXCache(w, prOptions(w))
	return callResult{out: outputsOf(r), checked: r.Checked}, err
}

// prReference times the synchronous delta-PageRank the entry point
// validates against, alone, on a freshly generated graph.
func prReference(seed int64) time.Duration {
	w := prWork(seed)
	g := graph.RMAT(w.N, w.E, w.Seed)
	t := time.Now()
	graph.DeltaPageRank(g, graph.PageRankParams{Damping: 0.85, Eps: w.Eps, MaxIter: w.MaxSS})
	return time.Since(t)
}

// --- fig14-sweep: exp.RunSweep at scale 25 on a 2-worker runner ---

// sweepSetup times the set-up of every run of the sweep, one after the
// other: each run's input generation, with the generator its entry point
// calls, and for each X-Cache run the system build with its walker
// compiled. The address-cache and hardwired stacks are not rebuilt; their
// constructors are private to each datapath, and input generation is most
// of the sweep's set-up. The seed does not enter: the sweep's inputs are
// fixed by its specs, which is what lets BENCH_0.json pin them.
func sweepSetup(int64) (setupTimes, error) {
	var st setupTimes
	for _, s := range exp.SweepSpecs(sweepScale) {
		if err := specSetup(s, &st); err != nil {
			return st, fmt.Errorf("%s/%s[%s]: %w", s.DSA, s.Workload, s.Kind, err)
		}
	}
	return st, nil
}

func specSetup(s runner.Spec, st *setupTimes) error {
	img := mem.NewImage()
	var cfg core.Config
	var spec program.Spec
	t := processCPU()
	switch s.DSA {
	case runner.DSAWidx, runner.DSADASX:
		ix, _ := widx.BuildWorkload(widx.DefaultWork(tpchProfile(s.Workload), s.Scale), img)
		cfg, spec = core.WidxConfig(), widx.Spec(ix.Shift)
		if s.DSA == runner.DSADASX {
			cfg, spec = core.DASXConfig(), dasx.Spec(ix.Shift)
		}
		cfg = cfg.Scaled(runner.CacheDiv(s.Scale))
	case runner.DSASpArch, runner.DSAGamma:
		w := spgemm.P2PGnutella31(s.Scale)
		sparse.RMAT(w.N, w.NNZ, w.Seed)
		sparse.RMAT(w.N, w.NNZ, w.Seed+1)
		cfg, spec = core.SpArchConfig(), spgemm.Spec()
		if s.DSA == runner.DSAGamma {
			cfg = core.GammaConfig()
		}
		cfg = cfg.Scaled(runner.SpgemmDiv(s.Scale))
	case runner.DSAGraphPulse:
		w := graphpulse.P2PGnutella08(s.Scale)
		if s.Workload == "web-Google" {
			w = graphpulse.WebGoogle(s.WorkScale)
		}
		graph.RMAT(w.N, w.E, w.Seed).WriteTo(img)
		cfg, spec = prOptions(w).Cfg, graphpulse.Spec()
	default:
		return fmt.Errorf("no set-up for DSA %q", s.DSA)
	}
	st.build += processCPU() - t
	if s.Kind != dsa.KindXCache {
		return nil
	}
	t = processCPU()
	_, err := core.NewSystem(cfg, dram.DefaultConfig(), spec)
	st.compile += processCPU() - t
	return err
}

func sweepCall(int64) (callResult, error) {
	r := runner.New(sweepWorkers)
	sw, err := exp.RunSweep(r, sweepScale)
	if err != nil {
		return callResult{}, err
	}
	var cr callResult
	cr.checked = true
	for _, res := range sw.Results {
		cr.out.Cycles += res.Cycles
		cr.out.DRAMAccesses += res.DRAMAccesses
		cr.out.DRAMReadWords += res.DRAMReadWords
		cr.out.Hits += res.OnChipHits
		cr.out.Misses += res.OnChipMisses
		cr.checked = cr.checked && res.Checked
	}
	cr.fig, err = figureJSON(exp.Fig14(sw))
	cr.stats = r.Stats()
	return cr, err
}

// figureJSON renders a figure the way xcache-bench -json records it in
// BENCH_0.json, so the two compare byte for byte.
func figureJSON(o *exp.Out) ([]byte, error) {
	f := figure{ID: o.ID, Metrics: o.Metrics, Notes: o.Notes}
	if o.Table != nil {
		f.Title, f.Header, f.Rows = o.Table.Title, o.Table.Header, o.Table.Rows
	}
	return json.Marshal(f)
}

type figure struct {
	ID      string             `json:"id"`
	Title   string             `json:"title,omitempty"`
	Header  []string           `json:"header,omitempty"`
	Rows    [][]string         `json:"rows,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
}

// pinnedFig14 reads the fig14 entry of BENCH_0.json from the checkout.
func pinnedFig14() ([]byte, error) {
	b, err := os.ReadFile(bench0Path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Figures []figure `json:"figures"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", bench0Path, err)
	}
	for _, f := range doc.Figures {
		if f.ID == fig14ID {
			return json.Marshal(f)
		}
	}
	return nil, fmt.Errorf("%s: no %q figure", bench0Path, fig14ID)
}

// --- host-side measurement around a call ---

// usage is a snapshot of the process counters a pass is measured with.
type usage struct {
	wall           time.Time
	cpu            time.Duration // user+sys, getrusage
	alloc, mallocs uint64
	numGC          uint32
	gcCPU, userCPU float64 // runtime/metrics estimates, seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		wall: time.Now(), cpu: processCPU(),
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(), userCPU: cpuSamples[1].Value.Float64(),
	}
}

// gcShare is the share of the Go runtime's GC CPU in GC plus user CPU from
// u0, taken just after a forced GC, to the end of the call just made. The
// runtime refreshes these estimates only when a GC stops the world, so the
// window is closed with a forced GC, and the cost of one more forced GC on
// the same heap is subtracted.
func gcShare(u0 usage) (float64, bool) {
	read := func() (gc, user float64) {
		runtime.GC()
		metrics.Read(cpuSamples)
		return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	}
	g1, u1 := read()
	g2, u2 := read()
	gc := (g1 - u0.gcCPU) - (g2 - g1)
	user := (u1 - u0.userCPU) - (u2 - u1)
	if user <= 0 {
		return 0, false
	}
	gc = max(0, gc)
	return gc / (gc + user), true
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the peak resident set of this process (ru_maxrss is KiB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// checkOutputs compares a call's modelled outputs with the pinned values
// for its seed, or, for a seed without pins, with the first pass of this
// invocation. The sweep is checked against BENCH_0.json's fig14 entry.
func checkOutputs(wl string, seed int64, cr callResult, first *outputs, fig14 []byte) error {
	if !cr.checked {
		return errors.New("functional validation failed (Result.Checked == false)")
	}
	if wl == wlSweep {
		if !bytes.Equal(cr.fig, fig14) {
			return fmt.Errorf("fig14 output differs from %s", bench0Path)
		}
	}
	if want, ok := pinned[wl][seed]; ok {
		if cr.out != want {
			return fmt.Errorf("modelled outputs differ from the pinned values:\n  got  %v\n  want %v", cr.out, want)
		}
		return nil
	}
	if *first == (outputs{}) {
		*first = cr.out
		return nil
	}
	if cr.out != *first {
		return fmt.Errorf("modelled outputs differ between passes of one seed:\n  got   %v\n  first %v", cr.out, *first)
	}
	return nil
}
