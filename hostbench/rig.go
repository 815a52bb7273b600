package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xcache/internal/addrcache"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/hashidx"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Tracing brackets every component's Tick with timestamp marks: a
// sim.ComponentFunc registered between two components, and a sim.Observer
// for the end of the step (after the queue commits). The marks touch no
// queue, so the simulated results are those of the entry point (pinned by
// TestRigMatchesEntryPoint and re-checked in every traced run).
//
// A clock read costs tens of nanoseconds against well under a microsecond
// per simulated cycle, so only a sample of cycles is bracketed: bursts of
// traceBurst consecutive cycles every tracePeriod cycles, the first cycle
// of each burst only warming the clock path (a lone bracketed cycle runs
// cold and reads up to 40% long). The measured cost of an empty bracket
// is subtracted from each span.
const (
	tracePeriod   = 211 // prime, so the sample does not alias periodic behaviour
	traceBurst    = 17
	maxSpans      = 20_000 // spans kept in memory for the span file
	widxMaxCycles = 50_000_000
)

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one traced interval; Parent 0 is the root.
type span struct {
	ID, Parent int
	Name       string
	Start, Dur int64
}

// tracer accumulates per-component self time over the sampled cycles of
// every kernel it is attached to, and the attached kernel's idle cycles
// and queue operations over every cycle.
type tracer struct {
	names   []string // component names in tick order
	stamps  []int64  // this cycle's marks, one before each component and one after the last
	self    []int64  // Σ span ns per component over sampled cycles
	commit  int64    // Σ ns from the last mark to the end of the step
	sampled int64

	queues  []sim.QueueInfo
	lastOps uint64
	idle    uint64

	spans  []span
	parent int // span the sampled cycles hang under
}

func newTracer(names ...string) *tracer {
	return &tracer{names: names, stamps: make([]int64, len(names)+1), self: make([]int64, len(names))}
}

func (t *tracer) mark(i int) sim.ComponentFunc {
	return func(c sim.Cycle) {
		if c%tracePeriod < traceBurst {
			t.stamps[i] = now()
		}
	}
}

// AfterStep implements sim.Observer.
func (t *tracer) AfterStep(c sim.Cycle) {
	if ph := c % tracePeriod; ph >= 1 && ph < traceBurst {
		end := now()
		last := t.stamps[len(t.names)]
		for i := range t.names {
			t.self[i] += t.stamps[i+1] - t.stamps[i]
		}
		t.commit += end - last
		t.sampled++
		if len(t.spans) < maxSpans {
			t.keepCycle(c, end)
		}
	}
	var ops uint64
	for _, q := range t.queues {
		ops += q.Pushes() + q.Pops()
	}
	if ops == t.lastOps {
		t.idle++
	}
	t.lastOps = ops
}

func (t *tracer) keepCycle(c sim.Cycle, end int64) {
	id := t.open(t.parent, fmt.Sprintf("cycle %d", c), t.stamps[0], end)
	for i, n := range t.names {
		t.open(id, n, t.stamps[i], t.stamps[i+1])
	}
	t.open(id, "sim.commit", t.stamps[len(t.names)], end)
}

// open records a span and returns its ID.
func (t *tracer) open(parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, Dur: end - start})
	return id
}

// attach registers the tracer as the step observer and restarts the
// idle-cycle accounting over the kernel's queues. Call after every
// component and queue is registered.
func (t *tracer) attach(k *sim.Kernel) {
	k.Observe(t)
	t.queues, t.lastOps, t.idle = k.Queues(), 0, 0
}

// bracketCost measures an empty bracket: the span between two marks with
// nothing between them, and from a last mark to the end of a step with no
// queues. These are subtracted from component and commit spans.
func bracketCost() (mark, commit float64) {
	var marks, commits []float64
	for rep := 0; rep < 5; rep++ {
		k := sim.NewKernel()
		t := newTracer("empty")
		k.Add(t.mark(0))
		k.Add(t.mark(1))
		k.Observe(t)
		k.Run(tracePeriod * 2000)
		marks = append(marks, float64(t.self[0])/float64(t.sampled))
		commits = append(commits, float64(t.commit)/float64(t.sampled))
	}
	return median(marks), median(commits)
}

// writeSpans writes the kept spans as Chrome trace-event JSON (loadable in
// Perfetto), one complete event per span, parent IDs in args.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rigResult is one traced run of a bench-assembled stack.
type rigResult struct {
	out                       outputs
	checked                   bool
	setup, simulate, validate time.Duration
	counts                    map[string]float64 // modelled per-layer counts
}

// stack assembles a Widx stack from public constructors, with the
// tracer's marks between its components, and adds the host time it spends
// generating inputs and building the simulated system to st. It returns
// the simulation and the read-out of its results.
type stack func(seed int64, tr *tracer, st *setupTimes) (run func() error, finish func(*rigResult), err error)

// runRig builds and runs a stack, wrapping its three phases in a run span
// with setup, simulate and validate children; the sampled cycles hang
// under simulate.
func runRig(s stack, seed int64, tr *tracer) (rigResult, error) {
	var res rigResult
	t0 := now()
	root := tr.open(0, "run", t0, t0)
	run, finish, err := s(seed, tr, &setupTimes{})
	t1 := now()
	tr.open(root, "setup", t0, t1)
	tr.parent = tr.open(root, "simulate", t1, t1)
	if err == nil {
		err = run()
	}
	t2 := now()
	tr.spans[tr.parent-1].Dur = t2 - t1
	if err == nil {
		finish(&res)
	}
	t3 := now()
	tr.open(root, "validate", t2, t3)
	tr.spans[root-1].Dur = t3 - t0
	res.setup, res.simulate, res.validate = time.Duration(t1-t0), time.Duration(t2-t1), time.Duration(t3-t2)
	return res, err
}

// stackSetup times a stack's set-up alone: it builds the stack and drops
// it. The marks are registered but never run.
func stackSetup(s stack, spans []string) func(int64) (setupTimes, error) {
	return func(seed int64) (setupTimes, error) {
		var st setupTimes
		_, _, err := s(seed, newTracer(spans...), &st)
		return st, err
	}
}

func dramCounts(m map[string]float64, s dram.Stats, cycles uint64) {
	cy := float64(cycles)
	m["dram.accesses_per_kcycle"] = float64(s.Accesses()) * 1000 / cy
	m["dram.row_hit_ratio"] = float64(s.RowHits) / float64(s.RowHits+s.RowMisses)
	m["dram.avg_latency_cycles"] = s.AvgLatency()
	m["dram.bus_busy_share"] = float64(s.BusBusy) / cy
}

func simCounts(m map[string]float64, tr *tracer, cycles uint64) {
	m["sim.idle_cycle_share"] = float64(tr.idle) / float64(cycles)
	m["sim.queue_ops_per_cycle"] = float64(tr.lastOps) / float64(cycles)
}

// Span names of the two rigs' components in tick order; each one's self
// time is reported as <name>_ns_per_cycle.
var (
	probeSpans = []string{"dram.tick", "ctrl.tick", "dsa.driver"}
	walkSpans  = []string{"dram.tick", "addrcache.cache_tick", "addrcache.engine_tick", "dsa.driver"}
)

// probeDriver is the benchmark's copy of the Widx datapath: it issues
// meta loads to the X-Cache and validates every returned RID.
type probeDriver struct {
	c                     *ctrl.Controller
	trace                 []uint64
	ix                    *hashidx.Index
	cursor, pending, done int
	issueW                int
	ok                    bool
}

func (dp *probeDriver) Tick(cy sim.Cycle) {
	for {
		resp, popped := dp.c.RespQ.Pop()
		if !popped {
			break
		}
		dp.pending--
		dp.done++
		rid, present := dp.ix.RIDs[dp.trace[resp.ID]]
		switch {
		case present && (resp.Status != program.StatusOK || resp.Value != rid):
			dp.ok = false
		case !present && resp.Status != program.StatusNotFound:
			dp.ok = false
		}
	}
	for i := 0; i < dp.issueW && dp.cursor < len(dp.trace); i++ {
		req := ctrl.MetaReq{ID: uint64(dp.cursor), Op: ctrl.MetaLoad,
			Key: metatag.Key{dp.trace[dp.cursor], 0}, Issued: cy}
		if !dp.c.ReqQ.Push(req) {
			break
		}
		dp.cursor++
		dp.pending++
	}
}

// probeStack is widx-probe assembled as widx.RunXCache assembles it, with
// a mark before DRAM, the controller and the driver, and after the driver.
func probeStack(seed int64, tr *tracer, st *setupTimes) (func() error, func(*rigResult), error) {
	w, cfg := widxWork(seed), widxOptions().Cfg
	t := processCPU()
	k, img := sim.NewKernel(), mem.NewImage()
	k.Add(tr.mark(0))
	d := dram.New(k, dram.DefaultConfig(), img)
	k.Add(tr.mark(1))
	meter := &energy.Counters{}
	cache, err := core.Build(k, cfg, widx.Spec(0), d.Req, d.Resp, meter)
	st.compile += processCPU() - t
	if err != nil {
		return nil, nil, err
	}
	k.Add(tr.mark(2))
	t = processCPU()
	ix, trace := widx.BuildWorkload(w, img)
	st.build += processCPU() - t
	t = processCPU()
	prog, err := widx.Spec(ix.Shift).Compile()
	if err == nil {
		err = cache.Ctrl.LoadProgram(prog)
	}
	st.compile += processCPU() - t
	if err != nil {
		return nil, nil, err
	}
	cache.SetEnv(0, ix.Table)
	cache.SetEnv(1, hashidx.HashMul)
	dp := &probeDriver{c: cache.Ctrl, trace: trace, ix: ix, issueW: 2, ok: true}
	k.Add(dp)
	k.Add(tr.mark(3))
	tr.attach(k)
	run := func() error {
		if !k.RunUntil(func() bool { return dp.done == len(trace) }, widxMaxCycles) {
			return fmt.Errorf("widx-probe rig: timeout at %d/%d probes", dp.done, len(trace))
		}
		if t := cache.Ctrl.Trap(); t != nil {
			return t
		}
		return nil
	}
	finish := func(r *rigResult) {
		sys := &core.System{K: k, Img: img, DRAM: d, Cache: cache, Meter: meter}
		st := sys.Snapshot()
		r.out = outputs{st.Cycles, st.DRAM.Accesses(), st.DRAM.WordsRead, st.Ctrl.Hits, st.Ctrl.Misses,
			st.Ctrl.L2UHist.Percentile(0.5), st.Ctrl.L2UHist.Percentile(0.99)}
		r.checked = dp.ok
		cy := float64(st.Cycles)
		m := map[string]float64{
			"ctrl.actions_per_cycle":    float64(st.Ctrl.Actions) / cy,
			"ctrl.hit_ratio":            st.Ctrl.HitRate(),
			"ctrl.stall_cycles":         float64(st.Ctrl.StallCycles),
			"ctrl.alloc_retries":        float64(st.Ctrl.AllocRetries),
			"metatag.lookups_per_cycle": float64(st.Tags.Lookups) / cy,
			"metatag.evictions":         float64(st.Tags.Evictions),
		}
		dramCounts(m, st.DRAM, st.Cycles)
		simCounts(m, tr, st.Cycles)
		r.counts = m
	}
	return run, finish, nil
}

// walkDriver is the benchmark's copy of the Widx address-cache pump: one
// ideal-walker probe job per trace entry, every result validated.
type walkDriver struct {
	eng          *addrcache.Engine
	trace        []uint64
	ix           *hashidx.Index
	cursor, done int
	ok           bool
}

func (p *walkDriver) Tick(cy sim.Cycle) {
	for {
		resp, popped := p.eng.Resp.Pop()
		if !popped {
			break
		}
		p.done++
		rid, present := p.ix.RIDs[p.trace[resp.ID]]
		if present != resp.Result.Found || (present && rid != resp.Result.Value) {
			p.ok = false
		}
	}
	for p.cursor < len(p.trace) {
		job := addrcache.Job{ID: uint64(p.cursor), W: widx.NewProbeWalk(p.ix, p.trace[p.cursor], 0), Issued: cy}
		if !p.eng.Jobs.Push(job) {
			break
		}
		p.cursor++
	}
}

// walkStack is widx-walk assembled as widx.RunAddr assembles it, with a
// mark before DRAM, the cache, the walk engine and the driver, and after
// the driver.
func walkStack(seed int64, tr *tracer, st *setupTimes) (func() error, func(*rigResult), error) {
	w, cfg := widxWork(seed), widxOptions().Cfg
	t := processCPU()
	k, img := sim.NewKernel(), mem.NewImage()
	k.Add(tr.mark(0))
	d := dram.New(k, dram.DefaultConfig(), img)
	k.Add(tr.mark(1))
	cache := addrcache.New(k, widx.AddrGeometry(cfg), d.Req, d.Resp, &energy.Counters{})
	k.Add(tr.mark(2))
	eng := addrcache.NewEngine(k, addrcache.EngineConfig{Contexts: cfg.NumActive}, cache)
	k.Add(tr.mark(3))
	st.compile += processCPU() - t
	t = processCPU()
	ix, trace := widx.BuildWorkload(w, img)
	st.build += processCPU() - t
	p := &walkDriver{eng: eng, trace: trace, ix: ix, ok: true}
	k.Add(p)
	k.Add(tr.mark(4))
	tr.attach(k)
	run := func() error {
		if !k.RunUntil(func() bool { return p.done == len(trace) }, widxMaxCycles) {
			return fmt.Errorf("widx-walk rig: timeout at %d/%d probes", p.done, len(trace))
		}
		return nil
	}
	finish := func(r *rigResult) {
		cycles := uint64(k.Cycle())
		ds, cs, es := d.Stats(), cache.Stats(), eng.Stats()
		r.out = outputs{Cycles: cycles, DRAMAccesses: ds.Accesses(), DRAMReadWords: ds.WordsRead,
			Hits: cs.Hits, Misses: cs.Misses}
		r.checked = p.ok
		m := map[string]float64{
			"addrcache.hit_ratio":            cs.HitRate(),
			"addrcache.mshr_merges":          float64(cs.MSHRMerge),
			"addrcache.engine_steps_per_job": float64(es.Steps) / float64(es.Jobs),
		}
		dramCounts(m, ds, cycles)
		simCounts(m, tr, cycles)
		r.counts = m
	}
	return run, finish, nil
}
