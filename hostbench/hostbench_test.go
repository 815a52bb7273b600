package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"xcache/internal/dsa"
	"xcache/internal/exp/runner"
)

// The benchmark runs from the repository root (it reads BENCH_0.json
// there); so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range catalogue {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric %q: bad name", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestLayerMetricsNameTheirTarget(t *testing.T) {
	e2eNames, wls := map[string]bool{}, map[string]bool{}
	for _, d := range catalogue {
		if !d.Layer {
			e2eNames[d.Name] = true
		}
	}
	for _, n := range printed {
		e2eNames[n] = true
	}
	for _, w := range workloadNames {
		wls[w] = true
	}
	for _, d := range catalogue {
		if !d.Layer {
			continue
		}
		if !e2eNames[d.Moves] {
			t.Errorf("%s: moves %q, not an end-to-end metric", d.Name, d.Moves)
		}
		if !wls[d.On] {
			t.Errorf("%s: moves on %q, not a workload", d.Name, d.On)
		}
		if d.Not != "" && (!wls[d.Not] || d.Not == d.On) {
			t.Errorf("%s: bad no-move workload %q", d.Name, d.Not)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalogue: the same
// workloads and the same metrics with the same units and modes.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", wls, workloadNames)
	}
	var want, got []string
	for _, d := range catalogue {
		want = append(want, d.Name+" "+d.Unit+" "+map[bool]string{false: "e2e", true: "layer"}[d.Layer])
	}
	for _, m := range doc.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" e2e")
	}
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" layer")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json metrics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestEntryPointMatchesSpec checks that the benchmark's calls reproduce
// runner.Spec.Execute for the Fig 14 specs they stand for at the specs'
// own seeds, and that those outputs are the pinned ones.
func TestEntryPointMatchesSpec(t *testing.T) {
	cases := []struct {
		wl   string
		seed int64
		spec runner.Spec
	}{
		{wlProbe, 42, runner.Spec{DSA: runner.DSAWidx, Kind: dsa.KindXCache, Workload: widxProfile, Scale: widxScale}},
		{wlWalk, 42, runner.Spec{DSA: runner.DSAWidx, Kind: dsa.KindAddr, Workload: widxProfile, Scale: widxScale}},
		{wlPageRank, 99, runner.Spec{DSA: runner.DSAGraphPulse, Kind: dsa.KindXCache, Workload: "web-Google", Scale: prScale, WorkScale: prWorkScale}},
	}
	for _, c := range cases {
		if testing.Short() && c.wl == wlPageRank {
			continue
		}
		wl, _ := workloadByName(c.wl)
		cr, err := wl.call(c.seed)
		if err != nil || !cr.checked {
			t.Fatalf("%s: err %v checked %t", c.wl, err, cr.checked)
		}
		ref, err := c.spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if cr.out != outputsOf(ref) {
			t.Errorf("%s: bench call %v, Spec.Execute %v", c.wl, cr.out, outputsOf(ref))
		}
		if cr.out != pinned[c.wl][c.seed] {
			t.Errorf("%s seed %d: outputs %v, pinned %v", c.wl, c.seed, cr.out, pinned[c.wl][c.seed])
		}
	}
}

// TestRigMatchesEntryPoint is the rig-equivalence self-test: each
// bench-assembled Widx stack, marks and observer attached, must reproduce
// the entry point's result exactly, or its spans describe another program.
func TestRigMatchesEntryPoint(t *testing.T) {
	for _, name := range []string{wlProbe, wlWalk} {
		for _, seed := range []int64{defaultSeed, 7} {
			wl, _ := workloadByName(name)
			cr, err := wl.call(seed)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(wl.spans...)
			r, err := wl.rig(seed, tr)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if r.out != cr.out || r.checked != cr.checked || !r.checked {
				t.Errorf("%s seed %d: rig %v checked %t, entry point %v checked %t",
					name, seed, r.out, r.checked, cr.out, cr.checked)
			}
			if tr.sampled == 0 || tr.idle == 0 || len(tr.spans) == 0 {
				t.Errorf("%s seed %d: tracer recorded nothing", name, seed)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"xcache/internal/sim.(*Kernel).Step":                                        "sim",
		"xcache/internal/sim.(*Queue[go.shape.struct { xcache/internal/x.A }]).Pop": "sim",
		"xcache/internal/dram.(*DRAM).issue":                                        "dram",
		"xcache/internal/ctrl.(*Controller).compile.func3":                          "ctrl",
		"xcache/internal/dsa/widx.runWalked.func1":                                  "dsa",
		"xcache/internal/exp/runner.(*Runner).resolve":                              "runner",
		"xcache/internal/hashidx.Trace":                                             "",
		"runtime.mallocgc":                                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                              "runtime",
		"sort.Slice":               "",
		"main.(*probeDriver).Tick": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSmoke runs every workload briefly in both modes: each must pass its
// output check and print every metric of its mode, with every end-to-end
// metric and both parts of the set-up measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", wl, "--seconds", "1", "--trace", trace, "--spans", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", wl, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %t, %d of %d failed\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			for _, d := range catalogue {
				if d.Layer != (trace == "1") {
					continue
				}
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q", wl, trace, d.Name, m.Unit)
				}
				if (!d.Layer || strings.HasPrefix(d.Name, "setup.")) && m.Value <= 0 {
					t.Errorf("%s trace %s: metric %s = %v, want > 0", wl, trace, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != countMode(trace == "1") {
				t.Errorf("%s trace %s: %d metrics, want %d", wl, trace, len(res.Metrics), countMode(trace == "1"))
			}
		}
	}
}

func countMode(layer bool) int {
	n := 0
	for _, d := range catalogue {
		if d.Layer == layer {
			n++
		}
	}
	return n
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
