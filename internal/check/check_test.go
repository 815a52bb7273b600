// External tests: the harness supervising real DSA runs. These live in
// package check_test so they can import the DSA packages (check itself
// is imported by them).
package check_test

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"xcache/internal/check"
	"xcache/internal/dsa"
	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/hashidx"
)

func widxWork() widx.Work { return widx.DefaultWork(hashidx.TPCH()[0], 100) }

// TestFaultSmoke is the CI fault-injection smoke test: a seeded run with
// dropped DRAM fills must complete with golden-validated results, and the
// same seed must reproduce the run exactly.
func TestFaultSmoke(t *testing.T) {
	cfg := func() *check.Config {
		return &check.Config{
			Watchdog:   50_000,
			Invariants: true,
			Seed:       7,
			Faults:     check.FaultConfig{DropResp: 2e-3},
		}
	}
	r1, err := widx.RunXCache(widxWork(), widx.Options{Check: cfg()})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if !r1.Checked {
		t.Fatal("faulted run produced wrong results: retry recovery broke the golden model")
	}
	if r1.DroppedFills == 0 {
		t.Fatal("no fills dropped: the injector never fired (rate too low for this workload?)")
	}
	if r1.FillRetries < r1.DroppedFills {
		t.Fatalf("%d fills dropped but only %d retries: lost fills were not all recovered",
			r1.DroppedFills, r1.FillRetries)
	}
	r2, err := widx.RunXCache(widxWork(), widx.Options{Check: cfg()})
	if err != nil {
		t.Fatalf("replay run failed: %v", err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", r1, r2)
	}
	// A different seed must drive different fault decisions (otherwise the
	// seed isn't actually feeding the PRNG).
	alt := cfg()
	alt.Seed = 8
	r3, err := widx.RunXCache(widxWork(), widx.Options{Check: alt})
	if err != nil {
		t.Fatalf("alt-seed run failed: %v", err)
	}
	if !r3.Checked {
		t.Fatal("alt-seed run produced wrong results")
	}
	if r3.Cycles == r1.Cycles && r3.DroppedFills == r1.DroppedFills {
		t.Logf("note: seeds 7 and 8 happened to produce identical runs (%d cycles)", r1.Cycles)
	}
}

// With every fill response dropped and retries disabled, the machine
// genuinely wedges: the watchdog must fire and the report must name the
// stuck request queue.
func TestWatchdogNamesStuckQueue(t *testing.T) {
	cfg := &check.Config{
		Watchdog:   2_000,
		Invariants: true,
		Seed:       1,
		Faults:     check.FaultConfig{DropResp: 1, FillTimeout: -1},
	}
	_, err := widx.RunXCache(widxWork(), widx.Options{Check: cfg})
	if err == nil {
		t.Fatal("a fully-wedged run completed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no forward progress for 2000 cycles") {
		t.Fatalf("error does not carry the watchdog reason:\n%s", msg)
	}
	if !regexp.MustCompile(`xc\.req.*STUCK`).MatchString(msg) {
		t.Fatalf("stall report does not flag the stuck request queue:\n%s", msg)
	}
	if !strings.Contains(msg, "--- ctrl ---") || !strings.Contains(msg, "fills outstanding") {
		t.Fatalf("stall report lacks the controller's in-flight walker state:\n%s", msg)
	}
	if !strings.Contains(msg, "--- dram ---") || !strings.Contains(msg, "bank 0") {
		t.Fatalf("stall report lacks per-bank DRAM state:\n%s", msg)
	}
}

// Budget exhaustion (done never true, but machine still making progress)
// must also produce a report rather than a bare timeout string.
func TestBudgetExhaustionReport(t *testing.T) {
	cfg := &check.Config{Watchdog: 50_000, Invariants: true}
	_, err := widx.RunXCache(widxWork(), widx.Options{Check: cfg, MaxCycles: 500})
	if err == nil {
		t.Fatal("run completed inside an impossible budget")
	}
	if !strings.Contains(err.Error(), "cycle budget (500) exhausted") {
		t.Fatalf("budget exhaustion not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "queue") {
		t.Fatalf("no queue table in budget report: %v", err)
	}
}

// An address-cache run that cannot finish inside its budget aborts with
// a typed budget failure and a queue table, exactly as an X-Cache run
// does, instead of an untyped timeout string.
func TestAddrBudgetExhaustionReport(t *testing.T) {
	_, err := widx.RunAddr(widxWork(), widx.Options{Check: check.Default(), MaxCycles: 500})
	var f *check.Failure
	if !errors.As(err, &f) {
		t.Fatalf("budget abort is not a *check.Failure: %v", err)
	}
	if f.Kind != check.FailBudget {
		t.Fatalf("failure kind %s, want budget", f.Kind)
	}
	if f.Report == nil || len(f.Report.Queues) == 0 || !strings.Contains(err.Error(), "walk.jobs") {
		t.Fatalf("budget failure carries no queue table: %v", err)
	}
}

// Every (DSA, kind) pair the sweep runner accepts, plus GraphPulse SSSP,
// runs fault-free (X-Cache cases carry the bare DSA name) under the full harness (watchdog + invariant checkers)
// and still matches its golden model; the checkers must not perturb
// simulation results, so the supervised Result equals the unsupervised
// one field for field.
func TestHarnessCleanRunAllDSAs(t *testing.T) {
	hw := widxWork()
	sw := spgemm.P2PGnutella31(200)
	gw := graphpulse.P2PGnutella08(20)
	bw := btreeidx.DefaultWork(200)
	cases := []struct {
		name string
		run  func(*check.Config) (dsa.Result, error)
	}{
		{"widx", func(c *check.Config) (dsa.Result, error) {
			return widx.RunXCache(hw, widx.Options{Check: c})
		}},
		{"widx-addr", func(c *check.Config) (dsa.Result, error) {
			return widx.RunAddr(hw, widx.Options{Check: c})
		}},
		{"widx-baseline", func(c *check.Config) (dsa.Result, error) {
			return widx.RunBaseline(hw, widx.Options{Check: c})
		}},
		{"dasx", func(c *check.Config) (dsa.Result, error) {
			return dasx.RunXCache(hw, dasx.Options{Check: c})
		}},
		{"dasx-addr", func(c *check.Config) (dsa.Result, error) {
			return dasx.RunAddr(hw, dasx.Options{Check: c})
		}},
		{"dasx-baseline", func(c *check.Config) (dsa.Result, error) {
			return dasx.RunBaseline(hw, dasx.Options{Check: c})
		}},
		{"sparch", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunXCache(spgemm.SpArch, sw, spgemm.Options{Check: c})
		}},
		{"sparch-addr", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunAddr(spgemm.SpArch, sw, spgemm.Options{Check: c})
		}},
		{"sparch-baseline", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunBaseline(spgemm.SpArch, sw, spgemm.Options{Check: c})
		}},
		{"gamma", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunXCache(spgemm.Gamma, sw, spgemm.Options{Check: c})
		}},
		{"gamma-addr", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunAddr(spgemm.Gamma, sw, spgemm.Options{Check: c})
		}},
		{"gamma-baseline", func(c *check.Config) (dsa.Result, error) {
			return spgemm.RunBaseline(spgemm.Gamma, sw, spgemm.Options{Check: c})
		}},
		{"graphpulse", func(c *check.Config) (dsa.Result, error) {
			return graphpulse.RunXCache(gw, graphpulse.Options{Check: c})
		}},
		{"graphpulse-addr", func(c *check.Config) (dsa.Result, error) {
			return graphpulse.RunAddr(gw, graphpulse.Options{Check: c})
		}},
		{"graphpulse-baseline", func(c *check.Config) (dsa.Result, error) {
			return graphpulse.RunBaseline(gw, graphpulse.Options{Check: c})
		}},
		{"graphpulse-sssp", func(c *check.Config) (dsa.Result, error) {
			return graphpulse.RunSSSP(gw, graphpulse.Options{Check: c}, 0)
		}},
		{"btreeidx", func(c *check.Config) (dsa.Result, error) {
			return btreeidx.RunXCache(bw, btreeidx.Options{Check: c})
		}},
		{"btreeidx-addr", func(c *check.Config) (dsa.Result, error) {
			return btreeidx.RunAddr(bw, btreeidx.Options{Check: c})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run(check.Default())
			if err != nil {
				t.Fatalf("supervised clean run failed: %v", err)
			}
			if !r.Checked {
				t.Fatal("clean run did not validate against the golden model")
			}
			bare, err := tc.run(nil)
			if err != nil {
				t.Fatalf("unsupervised run failed: %v", err)
			}
			if r != bare {
				t.Fatalf("supervision perturbed the result:\n  supervised   %+v\n  unsupervised %+v", r, bare)
			}
		})
	}
}

// Every DSA with a direct DRAM attachment completes correctly under
// dropped-fill injection; DSAs whose fills are served above a DRAM
// channel (btreeidx's MXA) or that never fill (graphpulse) get queue-clog
// faults instead.
func TestGoldenUnderFaultsAllDSAs(t *testing.T) {
	drop := func(rate float64) *check.Config {
		return &check.Config{Watchdog: 200_000, Invariants: true, Seed: 3,
			Faults: check.FaultConfig{DropResp: rate}}
	}
	clog := func(rate float64) *check.Config {
		return &check.Config{Watchdog: 200_000, Invariants: true, Seed: 3,
			Faults: check.FaultConfig{ClogQueue: rate}}
	}
	cases := []struct {
		name string
		run  func() (dsa.Result, error)
	}{
		{"widx-drop", func() (dsa.Result, error) {
			return widx.RunXCache(widxWork(), widx.Options{Check: drop(2e-3)})
		}},
		{"widx-clog", func() (dsa.Result, error) {
			return widx.RunXCache(widxWork(), widx.Options{Check: clog(5e-3)})
		}},
		{"dasx-drop", func() (dsa.Result, error) {
			return dasx.RunXCache(widxWork(), dasx.Options{Check: drop(2e-3)})
		}},
		{"sparch-drop", func() (dsa.Result, error) {
			return spgemm.RunXCache(spgemm.SpArch, spgemm.P2PGnutella31(200), spgemm.Options{Check: drop(1e-3)})
		}},
		{"gamma-drop", func() (dsa.Result, error) {
			return spgemm.RunXCache(spgemm.Gamma, spgemm.P2PGnutella31(200), spgemm.Options{Check: drop(1e-3)})
		}},
		{"graphpulse-clog", func() (dsa.Result, error) {
			return graphpulse.RunXCache(graphpulse.P2PGnutella08(20), graphpulse.Options{Check: clog(1e-3)})
		}},
		{"btreeidx-clog", func() (dsa.Result, error) {
			return btreeidx.RunXCache(btreeidx.DefaultWork(200), btreeidx.Options{Check: clog(1e-3)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run()
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if !r.Checked {
				t.Fatal("faulted run produced wrong results")
			}
		})
	}
}

// Meta-tag bit flips: the parity scrub must detect corrupted entries and
// the refetch path must keep results golden. Gamma reuses B rows heavily,
// so flipped entries are re-probed and scrubbed.
func TestBitFlipsScrubbedAndRefetched(t *testing.T) {
	cfg := &check.Config{Watchdog: 200_000, Invariants: true, Seed: 5,
		Faults: check.FaultConfig{FlipBit: 2e-3}}
	r, err := spgemm.RunXCache(spgemm.Gamma, spgemm.P2PGnutella31(200), spgemm.Options{Check: cfg})
	if err != nil {
		t.Fatalf("flip run failed: %v", err)
	}
	if !r.Checked {
		t.Fatal("bit flips corrupted the result: scrub/refetch path is broken")
	}
	if r.ParityScrubs == 0 {
		t.Fatal("no parity scrubs recorded: either no flips landed or the scrub never ran")
	}
}
