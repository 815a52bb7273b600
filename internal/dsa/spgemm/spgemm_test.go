package spgemm

import (
	"testing"

	"xcache/internal/core"
	"xcache/internal/dsa"
)

func smallWork() Work { return P2PGnutella31(60) } // ~1.1K rows, 2.4K nnz

func smallOpts() Options {
	return Options{Cfg: core.SpArchConfig().Scaled(8), MaxCycles: 30_000_000}
}

func gammaOpts() Options {
	return Options{Cfg: core.GammaConfig().Scaled(8), MaxCycles: 30_000_000}
}

func TestSpecCompiles(t *testing.T) {
	if _, err := Spec().Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestSpArchXCacheFunctional(t *testing.T) {
	r, err := RunXCache(SpArch, smallWork(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked {
		t.Fatal("B-row responses did not match matrix B")
	}
}

func TestGammaXCacheFunctionalAndReuse(t *testing.T) {
	r, err := RunXCache(Gamma, smallWork(), gammaOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked {
		t.Fatal("functional validation failed")
	}
	// Gustavson has input-dependent reuse: hit rate must be substantial.
	if r.HitRate < 0.3 {
		t.Fatalf("Gamma hit rate %v; expected B-row reuse", r.HitRate)
	}
}

func TestSharedMicroarchitecture(t *testing.T) {
	// SpArch and Gamma share the walker program verbatim.
	p1, err := Spec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Spec().Compile()
	if len(p1.Code) != len(p2.Code) {
		t.Fatal("walker must be identical for both SpGEMM DSAs")
	}
	sp, ga := core.SpArchConfig(), core.GammaConfig()
	sp.Name, ga.Name = "", ""
	if sp != ga {
		t.Fatal("SpArch and Gamma must share one microarchitecture")
	}
}

func TestXCacheVsAddrShape(t *testing.T) {
	w := smallWork()
	x, err := RunXCache(Gamma, w, gammaOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunAddr(Gamma, w, gammaOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Checked {
		t.Fatal("addr run functional validation failed")
	}
	if x.Cycles >= a.Cycles {
		t.Errorf("X-Cache (%d cyc) not faster than address cache (%d cyc)", x.Cycles, a.Cycles)
	}
	if x.DRAMAccesses >= a.DRAMAccesses {
		t.Errorf("X-Cache DRAM %d not below addr %d", x.DRAMAccesses, a.DRAMAccesses)
	}
}

func TestBaselineComparable(t *testing.T) {
	// The hardwired fetcher (original DSA) should be close to X-Cache:
	// the paper reports no loss from programmability beyond ~small factors.
	w := smallWork()
	x, err := RunXCache(SpArch, w, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(SpArch, w, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(x.Cycles) / float64(b.Cycles)
	if ratio > 1.5 {
		t.Errorf("programmable controller %.2fx slower than hardwired; paper reports parity", ratio)
	}
	if b.Kind != dsa.KindBaseline {
		t.Fatal("kind mislabeled")
	}
}

func TestInnerProductDataflow(t *testing.T) {
	// The Fig 2 dataflow: same walker, B bound as CSC, column-keyed tags.
	w := P2PGnutella31(200) // small: the pair schedule is quadratic-ish
	opt := Options{Cfg: core.SpArchConfig().Scaled(8), MaxCycles: 60_000_000}
	x, err := RunXCache(Inner, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Checked {
		t.Fatal("fetched B columns did not match the CSC matrix")
	}
	// Hot B columns are reused heavily across A rows.
	if x.HitRate < 0.5 {
		t.Fatalf("inner-product reuse not captured: hit rate %v", x.HitRate)
	}
	a, err := RunAddr(Inner, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Checked {
		t.Fatal("addr variant functional validation failed")
	}
	if x.Cycles >= a.Cycles {
		t.Errorf("X-Cache (%d cyc) not faster than addr (%d cyc) on inner product", x.Cycles, a.Cycles)
	}
}

// TestSpArchAddrDeepLookahead runs the address-cache SpArch with a preload
// distance past the walk engine's job queue, so the pump meets a full
// queue. A refused job must leave its A elements in the stream: taking
// them anyway would starve the stream before the last rows issue.
func TestSpArchAddrDeepLookahead(t *testing.T) {
	w := P2PGnutella31(20)
	ref, err := RunAddr(SpArch, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunAddr(SpArch, w, Options{Lookahead: 64, MaxCycles: 2 * int(ref.Cycles)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked {
		t.Fatal("B-row walks did not match matrix B")
	}
}
