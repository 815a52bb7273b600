// Package dsa defines the shared measurement vocabulary and run harness
// for the domain-specific accelerators: the five evaluated in the paper
// (Widx, DASX, GraphPulse, SpArch, Gamma) and the B+-tree extension
// (BTreeIdx). Each DSA subpackage provides up to three runners over the
// same workload:
//
//	RunXCache   — the DSA datapath in front of a programmed X-Cache;
//	RunAddr     — the same datapath over an address-tagged cache with an
//	              ideal (zero-decision-cost) walker, the paper's red bar;
//	RunBaseline — the original DSA's hardwired orchestration, the paper's
//	              black bar.
//
// BTreeIdx has no RunBaseline (the address-cache run is its baseline),
// and GraphPulse adds RunSSSP, single-source shortest paths on the same
// event store.
//
// Every runner builds its run through one Harness: kernel, image, DRAM
// channels and meter, the cache under test, one supervised run loop and
// the Result assembly. A DSA package keeps only its datapath, walker and
// validation, which every runner checks against a pure-Go reference
// before reporting numbers. Each package's Options.Check supervises the
// run (watchdog, invariants, fault injection) whatever its kind; nil runs
// unsupervised at no cost.
package dsa

import (
	"fmt"

	"xcache/internal/energy"
)

// Kind distinguishes the three storage idioms under comparison.
type Kind string

// The comparison points of Fig 14.
const (
	KindXCache   Kind = "xcache"
	KindAddr     Kind = "addr"
	KindBaseline Kind = "baseline"
)

// Result is one simulation measurement.
type Result struct {
	DSA      string
	Workload string
	Kind     Kind

	Cycles        uint64
	DRAMAccesses  uint64
	DRAMReadWords uint64
	OnChipHits    uint64
	OnChipMisses  uint64
	HitRate       float64
	AvgLoadToUse  float64 // mean issue→response over all accesses
	HitLoadToUse  float64 // mean over on-chip hits only (meta-tag short-circuit)
	L2UP50        uint64  // median load-to-use (bucketed upper bound)
	L2UP99        uint64  // tail load-to-use
	Occupancy     uint64  // byte-cycles (Fig 7 metric)

	Energy energy.Breakdown

	// Checked is true when the run's functional output matched the
	// reference implementation.
	Checked bool

	// Hardening counters, nonzero only when the run was supervised by
	// internal/check with fault injection enabled: fills re-issued after
	// a response timeout, DRAM read responses the injector dropped, and
	// meta-tag entries invalidated by the parity scrub.
	FillRetries  uint64
	DroppedFills uint64
	ParityScrubs uint64
}

// Speedup returns other.Cycles / r.Cycles (how much faster r is).
func (r Result) Speedup(other Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(r.Cycles)
}

// String summarizes for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s[%s]: %d cyc, %d DRAM, hit %.2f, l2u %.1f, %.0f pJ",
		r.DSA, r.Workload, r.Kind, r.Cycles, r.DRAMAccesses, r.HitRate,
		r.AvgLoadToUse, r.Energy.OnChip())
}
