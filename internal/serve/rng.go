package serve

import (
	"math"

	"xcache/internal/check"
)

// The service's randomness follows internal/check's injector discipline:
// every decision is a stateless check.Mix64 hash of (seed, stream,
// cycle, salt). No hidden PRNG state means a run is exactly reproducible
// from its seed regardless of tick order, worker count, or which fault
// classes are enabled — the property the chaos soak's byte-stable-JSON
// assertion rests on.
const (
	streamArrival = 101 + iota // per-tenant per-cycle arrival gate
	streamKey                  // key choice for an arrival
	streamPhase                // per-tenant burst phase offset
)

// roll returns a uniform value in [0,1) determined entirely by the seed,
// the stream, and the two salts.
func roll(seed, stream, a, b uint64) float64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ a*0xff51afd7ed558ccd ^ b*0xc4ceb9fe1a85ec53
	return float64(check.Mix64(z)>>11) / (1 << 53)
}

// zipfKey maps a uniform u in [0,1) onto [0, n) with a power-law
// popularity of exponent s via the continuous inverse-CDF approximation:
// low keys are hot, the tail is cold. s = 0 degenerates to uniform.
func zipfKey(u float64, n int, s float64) uint64 {
	if n <= 1 {
		return 0
	}
	fn := float64(n)
	var x float64
	switch {
	case s == 0:
		x = u*fn + 1
	case math.Abs(s-1) < 1e-9:
		x = math.Pow(fn, u)
	default:
		x = math.Pow((math.Pow(fn, 1-s)-1)*u+1, 1/(1-s))
	}
	k := uint64(x) - 1
	if k >= uint64(n) {
		k = uint64(n) - 1
	}
	return k
}
