// Package prng is the module's one source of seeded randomness. Every
// generator a simulation draws from — the uniform random scheduler, the
// count engine's pair sampler, the fault injector and arbitrary
// initialization — is a math/rand/v2 PCG built here from an int64
// seed.
//
// A seed is folded through splitmix64 before it reaches PCG. Trial
// seeds are often consecutive (seed and seed+1, or sim.DeriveSeed's
// outputs for neighbouring trials), and PCG seeded with raw nearby
// words would start from nearby states; the finalizer spreads every
// input bit over both PCG words, so nearby seeds give uncorrelated
// streams. Construction allocates nothing when the PCG is held by
// value (PCG), and one PCG plus one Rand when a *rand.Rand is needed
// (New).
package prng

import "math/rand/v2"

// golden is 2⁶⁴/φ, splitmix64's increment.
const golden = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer: a bijection on uint64 that sends
// nearby inputs to uncorrelated outputs. It is the module's
// seed-derivation primitive (sim.DeriveSeed, fault plan seeds, trace
// and span IDs, lease backoff jitter).
func Mix64(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG returns a PCG generator seeded from seed: its two state words
// are the first two outputs of a splitmix64 stream started at seed.
func PCG(seed int64) rand.PCG {
	var p rand.PCG
	p.Seed(Mix64(uint64(seed)), Mix64(uint64(seed)+golden))
	return p
}

// New returns a *rand.Rand drawing from PCG(seed), for the code that
// takes the full rand API (protocols' RandomMobile and RandomLeader,
// sim.Corrupt, the experiments).
func New(seed int64) *rand.Rand {
	p := PCG(seed)
	return rand.New(&p)
}
