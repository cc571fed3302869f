package naming

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
)

// SymGlobal is the protocol of Proposition 13: symmetric, leaderless,
// self-stabilizing naming under global fairness for N > 2, using the
// optimal P+1 states [0, P]. State P is the "blank" overflow state; the
// final names are in [0, P-1]. The three rule types are
//
//  1. (s, P) -> (s, s+1 mod P)   for s != P   (and its mirror)
//  2. (s, s) -> (P, P)           for s != P
//  3. (P, P) -> (1, 1)
//
// Under weak fairness the protocol may never converge (the paper's
// Proposition 1 adversary defeats it, like every symmetric leaderless
// protocol); under global fairness a naming configuration is reachable
// from every configuration and hence eventually reached.
type SymGlobal struct {
	p int
}

// NewSymGlobal returns the Proposition 13 protocol for bound p >= 2.
// Correctness requires populations of size N > 2.
func NewSymGlobal(p int) *SymGlobal {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &SymGlobal{p: p}
}

// Name implements core.Protocol.
func (pr *SymGlobal) Name() string { return "symglobal-p13" }

// P implements core.Protocol.
func (pr *SymGlobal) P() int { return pr.p }

// States implements core.Protocol: P+1 states, [0, P].
func (pr *SymGlobal) States() int { return pr.p + 1 }

// Symmetric implements core.Protocol.
func (pr *SymGlobal) Symmetric() bool { return true }

// Blank returns the overflow state P.
func (pr *SymGlobal) Blank() core.State { return core.State(pr.p) }

// Mobile implements core.Protocol.
func (pr *SymGlobal) Mobile(x, y core.State) (core.State, core.State) {
	blank := pr.Blank()
	switch {
	case x == blank && y == blank: // rule 3
		return 1, 1
	case x == y: // rule 2 (x, y != P here)
		return blank, blank
	case y == blank: // rule 1
		return x, core.State((int(x) + 1) % pr.p)
	case x == blank: // mirror of rule 1
		return core.State((int(y) + 1) % pr.p), y
	default:
		return x, y
	}
}

// RandomMobile returns an arbitrary mobile state for self-stabilization
// experiments.
func (pr *SymGlobal) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.IntN(pr.p + 1))
}
