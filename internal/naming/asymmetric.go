// Package naming implements the space-optimal naming protocols of
// Burman, Beauquier and Sohier, "Space-Optimal Naming in Population
// Protocols" (2018), one per positive cell of the paper's Table 1:
//
//   - Asymmetric (Proposition 12): P states, no leader, self-stabilizing,
//     weak or global fairness; the one asymmetric protocol.
//   - SymGlobal (Proposition 13): P+1 states, no leader, symmetric,
//     self-stabilizing, global fairness, N > 2.
//   - InitLeader (Proposition 14): P states, symmetric, initialized
//     leader and uniformly initialized mobile agents, weak fairness.
//   - SelfStab / Protocol 2 (Proposition 16): P+1 states, symmetric,
//     non-initialized leader, self-stabilizing, weak fairness.
//   - GlobalP / Protocol 3 (Proposition 17): P states, symmetric,
//     initialized leader, arbitrary mobile agents, global fairness.
//
// All protocols implement core.Protocol (plus core.LeaderProtocol where a
// leader is used) and converge to silent configurations in which the
// mobile agents hold pairwise-distinct states.
package naming

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
)

// Asymmetric is the protocol of Proposition 12: the single asymmetric
// rule (s, s) -> (s, s+1 mod P) over states [0, P). It needs no leader
// and no initialization, and is space-optimal with exactly P states. Its
// convergence argument uses the (number of holes, hole distance)
// potential, exposed here as Holes and HoleDistance for the tests that
// check the potential strictly decreases on every non-null transition.
type Asymmetric struct {
	p int
}

// NewAsymmetric returns the Proposition 12 protocol for bound p >= 1.
func NewAsymmetric(p int) *Asymmetric {
	if p < 1 {
		panic(fmt.Sprintf("naming: bound P must be >= 1, got %d", p))
	}
	return &Asymmetric{p: p}
}

// Name implements core.Protocol.
func (pr *Asymmetric) Name() string { return "asymmetric-p12" }

// P implements core.Protocol.
func (pr *Asymmetric) P() int { return pr.p }

// States implements core.Protocol.
func (pr *Asymmetric) States() int { return pr.p }

// Symmetric implements core.Protocol. The single rule type is asymmetric
// (the initiator keeps its state, the responder advances), except in the
// degenerate P = 1 case where s+1 mod P = s makes every rule null.
func (pr *Asymmetric) Symmetric() bool { return pr.p == 1 }

// Mobile implements core.Protocol.
func (pr *Asymmetric) Mobile(x, y core.State) (core.State, core.State) {
	if x == y {
		return x, core.State((int(y) + 1) % pr.p)
	}
	return x, y
}

// RandomMobile returns an arbitrary mobile state for self-stabilization
// experiments.
func (pr *Asymmetric) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.IntN(pr.p))
}

// Holes returns the number of holes of the configuration: states in
// [0, P) held by no agent.
func (pr *Asymmetric) Holes(c *core.Config) int {
	present := make([]bool, pr.p)
	for _, s := range c.Mobile {
		present[s] = true
	}
	holes := 0
	for _, ok := range present {
		if !ok {
			holes++
		}
	}
	return holes
}

// HoleDistance returns the hole distance of the configuration: the sum
// over agents of the minimum j >= 0 such that state+j mod P is a hole
// (0 when no hole exists). Together with Holes it forms the
// lexicographically decreasing potential of Proposition 12's proof.
func (pr *Asymmetric) HoleDistance(c *core.Config) int {
	present := make([]bool, pr.p)
	for _, s := range c.Mobile {
		present[s] = true
	}
	// dist[s] = min j >= 0 with present[(s+j) mod P] == false, or 0 if none.
	anyHole := false
	for s := 0; s < pr.p; s++ {
		if !present[s] {
			anyHole = true
			break
		}
	}
	if !anyHole {
		return 0
	}
	total := 0
	for _, s := range c.Mobile {
		j := 0
		for present[(int(s)+j)%pr.p] {
			j++
		}
		total += j
	}
	return total
}

// Potential returns the (holes, hole distance) pair as a single
// lexicographic integer holes*(P*(P-1)+1) + distance, convenient for
// monotonicity assertions.
func (pr *Asymmetric) Potential(c *core.Config) int {
	return pr.Holes(c)*(pr.p*(pr.p-1)+1) + pr.HoleDistance(c)
}
