package naming

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/seq"
)

// SelfStab is Protocol 2 (Proposition 16): self-stabilizing symmetric
// naming under weak fairness with a unique non-initialized leader, using
// the optimal P+1 states per mobile agent.
//
// It extends Protocol 1 of [BBCS15] in two ways: the mobile state space
// grows to [0, P] so the naming sequence becomes U* = U_P and all P
// agents can receive distinct non-zero names; and a reset line is added
// (lines 11-12 of the paper's Protocol 2) so an arbitrarily initialized
// BST eventually restarts the naming from scratch: when the guess n has
// grown past P and the BST still meets an unnamed (state-0) agent, it
// resets n and k to 0, after which Theorem 15's correctness argument
// applies verbatim.
type SelfStab struct {
	p int
}

// NewSelfStab returns Protocol 2 for bound p >= 2.
func NewSelfStab(p int) *SelfStab {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &SelfStab{p: p}
}

// Name implements core.Protocol.
func (pr *SelfStab) Name() string { return "selfstab-p16" }

// P implements core.Protocol.
func (pr *SelfStab) P() int { return pr.p }

// States implements core.Protocol: P+1 states, [0, P].
func (pr *SelfStab) States() int { return pr.p + 1 }

// Symmetric implements core.Protocol.
func (pr *SelfStab) Symmetric() bool { return true }

// Mobile implements core.Protocol: the shared homonym-to-sink rule.
func (pr *SelfStab) Mobile(x, y core.State) (core.State, core.State) {
	return counting.HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol. Protocol 2 is correct from
// any leader state; the zero state is merely the canonical one. The
// leader is Protocol 1's base station (counting.BST): the guess n in
// [0, P+1] and the U* pointer k in [0, 2^P].
func (pr *SelfStab) InitLeader() core.Leader { return counting.BST(0, 0) }

// RandomLeader implements core.ArbitraryLeaderProtocol: an arbitrary
// leader state within the declared variable domains n in [0, P+1],
// k in [0, 2^P].
func (pr *SelfStab) RandomLeader(r *rand.Rand) core.Leader {
	return counting.BST(r.IntN(pr.p+2), r.IntN(seq.Len(pr.p)+2))
}

// Leaders returns every leader state in the same domains, n-major: the
// leader axis of the exhaustive arbitrary-leader checks.
func (pr *SelfStab) Leaders() []core.Leader {
	var ls []core.Leader
	for n := 0; n <= pr.p+1; n++ {
		for k := 0; k <= seq.Len(pr.p)+1; k++ {
			ls = append(ls, counting.BST(n, k))
		}
	}
	return ls
}

// RandomMobile returns an arbitrary mobile state in [0, P].
func (pr *SelfStab) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.IntN(pr.p + 1))
}

// LeaderInteract implements core.LeaderProtocol: Protocol 1's update with
// nLimit = P+1 and maxName = P, plus the reset line.
func (pr *SelfStab) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	if counting.Guess(l) > pr.p && x == 0 { // line 11: naming failed; restart
		return counting.BST(0, 0), x // line 12
	}
	return pr.countStep(l, x)
}

// countStep is lines 2-10 of Protocol 2. CountingStep's guard (n < P+1 and
// x = 0 or x > n) is line 2's, so a closed guard returns l unchanged.
func (pr *SelfStab) countStep(l core.Leader, x core.State) (core.Leader, core.State) {
	n2, k2, x2 := counting.CountingStep(counting.Guess(l), counting.Pointer(l), x, pr.p+1, pr.p)
	return counting.BST(n2, k2), x2
}
