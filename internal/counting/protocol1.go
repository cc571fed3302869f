// Package counting implements Protocol 1 of Beauquier, Burman, Clavière
// and Sohier, "Space-optimal counting in population protocols" (DISC
// 2015), as reproduced in the naming paper: a symmetric protocol in which
// an initialized leader (the base station, BST) counts up to P
// arbitrarily initialized mobile agents under weak fairness, using P
// states per mobile agent. As a by-product (Theorem 15 of the naming
// paper) it assigns distinct names to the mobile agents whenever N < P.
//
// Mobile states are [0, P): state 0 is the homonym sink ("unnamed"),
// states 1..P-1 are names drawn from the sequence U* = U_{P-1}
// (see internal/seq). The BST keeps a population-size guess n and a
// pointer k into U*; it revises the guess upward whenever the pointer
// walks past the length l_n = 2^n - 1 of U_n.
package counting

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
	"popnaming/internal/seq"
)

// bstKind is the leader (base station) of Protocols 1 and 2 and of the
// naive ablation: the population-size guess n and the U* pointer k.
var bstKind = &core.LeaderKind{Name: "BST", Fields: []string{"n", "k"}}

// BST returns the base-station leader state with guess n and pointer k.
func BST(n, k int) core.Leader { return bstKind.New(n, k) }

// Guess returns a base station's population-size guess n.
func Guess(l core.Leader) int { return l.Reg(0) }

// Pointer returns a base station's U* pointer k.
func Pointer(l core.Leader) int { return l.Reg(1) }

// Protocol1 is the counting protocol. It implements core.LeaderProtocol.
type Protocol1 struct {
	p int
}

// New returns Protocol 1 for population bound p >= 2.
func New(p int) *Protocol1 {
	if p < 2 {
		panic(fmt.Sprintf("counting: bound P must be >= 2, got %d", p))
	}
	return &Protocol1{p: p}
}

// Name implements core.Protocol.
func (pr *Protocol1) Name() string { return "protocol1-counting" }

// P implements core.Protocol.
func (pr *Protocol1) P() int { return pr.p }

// States implements core.Protocol. Mobile agents use P states, 0..P-1.
func (pr *Protocol1) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *Protocol1) Symmetric() bool { return true }

// Mobile implements core.Protocol: interacting homonyms reset to the
// sink state 0; all other mobile-mobile interactions are null.
func (pr *Protocol1) Mobile(x, y core.State) (core.State, core.State) {
	return HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol: the BST starts with both
// counters at zero. Protocol 1 requires this initialization (the mobile
// agents may start arbitrarily).
func (pr *Protocol1) InitLeader() core.Leader { return BST(0, 0) }

// LeaderInteract implements core.LeaderProtocol: lines 1-9 of Protocol 1.
func (pr *Protocol1) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	n2, k2, x2 := CountingStep(Guess(l), Pointer(l), x, pr.p, pr.p-1)
	return BST(n2, k2), x2
}

// Count extracts the BST's current population-size estimate.
func (pr *Protocol1) Count(c *core.Config) int { return Guess(c.Leader) }

// RandomMobile returns an arbitrary mobile state, for adversarial
// initialization experiments.
func (pr *Protocol1) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.IntN(pr.p))
}

// HomonymRule is the shared symmetric mobile-mobile rule of Protocols
// 1-3: two agents holding the same state move to the sink state 0;
// everything else is null.
func HomonymRule(x, y core.State) (core.State, core.State) {
	if x == y {
		return 0, 0
	}
	return x, y
}

// CountingStep executes the BST update of Protocol 1 (lines 2-9) and its
// derivatives, parameterized so Protocols 2 and 3 can reuse it:
//
//	nLimit  — the guard bound: the block fires only when n < nLimit
//	          (P for Protocols 1 and 3, P+1 for Protocol 2);
//	maxName — the largest assignable name (P-1 for Protocols 1 and 3
//	          whose U* = U_{P-1}, P for Protocol 2 whose U* = U_P).
//
// It returns the successor (n, k, mobile state). The pointer k is capped
// at 2^maxName = l_maxName + 1, matching the declared variable domain in
// the paper ("k: [0, ..., 2^P]" in Protocol 2); the cap value is the
// overflow sentinel that forces the guess n past maxName.
//
// When the pointer overflows the finite sequence U_maxName — which
// happens exactly in the interaction where n reaches its cap and the
// protocol switches from "naming" to "population is full" — U*(k) is
// outside the mobile state space. The paper leaves this assignment
// implicit; we keep the agent in the sink state 0, which is the unique
// in-range choice that preserves the protocols' correctness arguments
// (the agent remains "unnamed" and, in Protocol 2, keeps triggering the
// reset line, while in Protocols 1 and 3 the n < nLimit guard is closed
// forever after).
func CountingStep(n, k int, x core.State, nLimit, maxName int) (int, int, core.State) {
	if n >= nLimit || (x != 0 && int(x) <= n) {
		return n, k, x // guard of line 2 fails: null transition
	}
	kCap := seq.Len(maxName) + 1 // 2^maxName
	if x == 0 {
		k++ // line 4: advance the pointer
		if k > kCap {
			k = kCap
		}
	} else { // x > n
		k = seq.Len(n) + 1 // line 6: population must exceed n
	}
	if k > seq.Len(n) { // line 7
		n++ // line 8
	}
	if name := seq.At(k); name <= maxName { // line 9
		x = core.State(name)
	} else {
		x = 0 // pointer overflow: stay in the sink (see doc comment)
	}
	return n, k, x
}
