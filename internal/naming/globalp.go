package naming

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
	"popnaming/internal/counting"
)

// GlobalP is Protocol 3 (Proposition 17): symmetric naming with an
// initialized leader and arbitrarily initialized mobile agents under
// global fairness, using the optimal P states per mobile agent.
//
// For N < P it behaves exactly as Protocol 1 and names the agents with
// distinct states in [1, N]. The N = P case — impossible to name with P
// states under weak fairness (Theorem 11) — is handled by the name_ptr
// extension (lines 11-16): once the guess n has reached P, the BST walks
// name_ptr up through the names 0, 1, 2, ... as long as it meets agents
// carrying exactly the pointer value, and otherwise renames the met agent
// to the pointer value and restarts the walk. The walk completes
// (name_ptr = P) only when all P agents hold distinct names 0..P-1, after
// which every transition is null. Global fairness guarantees the
// completing interaction sequence eventually occurs.
type GlobalP struct {
	p int
}

// ptrBSTKind is the leader of Protocol 3: Protocol 1's guess n and U*
// pointer k plus the naming pointer in [0, P].
var ptrBSTKind = &core.LeaderKind{Name: "BST", Fields: []string{"n", "k", "ptr"}}

// PtrBST returns Protocol 3's leader state with guess n, U* pointer k
// and naming pointer namePtr. counting.Guess and counting.Pointer read
// its n and k.
func PtrBST(n, k, namePtr int) core.Leader { return ptrBSTKind.New(n, k, namePtr) }

// NamePtr returns a Protocol 3 leader's naming pointer.
func NamePtr(l core.Leader) int { return l.Reg(2) }

// NewGlobalP returns Protocol 3 for bound p >= 2.
func NewGlobalP(p int) *GlobalP {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &GlobalP{p: p}
}

// Name implements core.Protocol.
func (pr *GlobalP) Name() string { return "globalp-p17" }

// P implements core.Protocol.
func (pr *GlobalP) P() int { return pr.p }

// States implements core.Protocol: P states, [0, P-1].
func (pr *GlobalP) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *GlobalP) Symmetric() bool { return true }

// Mobile implements core.Protocol: the shared homonym-to-sink rule.
func (pr *GlobalP) Mobile(x, y core.State) (core.State, core.State) {
	return counting.HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol: Protocol 3 requires the
// leader initialized with all three variables at zero.
func (pr *GlobalP) InitLeader() core.Leader { return PtrBST(0, 0, 0) }

// RandomMobile returns an arbitrary mobile state in [0, P-1].
func (pr *GlobalP) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.IntN(pr.p))
}

// LeaderInteract implements core.LeaderProtocol: lines 1-16 of
// Protocol 3. The counting block (lines 2-9) and the pointer block
// (lines 11-16) are sequential guarded statements, so an interaction that
// raises n to P also runs the pointer block, exactly as in the paper's
// pseudo-code.
func (pr *GlobalP) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	n, k, ptr := counting.Guess(l), counting.Pointer(l), NamePtr(l)
	n, k, x = counting.CountingStep(n, k, x, pr.p, pr.p-1) // lines 2-9
	if n == pr.p && ptr < pr.p {                           // line 11
		if int(x) == ptr { // line 12
			ptr++ // line 13
		} else {
			x = core.State(ptr) // line 15
			ptr = 0             // line 16
		}
	}
	return PtrBST(n, k, ptr), x
}
