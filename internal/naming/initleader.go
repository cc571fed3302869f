package naming

import (
	"fmt"

	"popnaming/internal/core"
)

// InitLeader is the protocol of Proposition 14: symmetric naming with an
// initialized leader and uniformly initialized mobile agents, using the
// optimal P states, correct under weak (hence also global) fairness.
//
// Mobile states are [0, P). All agents start in the reserved state P-1
// ("fresh"); the leader holds a counter initialized to 0 and assigns
// names 0, 1, 2, ... to fresh agents it meets while the counter is below
// P-1. When N = P the counter reaches P-1 and the last fresh agent keeps
// the name P-1. (The paper writes states {1..P} with fresh state P and
// counter starting at 1; this is the same protocol shifted to 0-based
// states.) All mobile-mobile interactions are null, so the protocol is
// trivially symmetric.
type InitLeader struct {
	p int
}

// counterKind is the leader of InitLeader: the next name to assign, in
// [0, P-1].
var counterKind = &core.LeaderKind{Name: "Counter", Fields: []string{""}}

// Counter returns InitLeader's leader state with next name c.
func Counter(c int) core.Leader { return counterKind.New(c) }

// NextName returns an InitLeader leader's next name to assign.
func NextName(l core.Leader) int { return l.Reg(0) }

// NewInitLeader returns the Proposition 14 protocol for bound p >= 2.
func NewInitLeader(p int) *InitLeader {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &InitLeader{p: p}
}

// Name implements core.Protocol.
func (pr *InitLeader) Name() string { return "initleader-p14" }

// P implements core.Protocol.
func (pr *InitLeader) P() int { return pr.p }

// States implements core.Protocol.
func (pr *InitLeader) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *InitLeader) Symmetric() bool { return true }

// InitMobile returns the uniform initial mobile state P-1 ("fresh").
func (pr *InitLeader) InitMobile() core.State { return core.State(pr.p - 1) }

// Mobile implements core.Protocol: all mobile-mobile interactions are
// null.
func (pr *InitLeader) Mobile(x, y core.State) (core.State, core.State) { return x, y }

// InitLeader implements core.LeaderProtocol.
func (pr *InitLeader) InitLeader() core.Leader { return Counter(0) }

// LeaderInteract implements core.LeaderProtocol.
func (pr *InitLeader) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	if c := NextName(l); int(x) == pr.p-1 && c < pr.p-1 {
		return Counter(c + 1), core.State(c)
	}
	return l, x
}
