package core

import (
	"math/rand/v2"
	"strconv"
)

// Protocol is a deterministic population protocol over mobile agents.
//
// Mobile must be a pure function: it may not retain or mutate anything,
// and calling it twice with the same arguments must return the same
// result (determinism of the transition relation). All inputs and outputs
// lie in [0, States()).
type Protocol interface {
	// Name returns a short human-readable protocol identifier.
	Name() string
	// P returns the known upper bound on the population size the
	// protocol instance was constructed for.
	P() int
	// States returns the number of states per mobile agent, |Q|.
	// Space optimality in the paper is measured in this quantity.
	States() int
	// Symmetric reports whether every mobile-mobile rule is symmetric:
	// (p,q) -> (p',q') implies (q,p) -> (q',p'). The claim is checked by
	// CheckProtocol in tests.
	Symmetric() bool
	// Mobile computes the transition applied when mobile agent in state
	// x (initiator) meets mobile agent in state y (responder).
	Mobile(x, y State) (State, State)
}

// LeaderKind is the static descriptor of one protocol's leader: the
// name and register labels used to render it. A protocol declares its
// kind once, as a package variable, and every Leader it builds points
// at that one descriptor.
type LeaderKind struct {
	// Name prefixes the rendering, e.g. "BST".
	Name string
	// Fields labels the registers in order, at most three of them; an
	// empty label renders the bare value.
	Fields []string
}

// Leader is the state of the distinguished leader agent. Every leader
// in the paper is a few bounded counters — Protocols 1-3 keep a guess
// n and a U* pointer k (Protocol 3 adds a name pointer), and
// Proposition 14's leader is one counter — so a Leader is up to three
// int registers plus its kind.
//
// Leader is a comparable value: equality is ==, assignment copies, and
// building or comparing one never allocates. The zero value means "no
// leader". Leaders of different kinds never compare equal.
type Leader struct {
	kind *LeaderKind
	regs [3]int
}

// New returns the leader of kind k holding the given register values
// in Fields order; registers not given are zero. It panics when given
// more values than k has fields.
func (k *LeaderKind) New(regs ...int) Leader {
	if len(regs) > len(k.Fields) || len(k.Fields) > len(Leader{}.regs) {
		panic("core: leader kind " + k.Name + ": too many registers")
	}
	l := Leader{kind: k}
	copy(l.regs[:], regs)
	return l
}

// Reg returns register i. Protocols wrap it in named accessors.
func (l Leader) Reg(i int) int { return l.regs[i] }

// AppendKey appends a canonical encoding of the registers to buf: the
// kind's field count of decimal values separated by ';'. Two leaders
// of one kind are equal iff their keys are.
func (l Leader) AppendKey(buf []byte) []byte {
	if l.kind == nil {
		return buf
	}
	for i := range l.kind.Fields {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendInt(buf, int64(l.regs[i]), 10)
	}
	return buf
}

// String renders the leader as Name{label:value ...}, e.g.
// "BST{n:3 k:4 ptr:2}"; the zero Leader renders as "<nil>".
func (l Leader) String() string {
	if l.kind == nil {
		return "<nil>"
	}
	b := append([]byte(l.kind.Name), '{')
	for i, f := range l.kind.Fields {
		if i > 0 {
			b = append(b, ' ')
		}
		if f != "" {
			b = append(append(b, f...), ':')
		}
		b = strconv.AppendInt(b, int64(l.regs[i]), 10)
	}
	return string(append(b, '}'))
}

// LeaderProtocol is a Protocol in which a unique leader participates in
// interactions. LeaderInteract must be pure: it returns the successor
// leader state and the successor state of the mobile agent without
// mutating its arguments.
type LeaderProtocol interface {
	Protocol
	// InitLeader returns the well-initialized leader state, as specified
	// by the protocol (for example all counters zero).
	InitLeader() Leader
	// LeaderInteract computes the transition applied when the leader in
	// state l meets a mobile agent in state x.
	LeaderInteract(l Leader, x State) (Leader, State)
}

// ArbitraryLeaderProtocol is implemented by self-stabilizing protocols
// whose correctness does not depend on the leader's initial state
// (Proposition 16). RandomLeader draws an arbitrary reachable-or-not
// leader state for adversarial initialization experiments.
type ArbitraryLeaderProtocol interface {
	LeaderProtocol
	RandomLeader(r *rand.Rand) Leader
}

// UniformInitProtocol is implemented by protocols whose correctness
// assumes a uniform initialization of the mobile agents (Proposition 14).
// InitMobile returns the common initial state.
type UniformInitProtocol interface {
	Protocol
	InitMobile() State
}

// ArbitraryInitProtocol is implemented by protocols that tolerate
// arbitrary initialization of mobile agents. RandomMobile draws one
// arbitrary state from the protocol's state space.
type ArbitraryInitProtocol interface {
	Protocol
	RandomMobile(r *rand.Rand) State
}

// HasLeader reports whether the protocol uses a leader.
func HasLeader(p Protocol) bool {
	_, ok := p.(LeaderProtocol)
	return ok
}

// InitialLeader returns p's initialized leader state, or the zero
// Leader ("no leader") when p has none.
func InitialLeader(p Protocol) Leader {
	if lp, ok := p.(LeaderProtocol); ok {
		return lp.InitLeader()
	}
	return Leader{}
}

// IsNullMobile reports whether the mobile-mobile transition from (x, y)
// leaves both states unchanged.
func IsNullMobile(p Protocol, x, y State) bool {
	x2, y2 := p.Mobile(x, y)
	return x2 == x && y2 == y
}

// IsNullLeader reports whether the leader-mobile transition from (l, x)
// leaves both states unchanged.
func IsNullLeader(lp LeaderProtocol, l Leader, x State) bool {
	l2, x2 := lp.LeaderInteract(l, x)
	return x2 == x && l2 == l
}
