package core

import (
	"fmt"
	"strings"
)

// Rule is one explicit transition rule (p, q) -> (P2, Q2).
type Rule struct {
	P, Q   State // left-hand side (initiator, responder)
	P2, Q2 State // right-hand side
}

// IsNull reports whether the rule leaves both states unchanged.
func (r Rule) IsNull() bool { return r.P == r.P2 && r.Q == r.Q2 }

func (r Rule) String() string {
	return fmt.Sprintf("(%d,%d)->(%d,%d)", r.P, r.Q, r.P2, r.Q2)
}

// RuleTable is a Protocol given by an explicit transition table over
// states [0, states). Unspecified rules default to null transitions, as
// in the paper. RuleTable is the representation used by the exhaustive
// protocol search (internal/search) and by protocols most naturally
// written as rule lists (Propositions 12 and 13).
type RuleTable struct {
	name      string
	p         int
	states    int
	next      []Rule // indexed by x*states + y
	symmetric bool
}

// NewRuleTable builds a rule table for the given bound p and per-agent
// state count, initialized to all-null transitions. Rules are then added
// with Add or AddSymmetric.
func NewRuleTable(name string, p, states int) *RuleTable {
	if states < 1 {
		panic("core: state count must be positive")
	}
	t := &RuleTable{name: name, p: p, states: states}
	t.next = make([]Rule, states*states)
	for x := 0; x < states; x++ {
		for y := 0; y < states; y++ {
			t.next[x*states+y] = Rule{P: State(x), Q: State(y), P2: State(x), Q2: State(y)}
		}
	}
	t.symmetric = true // all-null is symmetric
	return t
}

func (t *RuleTable) idx(x, y State) int {
	if x < 0 || int(x) >= t.states || y < 0 || int(y) >= t.states {
		panic(fmt.Sprintf("core: state out of range in %q: (%d,%d) with %d states", t.name, x, y, t.states))
	}
	return int(x)*t.states + int(y)
}

// Add sets the rule (p, q) -> (p2, q2), overwriting any previous rule for
// (p, q). It returns the table for chaining.
func (t *RuleTable) Add(p, q, p2, q2 State) *RuleTable {
	t.next[t.idx(p, q)] = Rule{P: p, Q: q, P2: p2, Q2: q2}
	t.recomputeSymmetry()
	return t
}

// AddSymmetric sets both (p, q) -> (p2, q2) and its mirror
// (q, p) -> (q2, p2). For p == q it requires p2 == q2 (a symmetric rule
// between identical states cannot break symmetry).
func (t *RuleTable) AddSymmetric(p, q, p2, q2 State) *RuleTable {
	if p == q && p2 != q2 {
		panic(fmt.Sprintf("core: symmetric rule (%d,%d)->(%d,%d) must have identical outputs", p, q, p2, q2))
	}
	t.next[t.idx(p, q)] = Rule{P: p, Q: q, P2: p2, Q2: q2}
	t.next[t.idx(q, p)] = Rule{P: q, Q: p, P2: q2, Q2: p2}
	t.recomputeSymmetry()
	return t
}

func (t *RuleTable) recomputeSymmetry() {
	for x := 0; x < t.states; x++ {
		for y := 0; y < t.states; y++ {
			r := t.next[x*t.states+y]
			m := t.next[y*t.states+x]
			if m.P2 != r.Q2 || m.Q2 != r.P2 {
				t.symmetric = false
				return
			}
		}
	}
	t.symmetric = true
}

// Name implements Protocol.
func (t *RuleTable) Name() string { return t.name }

// SetName renames the table and returns it for chaining. The exhaustive
// search reuses one table per worker across thousands of candidates and
// restamps the candidate index into the name instead of allocating a
// fresh table each time.
func (t *RuleTable) SetName(name string) *RuleTable {
	t.name = name
	return t
}

// P implements Protocol.
func (t *RuleTable) P() int { return t.p }

// States implements Protocol.
func (t *RuleTable) States() int { return t.states }

// Symmetric implements Protocol.
func (t *RuleTable) Symmetric() bool { return t.symmetric }

// Mobile implements Protocol.
func (t *RuleTable) Mobile(x, y State) (State, State) {
	r := t.next[t.idx(x, y)]
	return r.P2, r.Q2
}

// Rules returns the non-null rules of the table, in (p, q) order.
func (t *RuleTable) Rules() []Rule {
	var out []Rule
	for _, r := range t.next {
		if !r.IsNull() {
			out = append(out, r)
		}
	}
	return out
}

func (t *RuleTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (P=%d, %d states):", t.name, t.p, t.states)
	for _, r := range t.Rules() {
		b.WriteString(" ")
		b.WriteString(r.String())
	}
	return b.String()
}

// CheckProtocol validates the structural well-formedness of a protocol:
// every mobile-mobile transition stays inside [0, States()), and the
// Symmetric() claim matches the actual rule set. For leader protocols it
// additionally checks that LeaderInteract keeps mobile states in range
// for the initial leader state (leader reachability is unbounded and is
// exercised by the simulator instead). It returns nil if all checks pass.
func CheckProtocol(p Protocol) error {
	q := p.States()
	if q < 1 {
		return fmt.Errorf("protocol %q: non-positive state count %d", p.Name(), q)
	}
	inRange := func(s State) bool { return s >= 0 && int(s) < q }
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			x2, y2 := p.Mobile(State(x), State(y))
			if !inRange(x2) || !inRange(y2) {
				return fmt.Errorf("protocol %q: rule (%d,%d)->(%d,%d) leaves state space [0,%d)",
					p.Name(), x, y, x2, y2, q)
			}
			// Determinism: a second evaluation must agree.
			x3, y3 := p.Mobile(State(x), State(y))
			if x3 != x2 || y3 != y2 {
				return fmt.Errorf("protocol %q: non-deterministic rule for (%d,%d)", p.Name(), x, y)
			}
		}
	}
	if err := checkSymmetryClaim(p); err != nil {
		return err
	}
	if lp, ok := p.(LeaderProtocol); ok {
		l := lp.InitLeader()
		if l == (Leader{}) {
			return fmt.Errorf("protocol %q: InitLeader returned no leader", p.Name())
		}
		for x := 0; x < q; x++ {
			_, x2 := lp.LeaderInteract(l, State(x))
			if !inRange(x2) {
				return fmt.Errorf("protocol %q: leader rule on %d yields out-of-range mobile state %d",
					p.Name(), x, x2)
			}
		}
	}
	return nil
}

func checkSymmetryClaim(p Protocol) error {
	q := p.States()
	actuallySymmetric := true
	var witness Rule
	for x := 0; x < q && actuallySymmetric; x++ {
		for y := 0; y < q; y++ {
			x2, y2 := p.Mobile(State(x), State(y))
			my2, mx2 := p.Mobile(State(y), State(x))
			if mx2 != x2 || my2 != y2 {
				actuallySymmetric = false
				witness = Rule{P: State(x), Q: State(y), P2: x2, Q2: y2}
				break
			}
		}
	}
	if p.Symmetric() && !actuallySymmetric {
		return fmt.Errorf("protocol %q claims symmetric but rule %v has no mirror", p.Name(), witness)
	}
	if !p.Symmetric() && actuallySymmetric {
		return fmt.Errorf("protocol %q claims asymmetric but all rules are symmetric", p.Name())
	}
	return nil
}
