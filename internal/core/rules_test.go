package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRuleTableAllNull(t *testing.T) {
	tab := NewRuleTable("t", 3, 3)
	for x := State(0); x < 3; x++ {
		for y := State(0); y < 3; y++ {
			x2, y2 := tab.Mobile(x, y)
			if x2 != x || y2 != y {
				t.Errorf("fresh table rule (%d,%d) -> (%d,%d), want null", x, y, x2, y2)
			}
		}
	}
	if !tab.Symmetric() {
		t.Error("all-null table should be symmetric")
	}
	if len(tab.Rules()) != 0 {
		t.Errorf("fresh table has %d non-null rules", len(tab.Rules()))
	}
}

func TestAddSymmetricMirrors(t *testing.T) {
	tab := NewRuleTable("t", 3, 3).AddSymmetric(0, 1, 2, 0)
	x2, y2 := tab.Mobile(0, 1)
	if x2 != 2 || y2 != 0 {
		t.Fatalf("(0,1) -> (%d,%d), want (2,0)", x2, y2)
	}
	x2, y2 = tab.Mobile(1, 0)
	if x2 != 0 || y2 != 2 {
		t.Fatalf("mirror (1,0) -> (%d,%d), want (0,2)", x2, y2)
	}
	if !tab.Symmetric() {
		t.Error("table with mirrored rule should be symmetric")
	}
}

func TestAddBreaksSymmetry(t *testing.T) {
	tab := NewRuleTable("t", 3, 3).Add(0, 1, 2, 2)
	if tab.Symmetric() {
		t.Error("one-sided rule should make table asymmetric")
	}
	tab.Add(1, 0, 2, 2)
	if !tab.Symmetric() {
		t.Error("adding the mirror should restore symmetry")
	}
}

func TestAddSymmetricSameStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddSymmetric(p,p,a,b) with a != b did not panic")
		}
	}()
	NewRuleTable("t", 2, 2).AddSymmetric(0, 0, 0, 1)
}

func TestRuleTableOutOfRangePanics(t *testing.T) {
	tab := NewRuleTable("t", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Mobile with out-of-range state did not panic")
		}
	}()
	tab.Mobile(0, 5)
}

func TestRuleIsNull(t *testing.T) {
	if !(Rule{P: 1, Q: 2, P2: 1, Q2: 2}).IsNull() {
		t.Error("identity rule not detected as null")
	}
	if (Rule{P: 1, Q: 2, P2: 2, Q2: 1}).IsNull() {
		t.Error("swap rule detected as null")
	}
}

func TestRuleTableStringListsRules(t *testing.T) {
	tab := NewRuleTable("demo", 2, 2).AddSymmetric(0, 0, 1, 1)
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "(0,0)->(1,1)") {
		t.Errorf("String = %q", s)
	}
}

func TestCheckProtocolAcceptsRuleTables(t *testing.T) {
	tab := NewRuleTable("ok", 3, 3).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(1, 2, 0, 2)
	if err := CheckProtocol(tab); err != nil {
		t.Fatalf("CheckProtocol: %v", err)
	}
}

// badRange is a protocol whose rules escape the declared state space.
type badRange struct{}

func (badRange) Name() string    { return "bad-range" }
func (badRange) P() int          { return 2 }
func (badRange) States() int     { return 2 }
func (badRange) Symmetric() bool { return true }
func (badRange) Mobile(x, y State) (State, State) {
	return x + 5, y + 5
}

// badClaim claims symmetry but is not symmetric.
type badClaim struct{}

func (badClaim) Name() string    { return "bad-claim" }
func (badClaim) P() int          { return 2 }
func (badClaim) States() int     { return 2 }
func (badClaim) Symmetric() bool { return true }
func (badClaim) Mobile(x, y State) (State, State) {
	if x == y {
		return x, (y + 1) % 2
	}
	return x, y
}

// badClaim2 claims asymmetry but all rules are symmetric.
type badClaim2 struct{}

func (badClaim2) Name() string                     { return "bad-claim2" }
func (badClaim2) P() int                           { return 2 }
func (badClaim2) States() int                      { return 2 }
func (badClaim2) Symmetric() bool                  { return false }
func (badClaim2) Mobile(x, y State) (State, State) { return x, y }

func TestCheckProtocolRejections(t *testing.T) {
	cases := []struct {
		proto Protocol
		want  string
	}{
		{badRange{}, "leaves state space"},
		{badClaim{}, "claims symmetric"},
		{badClaim2{}, "claims asymmetric"},
	}
	for _, c := range cases {
		err := CheckProtocol(c.proto)
		if err == nil {
			t.Errorf("%s: CheckProtocol accepted an invalid protocol", c.proto.Name())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.proto.Name(), err, c.want)
		}
	}
}

// Property: any table built exclusively with AddSymmetric reports
// Symmetric and passes CheckProtocol.
func TestSymmetricConstructionProperty(t *testing.T) {
	prop := func(choices []uint8) bool {
		const q = 4
		tab := NewRuleTable("prop", q, q)
		for i, c := range choices {
			p := State(i % q)
			r := State(int(c) % q)
			if p == r {
				tab.AddSymmetric(p, p, r, r)
			} else {
				tab.AddSymmetric(p, r, State(int(c)/q%q), State(int(c)/(q*q)%q))
			}
		}
		return tab.Symmetric() && CheckProtocol(tab) == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMobile(t *testing.T) {
	tab := NewRuleTable("t", 3, 3).AddSymmetric(1, 1, 0, 0)
	c := NewConfigStates(1, 1, 2)
	if changed := ApplyMobile(tab, c, 0, 1); !changed {
		t.Error("homonym interaction reported null")
	}
	if c.Mobile[0] != 0 || c.Mobile[1] != 0 || c.Mobile[2] != 2 {
		t.Errorf("config after rule = %s", c)
	}
	if changed := ApplyMobile(tab, c, 0, 2); changed {
		t.Error("null interaction reported a change")
	}
}

func TestApplyMobileSelfPanics(t *testing.T) {
	tab := NewRuleTable("t", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("self-interaction did not panic")
		}
	}()
	ApplyMobile(tab, NewConfigStates(0, 1), 1, 1)
}

func TestApplyPairLeaderMismatchPanics(t *testing.T) {
	tab := NewRuleTable("t", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("leader pair on leaderless protocol did not panic")
		}
	}()
	ApplyPair(tab, NewConfigStates(0, 1), Pair{A: LeaderIndex, B: 0})
}

func TestSilentDetectsEnabledRule(t *testing.T) {
	tab := NewRuleTable("t", 3, 3).AddSymmetric(1, 1, 0, 0)
	if !Silent(tab, NewConfigStates(0, 1, 2)) {
		t.Error("distinct configuration reported non-silent")
	}
	if Silent(tab, NewConfigStates(1, 1, 2)) {
		t.Error("homonym configuration reported silent")
	}
}

func TestSilentChecksBothOrders(t *testing.T) {
	// Asymmetric rule enabled only in one orientation.
	tab := NewRuleTable("t", 3, 3).Add(2, 1, 2, 0)
	if Silent(tab, NewConfigStates(1, 2)) {
		t.Error("silence must consider both orientations of each pair")
	}
}

// badLeader is a leader protocol whose leader rule leaves the mobile
// state space.
type badLeader struct{ *RuleTable }

var blKind = &LeaderKind{Name: "bl"}

func (badLeader) InitLeader() Leader { return blKind.New() }
func (badLeader) LeaderInteract(l Leader, x State) (Leader, State) {
	return l, x + 100
}

// nilLeader returns the zero ("no leader") initial leader state.
type nilLeader struct{ *RuleTable }

func (nilLeader) InitLeader() Leader { return Leader{} }
func (nilLeader) LeaderInteract(l Leader, x State) (Leader, State) {
	return l, x
}

func TestCheckProtocolLeaderBranches(t *testing.T) {
	base := NewRuleTable("t", 3, 3)
	if err := CheckProtocol(badLeader{base}); err == nil {
		t.Error("out-of-range leader rule accepted")
	}
	if err := CheckProtocol(nilLeader{base}); err == nil {
		t.Error("nil InitLeader accepted")
	}
}
