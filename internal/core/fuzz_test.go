package core

import "testing"

// FuzzRuleTable builds rule tables from arbitrary byte strings and
// checks the structural invariants: AddSymmetric always yields a table
// that passes CheckProtocol and whose Symmetric claim holds, and Mobile
// round-trips every added rule.
func FuzzRuleTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, choices []byte, qRaw uint8) {
		q := int(qRaw%6) + 2
		tab := NewRuleTable("fuzz", q, q)
		for i := 0; i+3 < len(choices); i += 4 {
			p := State(int(choices[i]) % q)
			r := State(int(choices[i+1]) % q)
			p2 := State(int(choices[i+2]) % q)
			q2 := State(int(choices[i+3]) % q)
			if p == r {
				tab.AddSymmetric(p, r, p2, p2)
			} else {
				tab.AddSymmetric(p, r, p2, q2)
			}
		}
		if !tab.Symmetric() {
			t.Fatal("AddSymmetric-only table not symmetric")
		}
		if err := CheckProtocol(tab); err != nil {
			t.Fatalf("CheckProtocol: %v", err)
		}
		// Mirror property holds pointwise.
		for x := 0; x < q; x++ {
			for y := 0; y < q; y++ {
				x2, y2 := tab.Mobile(State(x), State(y))
				my2, mx2 := tab.Mobile(State(y), State(x))
				if mx2 != x2 || my2 != y2 {
					t.Fatalf("mirror mismatch at (%d,%d)", x, y)
				}
			}
		}
	})
}

// fuzzKind is a three-register leader kind for FuzzConfigKeys.
var fuzzKind = &LeaderKind{Name: "F", Fields: []string{"a", "b", "c"}}

// FuzzConfigKeys checks Key/MultisetKey consistency on arbitrary
// configurations with and without a leader: Key is equal iff Equal
// holds; MultisetKey ignores mobile order but not the leader; a
// leaderless configuration never shares a key with one whose leader is
// all zero; Clone preserves both keys. Bits 0 and 1 of mode give the
// two compared leaders, (a, b, c) and (b, a, c), or no leader.
func FuzzConfigKeys(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(0), 0, 0, 0)
	f.Add([]byte{0, 0, 0, 5}, uint8(3), 0, 0, 0)
	f.Add([]byte{4, 4, 9}, uint8(3), 2, -1, 7)
	f.Add([]byte{7}, uint8(1), 0, 0, 0)
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, a, b, c int) {
		states := make([]State, len(raw))
		for i, v := range raw {
			states[i] = State(v % 16)
		}
		rev := make([]State, len(states))
		for i, s := range states {
			rev[len(states)-1-i] = s
		}
		var l1, l2 Leader
		if mode&1 != 0 {
			l1 = fuzzKind.New(a, b, c)
		}
		if mode&2 != 0 {
			l2 = fuzzKind.New(b, a, c)
		}
		x := NewConfigStates(states...).WithLeader(l1)
		if d := x.Clone(); x.Key() != d.Key() || x.MultisetKey() != d.MultisetKey() {
			t.Fatal("clone changed keys")
		}
		for _, y := range []*Config{
			NewConfigStates(states...).WithLeader(l2),
			NewConfigStates(rev...).WithLeader(l1),
			NewConfigStates(rev...).WithLeader(l2),
		} {
			if (x.Key() == y.Key()) != x.Equal(y) {
				t.Fatalf("Key equality disagrees with Equal on %v and %v", x, y)
			}
			// y holds x's mobile multiset, so only the leader may
			// separate the multiset keys.
			if (x.MultisetKey() == y.MultisetKey()) != (x.Leader == y.Leader) {
				t.Fatalf("MultisetKey mishandles the leader on %v and %v", x, y)
			}
		}
		if len(states) > 1 && states[0] != states[len(states)-1] && x.Key() == NewConfigStates(rev...).WithLeader(l1).Key() {
			t.Fatal("identity key ignored order")
		}
		bare := NewConfigStates(states...)
		zero := NewConfigStates(states...).WithLeader(fuzzKind.New())
		if bare.Key() == zero.Key() || bare.MultisetKey() == zero.MultisetKey() {
			t.Fatalf("leaderless %v shares a key with all-zero leader %v", bare, zero)
		}
		if x.ValidNaming() != NewConfigStates(rev...).ValidNaming() {
			t.Fatal("naming predicate not permutation-invariant")
		}
	})
}
