package sim

import (
	"testing"

	"popnaming/internal/core"
)

// tableLeader is a test protocol with a rule-table mobile part and a
// one-register leader: the leader holding r meets state x and moves to
// next[r·|Q|+x]. It gives the count engine's leader weights arbitrary
// shapes: leader-only changes, peer-only changes and both.
type tableLeader struct {
	*core.RuleTable
	next []leaderMove
}

type leaderMove struct {
	r int
	x core.State
}

var tableLeaderKind = &core.LeaderKind{Name: "T", Fields: []string{"r"}}

func (p *tableLeader) InitLeader() core.Leader { return tableLeaderKind.New(0) }

func (p *tableLeader) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	m := p.next[l.Reg(0)*p.States()+int(x)]
	return tableLeaderKind.New(m.r), m.x
}

// bruteWeights recomputes the jump chain's weights from first
// principles: every w[x] = Σ c[x]·(c[y]−[x=y]) over the non-null pairs
// (x, y), W = Σ w, and L = the agents non-null against leader l.
func bruteWeights(tab *core.Compiled, counts []int, l core.Leader) (w []uint64, mobile, leader uint64) {
	w = make([]uint64, len(counts))
	for x, cx := range counts {
		for y, cy := range counts {
			if x == y {
				cy--
			}
			if cx > 0 && cy > 0 && !tab.Null(core.State(x), core.State(y)) {
				w[x] += uint64(cx) * uint64(cy)
			}
		}
		mobile += w[x]
	}
	if lp, ok := tab.Leader(); ok {
		for s, c := range counts {
			if !core.IsNullLeader(lp, l, core.State(s)) {
				leader += uint64(c)
			}
		}
	}
	return w, mobile, leader
}

// FuzzCountSampler drives the count engine's event sampler through an
// arbitrary protocol (a rule table, with or without a table leader), an
// arbitrary initial occupancy and a run of drawn-and-applied events,
// checking its invariants after every event:
//
//   - W, L, every w[x] and the Fenwick tree's total equal a
//     brute-force recount from the counts;
//   - a draw is never a null event, and never pairs an agent with
//     itself (a responder of the initiator's state needs a second
//     agent there);
//   - counts conserve N, and W = L = 0 exactly when no pair can react.
func FuzzCountSampler(f *testing.F) {
	f.Add(int64(1), false, []byte{10, 0, 0, 0}, []byte{0, 0, 0, 1})   // one occupied state, diagonal rule
	f.Add(int64(2), false, []byte{1, 1, 1, 1}, []byte{0, 1, 2, 2})    // all distinct, off-diagonal rule
	f.Add(int64(3), true, []byte{200, 1, 0, 55}, []byte{1, 1, 0, 3})  // skewed with a sole agent, leader
	f.Add(int64(4), true, []byte{9, 9, 9, 9}, []byte{3, 2, 1, 0, 7})  // leader-heavy rules
	f.Add(int64(5), false, []byte{0, 0, 0, 2}, []byte{3, 3, 3, 0, 1}) // minimal population at the edge
	f.Fuzz(func(t *testing.T, seed int64, withLeader bool, occ, rules []byte) {
		if len(occ) == 0 {
			return
		}
		if len(occ) > 8 {
			occ = occ[:8]
		}
		q := len(occ)
		counts := make([]int, q)
		n := 0
		for i, b := range occ {
			counts[i] = int(b)
			n += int(b)
		}
		rt := core.NewRuleTable("fuzz", q, q)
		for i := 0; i+3 < len(rules) && i < 64; i += 4 {
			rt.Add(core.State(int(rules[i])%q), core.State(int(rules[i+1])%q),
				core.State(int(rules[i+2])%q), core.State(int(rules[i+3])%q))
		}
		var pr core.Protocol = rt
		cc := &core.CountConfig{Counts: counts}
		if withLeader {
			const regs = 3
			tl := &tableLeader{RuleTable: rt, next: make([]leaderMove, regs*q)}
			for i := range tl.next {
				b := 0
				if len(rules) > 0 {
					b = int(rules[i%len(rules)]) + i
				}
				tl.next[i] = leaderMove{r: b % regs, x: core.State(b / regs % q)}
			}
			pr, cc.Leader = tl, tl.InitLeader()
		}
		r, err := NewCountRunner(pr, cc, seed)
		if err != nil {
			return // population too small
		}
		r.ensure()
		ev := r.ev
		check := func(step int) {
			t.Helper()
			w, mobile, leader := bruteWeights(r.tab, counts, cc.Leader)
			for x := range w {
				if ev.w[x] != w[x] {
					t.Fatalf("step %d: w[%d] = %d, brute force %d", step, x, ev.w[x], w[x])
				}
			}
			if ev.mobile != mobile || ev.leader != leader {
				t.Fatalf("step %d: W, L = %d, %d, brute force %d, %d", step, ev.mobile, ev.leader, mobile, leader)
			}
			var tree uint64
			for i := len(ev.tree.tree) - 1; i > 0; i -= i & -i {
				tree += ev.tree.tree[i]
			}
			if tree != mobile {
				t.Fatalf("step %d: tree total %d, W %d", step, tree, mobile)
			}
			if cc.N() != n {
				t.Fatalf("step %d: counts no longer conserve N: %d", step, cc.N())
			}
		}
		check(-1)
		for step := 0; step < 200; step++ {
			weight := ev.mobile + 2*ev.leader
			if weight == 0 {
				return
			}
			u := r.rng.uint64n(weight)
			peek := r.rng // a copy: event redraws the same responder
			if x, y, lead := ev.draw(u, &peek); lead {
				if core.IsNullLeader(ev.lp, cc.Leader, x) || counts[x] == 0 {
					t.Fatalf("step %d: drew null leader event with state %d (count %d)", step, x, counts[x])
				}
			} else {
				need := 1
				if x == y {
					need = 2
				}
				if r.tab.Null(x, y) || counts[x] == 0 || counts[y] < need {
					t.Fatalf("step %d: drew pair (%d, %d) with counts %v: null or unschedulable", step, x, y, counts)
				}
			}
			r.event(u, nil)
			check(step)
		}
	})
}
