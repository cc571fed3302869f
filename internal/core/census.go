package core

import (
	"fmt"
	"math/bits"
)

// Census tracks, for one evolving configuration, the number of mobile
// agents per state plus an activePairs counter: the number of ordered
// state pairs (x, y) that are both schedulable (x and y occupied; two
// agents needed when x == y) and non-null under the compiled table.
//
// The mobile side of the silence test then collapses to activePairs ==
// 0, an O(1) counter check instead of an O(n²) scan over agent pairs
// with an interface call each. Per applied transition the counts update
// in O(1); the activePairs counter is touched only when a state's
// occupancy crosses the 0↔1 or 1↔2 boundary. A 0↔1 crossing of s
// counts s's occupied non-null partners by intersecting its compiled
// row and column bitsets with an occupancy mask: one popcount per
// 64 states.
//
// A Census belongs to one runner; it is not safe for concurrent use.
type Census struct {
	tab    *Compiled
	counts []int
	occ    []uint64 // bit s set iff counts[s] > 0
	active int
}

// NewCensus builds the census of cfg's mobile states against a compiled
// table. It rejects configurations holding states outside [0, |Q|).
func NewCensus(tab *Compiled, cfg *Config) (*Census, error) {
	cs := &Census{tab: tab, counts: make([]int, tab.States()), occ: make([]uint64, tab.words)}
	if err := cs.Resync(cfg); err != nil {
		return nil, err
	}
	return cs, nil
}

// recount recomputes the occupancy mask and activePairs from scratch.
func (cs *Census) recount() {
	for i := range cs.occ {
		cs.occ[i] = 0
	}
	for s, c := range cs.counts {
		if c > 0 {
			cs.occ[s>>6] |= 1 << (s & 63)
		}
	}
	active := 0
	for x, cx := range cs.counts {
		if cx == 0 {
			continue
		}
		active += cs.occupied(cs.tab.Row(State(x)))
		if cx < 2 && !cs.tab.Null(State(x), State(x)) {
			active-- // the diagonal pair needs two agents
		}
	}
	cs.active = active
}

// occupied counts the occupied states in a row or column bitset.
func (cs *Census) occupied(set []uint64) int {
	n := 0
	for i, w := range set {
		n += bits.OnesCount64(w & cs.occ[i])
	}
	return n
}

// Resync rebuilds the census from cfg after an external mutation (for
// example a mid-run fault injection that rewrote agent states). The
// incremental counts only stay truthful while every change flows
// through Apply/ApplyOne; anything that writes cfg.Mobile directly must
// Resync before the next silence test. It rejects configurations
// holding states outside [0, |Q|), leaving the census unchanged.
func (cs *Census) Resync(cfg *Config) error {
	q := cs.tab.States()
	for i, s := range cfg.Mobile {
		if s < 0 || int(s) >= q {
			return fmt.Errorf("core: census: agent %d holds state %d outside [0,%d)", i, s, q)
		}
	}
	for i := range cs.counts {
		cs.counts[i] = 0
	}
	for _, s := range cfg.Mobile {
		cs.counts[s]++
	}
	cs.recount()
	return nil
}

// Count returns the number of agents in state s.
func (cs *Census) Count(s State) int { return cs.counts[int(s)] }

// ActivePairs returns the current non-null schedulable-pair count.
func (cs *Census) ActivePairs() int { return cs.active }

// MobileSilent reports whether no mobile-mobile interaction can change
// the configuration — the O(1) counter test.
func (cs *Census) MobileSilent() bool { return cs.active == 0 }

// Apply updates the census for one applied mobile-mobile transition
// (x, y) -> (x2, y2). Call it only for non-null transitions.
func (cs *Census) Apply(x, y, x2, y2 State) {
	cs.remove(x)
	cs.remove(y)
	cs.add(x2)
	cs.add(y2)
}

// ApplyOne updates the census for a mobile agent moved x -> x2 by a
// leader interaction. Call it only when x2 != x.
func (cs *Census) ApplyOne(x, x2 State) {
	cs.remove(x)
	cs.add(x2)
}

func (cs *Census) add(s State) {
	i := int(s)
	cs.counts[i]++
	switch cs.counts[i] {
	case 1:
		// s became occupied: pairs (s, y) and (y, s) against every other
		// occupied state become schedulable.
		cs.active += cs.occupied(cs.tab.Row(s)) + cs.occupied(cs.tab.Col(s))
		cs.occ[i>>6] |= 1 << (i & 63)
	case 2:
		// The diagonal pair (s, s) needs two agents.
		if !cs.tab.Null(s, s) {
			cs.active++
		}
	}
}

func (cs *Census) remove(s State) {
	i := int(s)
	switch cs.counts[i] {
	case 0:
		panic(fmt.Sprintf("core: census underflow for state %d", s))
	case 1:
		cs.occ[i>>6] &^= 1 << (i & 63)
		cs.active -= cs.occupied(cs.tab.Row(s)) + cs.occupied(cs.tab.Col(s))
	case 2:
		if !cs.tab.Null(s, s) {
			cs.active--
		}
	}
	cs.counts[i]--
}

// LeaderSilent reports whether every leader-mobile interaction from
// leader state l is null, scanning only the ≤ |Q| occupied states
// instead of all n agents.
func (cs *Census) LeaderSilent(l Leader) bool {
	lp := cs.tab.lp
	if lp == nil {
		return true
	}
	for s, c := range cs.counts {
		if c == 0 {
			continue
		}
		if !IsNullLeader(lp, l, State(s)) {
			return false
		}
	}
	return true
}

// Silent is the full incremental silence test: no schedulable mobile
// pair is non-null (O(1)) and, when the protocol has a leader, every
// occupied state is null against the given leader state.
func (cs *Census) Silent(l Leader) bool {
	return cs.active == 0 && cs.LeaderSilent(l)
}
