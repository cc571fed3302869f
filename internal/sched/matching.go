package sched

import (
	"fmt"

	"popnaming/internal/core"
)

// Matching schedules interactions in phases of perfect matchings over an
// even leaderless population, using the circle method of round-robin
// tournament scheduling: n-1 rounds jointly cover every unordered pair,
// and the rounds repeat forever. This is exactly the adversarial schedule
// of Proposition 1: against a symmetric protocol started from a uniform
// configuration it keeps all agents in identical states forever, while
// the execution it drives is weakly fair.
type Matching struct {
	n     int
	round int // current round in [0, n-1)
	slot  int // next pair within the round, in [0, n/2)
}

// NewMatching returns a perfect-matching phase scheduler for an even
// number n >= 2 of mobile agents (no leader). It panics when
// CheckMatching rejects n.
func NewMatching(n int) *Matching {
	if err := CheckMatching(n); err != nil {
		panic(err.Error())
	}
	return &Matching{n: n}
}

// CheckMatching reports whether n mobile agents admit perfect
// matchings: n must be even and at least 2.
func CheckMatching(n int) error {
	if n < 2 || n%2 != 0 {
		return fmt.Errorf("sched: matching scheduler requires even n >= 2, got %d", n)
	}
	return nil
}

// Name implements Scheduler.
func (s *Matching) Name() string { return "matching" }

// Next implements Scheduler.
func (s *Matching) Next() core.Pair {
	p := s.pairAt(s.round, s.slot)
	s.slot++
	if s.slot == s.n/2 {
		s.slot = 0
		s.round = (s.round + 1) % (s.n - 1)
	}
	return p
}

// pairAt returns the slot-th pair of the round-th circle-method round.
// Agent n-1 is the fixed pivot; agents 0..n-2 rotate.
func (s *Matching) pairAt(round, slot int) core.Pair {
	m := s.n - 1 // number of rotating agents
	if slot == 0 {
		// Pivot plays the rotating agent at position `round`.
		return core.Pair{A: s.n - 1, B: round}
	}
	a := (round + slot) % m
	b := (round - slot + m) % m
	return core.Pair{A: a, B: b}
}

// RoundLen returns the number of pairs per matching phase (n/2).
func (s *Matching) RoundLen() int { return s.n / 2 }

// CycleLen returns the number of pairs after which the schedule repeats
// and every unordered pair has interacted: (n-1) * n/2.
func (s *Matching) CycleLen() int { return (s.n - 1) * s.n / 2 }

// Eclipse drives interactions among all agents except one hidden agent
// for the first hideSteps steps, then among the full population. The
// finite prefix keeps the overall infinite execution weakly fair while
// realizing Theorem 11's construction: the population converges "without"
// the hidden agent, which then reappears.
type Eclipse struct {
	hidden    int
	hideSteps int
	done      int
	during    Scheduler // over the reduced index space (see mapping below)
	after     Scheduler // over the full population
}

// NewEclipse returns a scheduler over n mobile agents (with a leader if
// withLeader is set) that excludes agent hidden from the first hideSteps
// interactions. Both phases use uniform-random pair selection seeded with
// seed.
func NewEclipse(n int, withLeader bool, hidden, hideSteps int, seed int64) *Eclipse {
	if hidden < 0 || hidden >= n {
		panic(fmt.Sprintf("sched: hidden agent %d out of range [0,%d)", hidden, n))
	}
	if n < 2 {
		panic("sched: eclipse requires at least 2 mobile agents")
	}
	return &Eclipse{
		hidden:    hidden,
		hideSteps: hideSteps,
		during:    NewRandom(n-1, withLeader, seed),
		after:     NewRandom(n, withLeader, seed+1),
	}
}

// Name implements Scheduler.
func (s *Eclipse) Name() string { return "eclipse" }

// Next implements Scheduler.
func (s *Eclipse) Next() core.Pair {
	if s.done >= s.hideSteps {
		return s.after.Next()
	}
	s.done++
	p := s.during.Next()
	return core.Pair{A: s.remap(p.A), B: s.remap(p.B)}
}

// remap converts an index over the reduced (n-1)-agent population into
// the full index space, skipping the hidden agent.
func (s *Eclipse) remap(i int) int {
	if i == core.LeaderIndex || i < s.hidden {
		return i
	}
	return i + 1
}

// Hidden returns the hidden agent's index.
func (s *Eclipse) Hidden() int { return s.hidden }

// Eclipsing reports whether the scheduler is still in its hiding phase.
func (s *Eclipse) Eclipsing() bool { return s.done < s.hideSteps }
