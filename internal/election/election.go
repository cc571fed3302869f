// Package election implements self-stabilizing leader election on top
// of naming, the connection the paper's introduction draws to Cai,
// Izumi and Wada (2012): with exact knowledge of the population size N,
// the single asymmetric rule (s, s) -> (s, s+1 mod N) self-stabilizes
// to a configuration whose states are a permutation of {0..N-1}; the
// agent holding state 0 is the unique leader. The same work proves N
// states and the exact knowledge of N are necessary — and this package
// makes the necessity executable: run the protocol sized for n on a
// strictly smaller population and a silent, leaderless (or
// multi-leader-free but leaderless) configuration is reachable.
//
// The paper's Proposition 12 protocol is exactly this rule with the
// bound P in place of N, which is why naming is its "by-product"; the
// leader-election reading only works when P equals the true population
// size.
package election

import (
	"fmt"
	"math/rand/v2"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// LeaderState is the state whose holder is the elected leader.
const LeaderState core.State = 0

// Protocol is self-stabilizing leader election for a population of
// EXACTLY n agents, with n states per agent. It embeds the asymmetric
// naming rule; it has no distinguished base-station agent (the paper's
// "leader" row does not apply — the elected leader is one of the mobile
// agents).
type Protocol struct {
	*naming.Asymmetric
	n int
}

// New returns the protocol for exact population size n >= 1.
func New(n int) *Protocol {
	if n < 1 {
		panic(fmt.Sprintf("election: population size must be >= 1, got %d", n))
	}
	return &Protocol{Asymmetric: naming.NewAsymmetric(n), n: n}
}

// Name implements core.Protocol.
func (p *Protocol) Name() string { return "ssle-ciw" }

// N returns the exact population size the instance assumes.
func (p *Protocol) N() int { return p.n }

// IsLeader reports whether an agent state marks its holder as leader.
func IsLeader(s core.State) bool { return s == LeaderState }

// Leaders returns the indices of agents currently holding the leader
// state.
func Leaders(c *core.Config) []int {
	var out []int
	for i, s := range c.Mobile {
		if IsLeader(s) {
			out = append(out, i)
		}
	}
	return out
}

// Elected reports whether the configuration has exactly one leader —
// the leader-election predicate.
func Elected(c *core.Config) bool { return len(Leaders(c)) == 1 }

// RandomConfig returns an arbitrary configuration of m agents (m = n for
// the correct regime; m < n exhibits the necessity of exact knowledge).
func (p *Protocol) RandomConfig(m int, r *rand.Rand) *core.Config {
	c := core.NewConfig(m, 0)
	for i := range c.Mobile {
		c.Mobile[i] = p.RandomMobile(r)
	}
	return c
}
