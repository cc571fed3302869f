package sim

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
)

// TestSmokeAllProtocolsConverge is an end-to-end sanity check that every
// protocol converges to a valid naming (or count) in its intended model.
// Detailed per-protocol tests live in the protocol packages.
func TestSmokeAllProtocolsConverge(t *testing.T) {
	const p = 6
	r := prng.New(1)

	cases := []struct {
		name  string
		proto core.Protocol
		cfg   func(n int) *core.Config
		sch   func(n int, leader bool) sched.Scheduler
		n     int
	}{
		{
			name:  "asymmetric/arbitrary/weak",
			proto: naming.NewAsymmetric(p),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(naming.NewAsymmetric(p), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRoundRobin(n, l) },
			n:     p,
		},
		{
			name:  "symglobal/arbitrary/global",
			proto: naming.NewSymGlobal(p),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(naming.NewSymGlobal(p), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRandom(n, l, 42) },
			n:     p,
		},
		{
			name:  "initleader/uniform/weak",
			proto: naming.NewInitLeader(p),
			cfg:   func(n int) *core.Config { return UniformConfig(naming.NewInitLeader(p), n) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRoundRobin(n, l) },
			n:     p,
		},
		{
			name:  "selfstab/arbitrary/weak",
			proto: naming.NewSelfStab(p),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(naming.NewSelfStab(p), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRoundRobin(n, l) },
			n:     p,
		},
		{
			// N < P: behaves as Protocol 1 and converges quickly.
			name:  "globalp/arbitrary/global/N<P",
			proto: naming.NewGlobalP(p),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(naming.NewGlobalP(p), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRandom(n, l, 42) },
			n:     p - 1,
		},
		{
			// N = P: the name_ptr walk needs an exponentially rare
			// interaction sequence, so keep the instance small.
			name:  "globalp/arbitrary/global/N=P",
			proto: naming.NewGlobalP(4),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(naming.NewGlobalP(4), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRandom(n, l, 42) },
			n:     4,
		},
		{
			name:  "counting/arbitrary/weak",
			proto: counting.New(p),
			cfg:   func(n int) *core.Config { return ArbitraryConfig(counting.New(p), n, r) },
			sch:   func(n int, l bool) sched.Scheduler { return sched.NewRoundRobin(n, l) },
			n:     p - 1, // naming guaranteed only for N < P
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := core.CheckProtocol(tc.proto); err != nil {
				t.Fatalf("CheckProtocol: %v", err)
			}
			cfg := tc.cfg(tc.n)
			run := NewRunner(tc.proto, tc.sch(tc.n, core.HasLeader(tc.proto)), cfg)
			res := run.Run(2_000_000)
			if !res.Converged {
				t.Fatalf("did not converge: %s", res)
			}
			if !res.Final.ValidNaming() {
				t.Fatalf("converged to invalid naming: %s", res.Final)
			}
		})
	}
}
