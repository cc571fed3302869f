package oracle

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/sim"
)

// TestSymGlobalOracleExhaustive drives the Proposition 13 schedule from
// EVERY configuration of small instances and checks the proof's linear
// bound on schedule length.
func TestSymGlobalOracleExhaustive(t *testing.T) {
	for p := 3; p <= 5; p++ {
		for n := 3; n <= p; n++ {
			pr := naming.NewSymGlobal(p)
			bound := 4*n + 8
			for _, start := range explore.AllConfigs(pr.States(), n) {
				cfg := start.Clone()
				steps, silent := Drive(pr, NewSymGlobal(pr), cfg, bound)
				if !silent || !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d from %s: not named after %d oracle steps: %s",
						p, n, start, steps, cfg)
				}
			}
		}
	}
}

// TestSymGlobalOracleLarge: the constructive schedule stays linear at
// sizes where random scheduling of the tight instance is hopeless.
func TestSymGlobalOracleLarge(t *testing.T) {
	r := prng.New(1)
	for _, p := range []int{16, 32, 64} {
		pr := naming.NewSymGlobal(p)
		for trial := 0; trial < 5; trial++ {
			cfg := sim.ArbitraryConfig(pr, p, r)
			steps, silent := Drive(pr, NewSymGlobal(pr), cfg, 4*p+8)
			if !silent || !cfg.ValidNaming() {
				t.Fatalf("P=N=%d trial %d: failed after %d steps: %s", p, trial, steps, cfg)
			}
		}
	}
}

// TestGlobalPOracleExhaustive drives the Proposition 17 schedule from
// every mobile configuration at N = P for small P.
func TestGlobalPOracleExhaustive(t *testing.T) {
	for p := 2; p <= 5; p++ {
		pr := naming.NewGlobalP(p)
		bound := 4*(1<<uint(p-1)) + 4*p*p + 16
		for _, start := range explore.AllConfigs(p, p, pr.InitLeader()) {
			cfg := start.Clone()
			steps, silent := Drive(pr, NewGlobalP(pr), cfg, bound)
			if !silent || !cfg.ValidNaming() {
				t.Fatalf("P=N=%d from %s: not named after %d oracle steps: %s",
					p, start, steps, cfg)
			}
		}
	}
}

// TestGlobalPOracleLarge: the constructive schedule names N = P = 16
// with P states in about 2^(P-1) interactions — an instance whose
// expected cost under random scheduling is astronomically larger (the
// exact P = 4 cost is already 302,788 and grows ~400x per increment).
func TestGlobalPOracleLarge(t *testing.T) {
	r := prng.New(2)
	for _, p := range []int{8, 12, 16} {
		pr := naming.NewGlobalP(p)
		cfg := sim.ArbitraryConfig(pr, p, r)
		bound := 4*(1<<uint(p-1)) + 4*p*p + 16
		steps, silent := Drive(pr, NewGlobalP(pr), cfg, bound)
		if !silent || !cfg.ValidNaming() {
			t.Fatalf("P=N=%d: failed after %d steps: %s", p, steps, cfg)
		}
		t.Logf("P=N=%d named deterministically in %d interactions (bound %d)", p, steps, bound)
	}
}

// TestOracleMovesAreLegalPairs: every emitted pair is well formed and
// the tags match the move taxonomy.
func TestOracleMovesAreLegalPairs(t *testing.T) {
	pr := naming.NewGlobalP(4)
	cfg := core.NewConfig(4, 0).WithLeader(pr.InitLeader())
	o := NewGlobalP(pr)
	valid := map[string]bool{"reduce": true, "jump": true, "count": true, "walk": true, "fill": true}
	for i := 0; i < 1000; i++ {
		st, ok := o.Next(cfg)
		if !ok {
			return
		}
		if !st.Pair.Valid(4, true) {
			t.Fatalf("invalid pair %v", st.Pair)
		}
		if !valid[st.Why] {
			t.Fatalf("unknown move tag %q", st.Why)
		}
		core.ApplyPair(pr, cfg, st.Pair)
	}
	t.Fatal("oracle did not terminate within 1000 moves at P=4")
}

// TestSymGlobalFillNeverCreatesHomonyms checks the proof's key
// invariant: fill moves assign absent names only.
func TestSymGlobalFillNeverCreatesHomonyms(t *testing.T) {
	pr := naming.NewSymGlobal(8)
	r := prng.New(3)
	for trial := 0; trial < 50; trial++ {
		cfg := sim.ArbitraryConfig(pr, 8, r)
		o := NewSymGlobal(pr)
		for i := 0; i < 200; i++ {
			st, ok := o.Next(cfg)
			if !ok {
				break
			}
			before := nonBlankHomonyms(cfg, pr.Blank())
			core.ApplyPair(pr, cfg, st.Pair)
			after := nonBlankHomonyms(cfg, pr.Blank())
			if st.Why == "fill" && after > before {
				t.Fatalf("fill created homonyms: %s", cfg)
			}
		}
	}
}

func nonBlankHomonyms(cfg *core.Config, blank core.State) int {
	counts := make(map[core.State]int)
	total := 0
	for _, s := range cfg.Mobile {
		if s == blank {
			continue
		}
		counts[s]++
		if counts[s] == 2 {
			total++
		}
	}
	return total
}

// TestSymGlobalOracleRejectsTinyPopulation: Proposition 13 needs N > 2.
func TestSymGlobalOracleRejectsTinyPopulation(t *testing.T) {
	pr := naming.NewSymGlobal(3)
	cfg := core.NewConfigStates(pr.Blank(), pr.Blank())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for N = 2")
		}
	}()
	o := NewSymGlobal(pr)
	for i := 0; i < 10; i++ {
		st, ok := o.Next(cfg)
		if !ok {
			t.Fatal("oracle claimed success at N = 2")
		}
		core.ApplyPair(pr, cfg, st.Pair)
	}
}

// TestGlobalPOracleRejectsWrongSize: the Prop 17 oracle is N = P only.
func TestGlobalPOracleRejectsWrongSize(t *testing.T) {
	pr := naming.NewGlobalP(4)
	cfg := core.NewConfig(3, 0).WithLeader(pr.InitLeader())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for N != P")
		}
	}()
	NewGlobalP(pr).Next(cfg)
}

func TestDriveBudgetExhausted(t *testing.T) {
	pr := naming.NewGlobalP(4)
	cfg := core.NewConfig(4, 0).WithLeader(pr.InitLeader())
	steps, silent := Drive(pr, NewGlobalP(pr), cfg, 1)
	if steps != 1 || silent {
		t.Fatalf("budget-1 drive: steps=%d silent=%v", steps, silent)
	}
}
