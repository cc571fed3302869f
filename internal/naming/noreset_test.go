package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/seq"
	"popnaming/internal/sim"
)

func TestNoResetWellFormed(t *testing.T) {
	for p := 2; p <= 6; p++ {
		pr := NewNoReset(p)
		if err := core.CheckProtocol(pr); err != nil {
			t.Errorf("P=%d: %v", p, err)
		}
		if pr.States() != p+1 {
			t.Errorf("P=%d: States = %d, want %d", p, pr.States(), p+1)
		}
	}
}

func TestNoResetRejectsTinyBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNoReset(1) did not panic")
		}
	}()
	NewNoReset(1)
}

// TestNoResetNamesWithInitializedLeader: without the reset line the
// protocol is Protocol 1 over U_P — still a correct namer when the
// leader starts at zero.
func TestNoResetNamesWithInitializedLeader(t *testing.T) {
	const p = 6
	pr := NewNoReset(p)
	r := prng.New(51)
	for n := 1; n <= p; n++ {
		cfg := core.NewConfig(n, 0).WithLeader(pr.InitLeader())
		for i := range cfg.Mobile {
			cfg.Mobile[i] = pr.RandomMobile(r)
		}
		res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(5_000_000)
		if !res.Converged || !cfg.ValidNaming() {
			t.Fatalf("N=%d: %s", n, res)
		}
	}
}

// TestNoResetStuckWithCorruptLeader: the concrete failure mode the
// reset line exists to repair — a leader whose guess starts beyond P
// never touches unnamed agents again.
func TestNoResetStuckWithCorruptLeader(t *testing.T) {
	const p = 4
	pr := NewNoReset(p)
	cfg := core.NewConfig(p, 0).WithLeader(counting.BST(p+1, 3))
	if !core.Silent(pr, cfg) {
		t.Fatal("corrupt-leader configuration should be silent (stuck)")
	}
	if cfg.ValidNaming() {
		t.Fatal("stuck configuration should not be a naming")
	}
	// Contrast: the full Protocol 2 is NOT silent here — the reset line
	// fires.
	full := NewSelfStab(p)
	if core.Silent(full, cfg.Clone()) {
		t.Fatal("Protocol 2 should have an enabled reset transition")
	}
}

func TestNoResetRandomLeaderDomain(t *testing.T) {
	pr := NewNoReset(3)
	r := prng.New(1)
	for i := 0; i < 500; i++ {
		l := pr.RandomLeader(r)
		if n, k := counting.Guess(l), counting.Pointer(l); n < 0 || n > 4 || k < 0 || k > seq.Len(3)+1 {
			t.Fatalf("leader out of domain: %v", l)
		}
	}
}
