package experiments

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// TestLeaderInteractionAllocs pins that the leader is a plain value: a
// leader interaction (core.ApplyLeader) and a leader silence check
// (Census.Silent) allocate nothing, for every leader protocol in the
// registry plus the reset ablation.
func TestLeaderInteractionAllocs(t *testing.T) {
	const p = 5
	protos := []core.LeaderProtocol{naming.NewNoReset(p)}
	for _, k := range RegistryKeys() {
		spec, err := Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if lp, ok := spec.New(p).(core.LeaderProtocol); ok {
			protos = append(protos, lp)
		}
	}
	if len(protos) != 6 {
		t.Fatalf("pinned %d leader protocols, want 6 (5 registry + noreset)", len(protos))
	}
	for _, lp := range protos {
		// Distinct mobile states: the mobile side is silent, so
		// Census.Silent has to evaluate the leader rule.
		cfg := core.NewConfig(p, 0).WithLeader(lp.InitLeader())
		for i := range cfg.Mobile {
			cfg.Mobile[i] = core.State(i)
		}
		cs, err := core.NewCensus(core.MustCompile(lp), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !cs.MobileSilent() {
			t.Fatalf("%s: start %v is not mobile-silent", lp.Name(), cfg)
		}
		if a := testing.AllocsPerRun(100, func() { cs.Silent(cfg.Leader) }); a != 0 {
			t.Errorf("%s: Census.Silent allocates %.1f per call, want 0", lp.Name(), a)
		}
		j := 0
		if a := testing.AllocsPerRun(100, func() {
			core.ApplyLeader(lp, cfg, j%p)
			j++
		}); a != 0 {
			t.Errorf("%s: ApplyLeader allocates %.1f per interaction, want 0", lp.Name(), a)
		}
	}
}
