package experiments

import (
	"strings"
	"testing"
)

func TestCountCompatible(t *testing.T) {
	compatible := 0
	for _, e := range Suite() {
		if CountCompatible(e.Key) {
			compatible++
		}
	}
	if compatible != 2 {
		t.Fatalf("count-compatible suite entries = %d, want 2", compatible)
	}
	if !CountCompatible("countdiff") || !CountCompatible("countscale") {
		t.Fatal("countdiff/countscale must be count-compatible")
	}
	if CountCompatible("table1") || CountCompatible("nonsense") {
		t.Fatal("identity-dependent keys must not be count-compatible")
	}
}

func TestCountDifferentialSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("engine differential is not short")
	}
	// A down-scaled E23: enough trials for the rate check on every
	// protocol, KS only where convergence is plentiful. The full-size run
	// is exercised by the sim package's differential suite.
	points := CountDifferential(CountDiffOptions{Trials: 40, Budget: 300_000, Seed: 9})
	if len(points) != len(RegistryKeys()) {
		t.Fatalf("got %d points, want one per registry protocol (%d)", len(points), len(RegistryKeys()))
	}
	for _, p := range points {
		if !p.OK {
			t.Errorf("%s: not OK: %s (agent %d, count %d)", p.Protocol, p.Detail, p.AgentConverged, p.CountConverged)
		}
		if p.Protocol == "asym" && !p.KSUsed {
			t.Errorf("asym: expected enough converged mass for the KS test, got %d/%d", p.AgentConverged, p.CountConverged)
		}
	}
}

func TestCountScaleSmall(t *testing.T) {
	res := CountScale(CountScaleOptions{Sizes: []int{1_000, 100_000}, Steps: 200_000, Seed: 3})
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Steps != 200_000 {
			t.Errorf("N=%d ran %d interactions, want the full 200000 (workload went silent?)", p.N, p.Steps)
		}
		if p.StepsPerSec <= 0 {
			t.Errorf("N=%d reports %.0f steps/sec", p.N, p.StepsPerSec)
		}
		if p.NonNull <= 0 || p.NonNull > p.Steps {
			t.Errorf("N=%d reports %d non-null of %d interactions", p.N, p.NonNull, p.Steps)
		}
	}
	var sb strings.Builder
	RenderCountScale(&sb, res)
	if !strings.Contains(sb.String(), "E24") {
		t.Fatal("render output missing the experiment tag")
	}
	again := CountScale(CountScaleOptions{Sizes: []int{1_000, 100_000}, Steps: 200_000, Seed: 3})
	var sb2 strings.Builder
	RenderCountScale(&sb2, again)
	if sb.String() != sb2.String() {
		t.Fatalf("seeded E24 output differs between runs:\n%s\n%s", sb.String(), sb2.String())
	}
}

// TestCountScaleFlatness holds E24's claim: the count engine's cost per
// non-null transition stays within 2x from N = 10^4 to 10^8. Each rung
// keeps its best of three timings, so a descheduled run does not read
// as a slow engine.
func TestCountScaleFlatness(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test is not short")
	}
	sizes := []int{1e4, 1e6, 1e8}
	best := make([]float64, len(sizes))
	for rep := 0; rep < 3; rep++ {
		res := CountScale(CountScaleOptions{Sizes: sizes, Steps: 2_000_000, Seed: int64(rep + 1)})
		for i, p := range res.Points {
			if p.NSPerEvent <= 0 {
				t.Fatalf("N=%d: no cost per transition (%+v)", p.N, p)
			}
			if best[i] == 0 || p.NSPerEvent < best[i] {
				best[i] = p.NSPerEvent
			}
		}
	}
	lo, hi := best[0], best[0]
	for _, c := range best {
		lo, hi = min(lo, c), max(hi, c)
	}
	t.Logf("best ns per transition at N = %v: %.1f", sizes, best)
	if hi > 2*lo {
		t.Fatalf("cost per transition not flat in N: %.1f..%.1f ns (ratio %.2fx > 2x)", lo, hi, hi/lo)
	}
}
