package core

import (
	"math"
	"strings"
	"testing"
)

func TestTotalPairWeightSmall(t *testing.T) {
	cases := []struct {
		n          int
		withLeader bool
		want       uint64
	}{
		{0, false, 0},
		{0, true, 0},
		{1, false, 0},
		{1, true, 2},
		{2, false, 2},
		{2, true, 6},
		{10, false, 90},
		{10, true, 110},
	}
	for _, c := range cases {
		got, err := TotalPairWeight(c.n, c.withLeader)
		if err != nil {
			t.Fatalf("TotalPairWeight(%d, %v): %v", c.n, c.withLeader, err)
		}
		if got != c.want {
			t.Errorf("TotalPairWeight(%d, %v) = %d, want %d", c.n, c.withLeader, got, c.want)
		}
	}
}

// TestTotalPairWeightBoundary is the overflow regression test: the
// weight arithmetic must error cleanly at the uint64 boundary, never
// wrap. Leaderless N = 2³² is the last legal population (weight
// 2⁶⁴−2³²); with a leader the last legal population is 2³²−1.
func TestTotalPairWeightBoundary(t *testing.T) {
	// Largest legal leaderless population.
	w, err := TotalPairWeight(MaxCountN, false)
	if err != nil {
		t.Fatalf("TotalPairWeight(2^32, leaderless): %v", err)
	}
	if want := uint64(math.MaxUint64) - (1<<32 - 1); w != want {
		t.Errorf("TotalPairWeight(2^32, leaderless) = %d, want %d", w, want)
	}
	// One past it must error, not wrap.
	if _, err := TotalPairWeight(MaxCountN+1, false); err == nil {
		t.Error("TotalPairWeight(2^32+1, leaderless): want overflow error, got nil")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("overflow error should say so: %v", err)
	}

	// With a leader the bound drops by one: N·(N+1) at N = 2³²−1 is
	// 2⁶⁴−2³², still representable; at N = 2³² it would be 2⁶⁴+2³².
	w, err = TotalPairWeight(MaxCountN-1, true)
	if err != nil {
		t.Fatalf("TotalPairWeight(2^32-1, leader): %v", err)
	}
	if want := uint64(math.MaxUint64) - (1<<32 - 1); w != want {
		t.Errorf("TotalPairWeight(2^32-1, leader) = %d, want %d", w, want)
	}
	if _, err := TotalPairWeight(MaxCountN, true); err == nil {
		t.Error("TotalPairWeight(2^32, leader): want overflow error, got nil")
	}

	if _, err := TotalPairWeight(-1, false); err == nil {
		t.Error("TotalPairWeight(-1): want error, got nil")
	}
}

func TestCountConfigRoundTrip(t *testing.T) {
	cfg := &Config{Mobile: []State{3, 1, 3, 0, 3}}
	cc, err := CountsOf(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0, 3, 0}
	for s, c := range want {
		if cc.Counts[s] != c {
			t.Errorf("Counts[%d] = %d, want %d", s, cc.Counts[s], c)
		}
	}
	if cc.N() != 5 {
		t.Errorf("N() = %d, want 5", cc.N())
	}
	if !cc.HasHomonyms() || cc.ValidNaming() {
		t.Error("three agents share state 3: HasHomonyms should hold")
	}
	back := cc.Config()
	if len(back.Mobile) != 5 {
		t.Fatalf("expanded to %d agents, want 5", len(back.Mobile))
	}
	cc2, err := CountsOf(back, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if cc2.Counts[s] != cc.Counts[s] {
			t.Errorf("round trip changed Counts[%d]: %d != %d", s, cc2.Counts[s], cc.Counts[s])
		}
	}

	if _, err := CountsOf(&Config{Mobile: []State{7}}, 5); err == nil {
		t.Error("CountsOf with out-of-range state: want error")
	}
}

func TestCountConfigValidNaming(t *testing.T) {
	cc := NewCountConfig(4)
	cc.Counts[0], cc.Counts[2] = 1, 1
	if !cc.ValidNaming() {
		t.Error("all counts ≤ 1: ValidNaming should hold")
	}
	cc.Counts[2] = 2
	if cc.ValidNaming() {
		t.Error("count 2: ValidNaming should fail")
	}
}

func TestCountConfigCloneAndValidate(t *testing.T) {
	cc, err := UniformCountConfig(3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cc.Clone()
	cl.Counts[1] = 0
	if cc.Counts[1] != 10 {
		t.Error("Clone shares backing array")
	}
	if err := cc.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	cc.Counts[2] = -1
	if err := cc.Validate(); err == nil {
		t.Error("negative count: Validate should fail")
	}
	if _, err := UniformCountConfig(3, 10, 5); err == nil {
		t.Error("UniformCountConfig with out-of-range state: want error")
	}
}
