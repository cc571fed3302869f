package core

import (
	"strings"
	"testing"

	"popnaming/internal/prng"
)

// lyingProtocol wraps a protocol and overrides its symmetry claim, to
// exercise Compile's claim validation.
type lyingProtocol struct {
	Protocol
	claim bool
}

func (l lyingProtocol) Symmetric() bool { return l.claim }

// flakyProtocol returns different outputs on repeated evaluation of one
// pair, violating determinism.
type flakyProtocol struct {
	calls int
}

func (f *flakyProtocol) Name() string    { return "flaky" }
func (f *flakyProtocol) P() int          { return 2 }
func (f *flakyProtocol) States() int     { return 2 }
func (f *flakyProtocol) Symmetric() bool { return true }
func (f *flakyProtocol) Mobile(x, y State) (State, State) {
	f.calls++
	if f.calls%2 == 0 {
		return y, x
	}
	return x, y
}

// escapingProtocol emits a state outside [0, States()).
type escapingProtocol struct{}

func (escapingProtocol) Name() string    { return "escaping" }
func (escapingProtocol) P() int          { return 2 }
func (escapingProtocol) States() int     { return 2 }
func (escapingProtocol) Symmetric() bool { return true }
func (escapingProtocol) Mobile(x, y State) (State, State) {
	if x == 1 && y == 1 {
		return 5, 5
	}
	return x, y
}

func TestCompileMatchesInterface(t *testing.T) {
	tab := NewRuleTable("t", 4, 4).
		AddSymmetric(1, 1, 0, 0).
		AddSymmetric(2, 3, 3, 2).
		Add(0, 1, 1, 1)
	c, err := Compile(tab)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			wx, wy := tab.Mobile(State(x), State(y))
			gx, gy := c.Mobile(State(x), State(y))
			if gx != wx || gy != wy {
				t.Fatalf("(%d,%d): compiled (%d,%d), interface (%d,%d)", x, y, gx, gy, wx, wy)
			}
			if c.Null(State(x), State(y)) != IsNullMobile(tab, State(x), State(y)) {
				t.Fatalf("(%d,%d): null bitset disagrees with IsNullMobile", x, y)
			}
			idx := c.Idx(State(x), State(y))
			ax, ay := c.At(idx)
			if ax != gx || ay != gy {
				t.Fatalf("(%d,%d): At(Idx) disagrees with Mobile", x, y)
			}
		}
	}
	if c.Name() != tab.Name() || c.P() != tab.P() || c.States() != tab.States() || c.Symmetric() != tab.Symmetric() {
		t.Fatal("metadata not delegated")
	}
	if c.Source() != Protocol(tab) {
		t.Fatal("Source lost")
	}
}

func TestCompileRejectsOutOfRange(t *testing.T) {
	if _, err := Compile(escapingProtocol{}); err == nil || !strings.Contains(err.Error(), "leaves state space") {
		t.Fatalf("out-of-range rule not rejected: %v", err)
	}
}

func TestCompileRejectsNonDeterminism(t *testing.T) {
	if _, err := Compile(&flakyProtocol{}); err == nil || !strings.Contains(err.Error(), "non-deterministic") {
		t.Fatalf("non-determinism not rejected: %v", err)
	}
}

func TestCompileRejectsSymmetryLies(t *testing.T) {
	asym := NewRuleTable("asym", 3, 3).Add(0, 1, 2, 1) // (1,0) keeps its null rule: not symmetric
	sym := NewRuleTable("sym", 3, 3).AddSymmetric(0, 1, 2, 1)
	if _, err := Compile(lyingProtocol{asym, true}); err == nil || !strings.Contains(err.Error(), "claims symmetric") {
		t.Fatalf("false symmetric claim not rejected: %v", err)
	}
	if _, err := Compile(lyingProtocol{sym, false}); err == nil || !strings.Contains(err.Error(), "claims asymmetric") {
		t.Fatalf("false asymmetric claim not rejected: %v", err)
	}
	if _, err := Compile(asym); err != nil {
		t.Fatalf("honest asymmetric table rejected: %v", err)
	}
	if _, err := Compile(sym); err != nil {
		t.Fatalf("honest symmetric table rejected: %v", err)
	}
}

func TestMustCompilePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile(escapingProtocol{})
}

// bruteActivePairs recomputes the census invariant from first
// principles: ordered schedulable state pairs with a non-null rule.
func bruteActivePairs(c *Compiled, cfg *Config) int {
	counts := make(map[State]int)
	for _, s := range cfg.Mobile {
		counts[s]++
	}
	active := 0
	for x, cx := range counts {
		for y, cy := range counts {
			if x == y && cx < 2 {
				continue
			}
			_ = cy
			if !c.Null(x, y) {
				active++
			}
		}
	}
	return active
}

func TestCensusTracksTransitions(t *testing.T) {
	const q, n, steps = 5, 12, 4000
	tab := NewRuleTable("census", q, q).
		AddSymmetric(1, 1, 0, 0).
		AddSymmetric(2, 2, 0, 0).
		Add(0, 1, 1, 1).
		Add(3, 0, 3, 4)
	c, err := Compile(tab)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rng := prng.New(7)
	cfg := NewConfig(n, 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = State(rng.IntN(q))
	}
	cs, err := NewCensus(c, cfg)
	if err != nil {
		t.Fatalf("NewCensus: %v", err)
	}
	for step := 0; step < steps; step++ {
		i := rng.IntN(n)
		j := rng.IntN(n - 1)
		if j >= i {
			j++
		}
		x, y := cfg.Mobile[i], cfg.Mobile[j]
		x2, y2 := c.Mobile(x, y)
		if x2 != x || y2 != y {
			cfg.Mobile[i], cfg.Mobile[j] = x2, y2
			cs.Apply(x, y, x2, y2)
		}
		if want := bruteActivePairs(c, cfg); cs.ActivePairs() != want {
			t.Fatalf("step %d: activePairs=%d, brute force %d", step, cs.ActivePairs(), want)
		}
		for s := 0; s < q; s++ {
			if cs.Count(State(s)) != cfg.Count(State(s)) {
				t.Fatalf("step %d: census count of state %d drifted", step, s)
			}
		}
		if cs.MobileSilent() != Silent(c, cfg) {
			t.Fatalf("step %d: census silence %v, exhaustive scan %v", step, cs.MobileSilent(), Silent(c, cfg))
		}
	}
}

func TestCensusRejectsOutOfRangeStates(t *testing.T) {
	tab := MustCompile(NewRuleTable("t", 3, 3))
	if _, err := NewCensus(tab, NewConfigStates(0, 1, 7)); err == nil {
		t.Fatal("out-of-range state accepted")
	}
	if _, err := NewCensus(tab, NewConfigStates(0, 1, 2)); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}
