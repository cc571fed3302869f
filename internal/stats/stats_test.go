package stats

import (
	"math"
	"testing"
	"testing/quick"

	"popnaming/internal/prng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad extremes: %+v", s)
	}
	if !approx(s.Mean, 3, 1e-12) || !approx(s.Median, 3, 1e-12) {
		t.Fatalf("bad center: %+v", s)
	}
	if !approx(s.StdDev, math.Sqrt(2), 1e-12) {
		t.Fatalf("bad sd: %v", s.StdDev)
	}
}

// TestSummarizeEmpty pins the zero-Summary contract the grid reducer
// relies on: a cell where every trial aborted must fold to zeros, not
// NaNs or a panic.
func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Fatalf("empty summary: %+v", s)
	}
}

// TestSummarizeSingle: one-element samples must be NaN-free with every
// order statistic equal to the element.
func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Median != 7 || s.P90 != 7 {
		t.Fatalf("single-element summary: %+v", s)
	}
	if s.StdDev != 0 || math.IsNaN(s.StdDev) {
		t.Fatalf("single-element sd: %v", s.StdDev)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !approx(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestQuantileGuards: empty samples yield 0 instead of panicking (see
// Summarize's empty-cell contract), single-element samples yield the
// element at every q; only an out-of-range q still panics.
func TestQuantileGuards(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		if got := Quantile([]float64{3}, q); got != 3 {
			t.Errorf("Quantile([3], %v) = %v, want 3", q, got)
		}
		if got := Quantile(nil, q); math.IsNaN(got) {
			t.Errorf("Quantile(nil, %v) is NaN", q)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on out-of-range q")
			}
		}()
		Quantile([]float64{1}, 1.5)
	}()
}

// TestFitExp2Recovers: synthesize y = 3 * 2^(0.9 x) and recover the
// parameters exactly (no noise).
func TestFitExp2Recovers(t *testing.T) {
	x := []float64{2, 4, 8, 12, 16}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 * math.Exp2(0.9*v)
	}
	f := FitExp2(x, y)
	if !approx(f.A, 3, 1e-9) || !approx(f.B, 0.9, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

// TestFitPowerRecovers: y = 2 x^3.
func TestFitPowerRecovers(t *testing.T) {
	x := []float64{2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2 * math.Pow(v, 3)
	}
	f := FitPower(x, y)
	if !approx(f.A, 2, 1e-9) || !approx(f.B, 3, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

// TestBetterFitDiscriminates: exponential data prefers the exponential
// model and vice versa.
func TestBetterFitDiscriminates(t *testing.T) {
	x := []float64{2, 4, 8, 12, 16, 20}
	exp := make([]float64, len(x))
	pow := make([]float64, len(x))
	for i, v := range x {
		exp[i] = math.Exp2(v)
		pow[i] = math.Pow(v, 2.5)
	}
	if f := BetterFit(x, exp); f.Model != "y = A*2^(B*x)" {
		t.Errorf("exponential data fit as %s", f.Model)
	}
	if f := BetterFit(x, pow); f.Model != "y = A*x^B" {
		t.Errorf("power data fit as %s", f.Model)
	}
}

// TestFitWithNoise: parameters recovered within tolerance under mild
// multiplicative noise.
func TestFitWithNoise(t *testing.T) {
	r := prng.New(1)
	x := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 5 * math.Exp2(1.1*v) * (1 + 0.05*(r.Float64()-0.5))
	}
	f := FitExp2(x, y)
	if math.Abs(f.B-1.1) > 0.05 {
		t.Fatalf("slope %v too far from 1.1", f.B)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R² = %v", f.R2)
	}
}

// Property: Summarize is permutation-invariant and bounded by extremes.
func TestSummarizeProperties(t *testing.T) {
	r := prng.New(2)
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, u := range raw {
			v[i] = float64(u)
		}
		s1 := Summarize(v)
		perm := r.Perm(len(v))
		shuffled := make([]float64, len(v))
		for i, p := range perm {
			shuffled[i] = v[p]
		}
		s2 := Summarize(shuffled)
		return s1 == s2 &&
			s1.Min <= s1.Median && s1.Median <= s1.Max &&
			s1.Min <= s1.Mean && s1.Mean <= s1.Max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogFitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero value")
		}
	}()
	FitExp2([]float64{1, 2}, []float64{0, 1})
}
