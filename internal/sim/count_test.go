package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
)

// mergeProto is a 3-state converging protocol for count-engine tests:
// only (0, 1) encounters are non-null, rewriting both sides to 2, so a
// {0:k, 1:k} start drains into 2s and goes silent once either side is
// exhausted.
func mergeProto() core.Protocol {
	return core.NewRuleTable("merge", 3, 3).AddSymmetric(0, 1, 2, 2)
}

// churnProto is a q-state protocol that never goes silent for N > q:
// two agents of one state push one of them a state forward (mod q), so
// some diagonal pair is always schedulable and non-null.
func churnProto(q int) core.Protocol {
	t := core.NewRuleTable("churn", q, q)
	for i := 0; i < q; i++ {
		t.Add(core.State(i), core.State(i), core.State(i), core.State((i+1)%q))
	}
	return t
}

// oversized is a protocol whose state space exceeds the compiled-table
// cap, which the count engine must reject (it has no interpreted path).
type oversized struct{}

func (oversized) Name() string                                    { return "oversized" }
func (oversized) P() int                                          { return 4096 }
func (oversized) States() int                                     { return maxCompiledStates + 1 }
func (oversized) Symmetric() bool                                 { return true }
func (oversized) Mobile(x, y core.State) (core.State, core.State) { return x, y }

// TestCountSamplerProportional checks the Fenwick tree behind the
// initiator draw: a uniform index into the total weight lands on each
// entry in proportion to its weight (never on a zero one), before and
// after point updates, decreases included.
func TestCountSamplerProportional(t *testing.T) {
	t.Run("fenwick", func(t *testing.T) {
		weights := []uint64{5, 0, 3, 2, 7}
		f := newFenwick(len(weights))
		for i, w := range weights {
			f.add(i, w)
		}
		rng := newCountRNG(42)
		check := func(stage string) {
			t.Helper()
			var total uint64
			for _, w := range weights {
				total += w
			}
			const draws = 50000
			freq := make([]int, len(weights))
			for i := 0; i < draws; i++ {
				freq[f.find(rng.uint64n(total))]++
			}
			for i, w := range weights {
				p := float64(w) / float64(total)
				want := draws * p
				sigma := 5 * math.Sqrt(draws*p*(1-p))
				if got := float64(freq[i]); w == 0 && freq[i] != 0 || got < want-sigma || got > want+sigma {
					t.Errorf("%s: entry %d (weight %d) drawn %v times, want %v ± %v", stage, i, w, got, want, sigma)
				}
			}
		}
		check("built")
		for i, d := range []int64{-4, 6, 0, 3, -7} {
			weights[i] = uint64(int64(weights[i]) + d)
			f.add(i, uint64(d))
		}
		check("updated")
	})
}

// TestCountRunnerConverges runs the engine, whose initiator draw is a
// Fenwick tree over the non-null row weights, to silence.
func TestCountRunnerConverges(t *testing.T) {
	t.Run("fenwick", func(t *testing.T) {
		cc := core.NewCountConfig(3)
		cc.Counts[0], cc.Counts[1] = 50, 50
		r, err := NewCountRunner(mergeProto(), cc, 123)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run(10_000_000)
		if !res.Converged {
			t.Fatalf("did not converge: %v", res)
		}
		if cc.N() != 100 {
			t.Fatalf("population not conserved: %d", cc.N())
		}
		if cc.Counts[0] != 0 && cc.Counts[1] != 0 {
			t.Fatalf("silent but both 0 and 1 occupied: %v", cc)
		}
		if res.NonNull == 0 || res.Steps < res.NonNull {
			t.Fatalf("implausible counters: %v", res)
		}
		// Silence is reported where the per-step loop tests it: after one
		// full quiet window behind the last non-null interaction.
		if q, w := r.quietStreak(), r.quietThreshold(); q != w {
			t.Fatalf("converged with a quiet tail of %d, want one window of %d", q, w)
		}
	})
}

func TestCountRunnerSilentStart(t *testing.T) {
	pr := mergeProto()
	cc := core.NewCountConfig(3)
	cc.Counts[2] = 10 // all-2 is silent
	r, err := NewCountRunner(pr, cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(1000)
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("silent start should converge in 0 steps: %v", res)
	}
}

func TestCountRunnerConservesN(t *testing.T) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = 1000
	r, err := NewCountRunner(pr, cc, 99)
	if err != nil {
		t.Fatal(err)
	}
	for steps := 1000; steps <= 20000; steps += 1000 {
		if res := r.run(steps); res.Steps != steps {
			t.Fatalf("ran to step %d, want %d", res.Steps, steps)
		}
		if cc.N() != 1000 {
			t.Fatalf("step %d: population drifted to %d", steps, cc.N())
		}
	}
}

// TestDrawResponderExcludesSoleAgent pins the diagonal correction: when
// the initiator's state has a single agent, the responder can never be
// that state (there is no second agent to meet).
func TestDrawResponderExcludesSoleAgent(t *testing.T) {
	pr := churnProto(4)
	cc := core.NewCountConfig(4)
	cc.Counts[0], cc.Counts[1] = 1, 9
	// churn's non-null pairs are the diagonal ones, and (0, 0) has no
	// weight with one agent: every draw must be (1, 1).
	ev := newCountEvents(core.MustCompile(pr), cc.Counts, core.Leader{})
	if want := uint64(9 * 8); ev.mobile != want {
		t.Fatalf("mobile weight %d, want %d", ev.mobile, want)
	}
	rng := newCountRNG(5)
	for i := 0; i < 5000; i++ {
		if x, y, _ := ev.draw(rng.uint64n(ev.mobile), &rng); x != 1 || y != 1 {
			t.Fatalf("drew (%d, %d); the sole agent of state 0 has no partner", x, y)
		}
	}
}

func TestNewCountRunnerErrors(t *testing.T) {
	pr := mergeProto()
	cases := []struct {
		name string
		pr   core.Protocol
		cc   *core.CountConfig
	}{
		{"leader mismatch", pr, &core.CountConfig{Counts: []int{2, 0, 0}, Leader: core.Leader{}}},
		{"length mismatch", pr, &core.CountConfig{Counts: []int{2, 0}}},
		{"negative count", pr, &core.CountConfig{Counts: []int{2, -1, 0}}},
		{"too small", pr, &core.CountConfig{Counts: []int{1, 0, 0}}},
		{"oversized table", oversized{}, core.NewCountConfig(maxCompiledStates + 1)},
	}
	// Leader mismatch needs the opposite arrangement: a leaderless
	// protocol with a leader state is awkward to fake, so test the
	// protocol-with-leader side through the config having none — merge
	// has no leader, so attach an impossible one via a non-nil Leader.
	cases[0].cc.Leader = fakeKind.New()
	for _, c := range cases {
		if _, err := NewCountRunner(c.pr, c.cc, 1); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}

	// Population past the uint64 pair-weight bound must error cleanly.
	big := core.NewCountConfig(3)
	big.Counts[0] = core.MaxCountN + 1
	if _, err := NewCountRunner(pr, big, 1); err == nil {
		t.Error("overflow population: want error, got nil")
	}
}

var fakeKind = &core.LeaderKind{Name: "fake"}

// TestCountRunnerInterrupt: the supervisor's interrupt stops a count
// executor at its first slice boundary, before any interaction.
func TestCountRunnerInterrupt(t *testing.T) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = 100
	r, err := NewCountRunner(pr, cc, 3)
	if err != nil {
		t.Fatal(err)
	}
	sup := Supervision{StepBudget: 1 << 30, Interrupt: func() bool { return true }}
	sr := Supervise(context.Background(), sup, func(attempt int) Executor { return r })
	if sr.Status != TrialAborted || sr.Reason != "interrupt" {
		t.Fatalf("status %s reason %q, want aborted/interrupt", sr.Status, sr.Reason)
	}
	if sr.Converged || sr.Steps != 0 || sr.Census != cc {
		t.Fatalf("immediate interrupt should stop at step 0 with the census: %v", sr.Result)
	}
}

type recSink struct{ recs []any }

func (s *recSink) Emit(rec any) error { s.recs = append(s.recs, rec); return nil }

func TestCountRunnerObserver(t *testing.T) {
	pr := mergeProto()
	cc := core.NewCountConfig(3)
	cc.Counts[0], cc.Counts[1] = 30, 30
	r, err := NewCountRunner(pr, cc, 17)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	r.Obs = obs.NewObserver(60, false, obs.ObserverOptions{
		Sink:          sink,
		ProgressEvery: 500,
		NoPairs:       true,
	})
	res := r.Run(10_000_000)
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	var progress, census int
	var sum *obs.Summary
	for _, rec := range sink.recs {
		switch v := rec.(type) {
		case obs.Progress:
			progress++
		case obs.CensusRec:
			census++
			total := 0
			for _, c := range v.Counts {
				total += c
			}
			if total != 60 {
				t.Fatalf("census record counts sum to %d, want 60", total)
			}
		case obs.Summary:
			sum = &v
		}
	}
	if progress == 0 || census == 0 {
		t.Fatalf("expected progress and census records, got %d/%d", progress, census)
	}
	if census != progress {
		t.Fatalf("every progress emission should carry a census: %d progress, %d census", progress, census)
	}
	if sum == nil {
		t.Fatal("no summary record")
	}
	if !sum.Converged || sum.Steps != uint64(res.Steps) || sum.NonNull != uint64(res.NonNull) {
		t.Fatalf("summary disagrees with result: %+v vs %v", sum, res)
	}
	if len(sum.Rules) == 0 {
		t.Fatal("summary has no rule accounting")
	}
}

func TestUniformCountConfigMatchesAgent(t *testing.T) {
	pr := mergeProto()
	agent := UniformConfig(pr, 25)
	folded, err := core.CountsOf(agent, pr.States())
	if err != nil {
		t.Fatal(err)
	}
	direct := UniformCountConfig(pr, 25)
	for s := range folded.Counts {
		if folded.Counts[s] != direct.Counts[s] {
			t.Fatalf("state %d: folded %d != direct %d", s, folded.Counts[s], direct.Counts[s])
		}
	}
}

// TestStartTrial covers the init-key table on both engines: the
// exchangeable keys build a census or an agent array with the leader
// kept, and arbitrary init is agent-only.
func TestStartTrial(t *testing.T) {
	pr := naming.NewInitLeader(6)
	tr, err := StartTrial(pr, 6, "zero", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cc := tr.Count; tr.Cfg != nil || cc.N() != 6 || cc.Counts[0] != 6 {
		t.Fatalf("zero init trial = %+v", tr)
	}
	if !tr.Count.HasLeader() {
		t.Fatal("leader protocol start lost its leader")
	}
	if tr, err = StartTrial(pr, 6, "zero", false, 1); err != nil || tr.Count != nil || tr.Cfg.N() != 6 || !tr.Cfg.HasLeader() {
		t.Fatalf("agent zero init = %+v, %v", tr, err)
	}
	for _, count := range []bool{false, true} {
		if _, err := StartTrial(pr, 6, "uniform", count, 1); err != nil {
			t.Fatalf("uniform init (count=%v): %v", count, err)
		}
		if _, err := StartTrial(pr, 6, "bogus", count, 1); err == nil {
			t.Fatalf("unknown init accepted (count=%v)", count)
		}
	}
	if _, err := StartTrial(pr, 6, "arbitrary", true, 1); err == nil {
		t.Fatal("arbitrary init must be rejected as not count-representable")
	}
	ss := naming.NewSelfStab(6)
	a, _ := StartTrial(ss, 6, "arbitrary", false, 9)
	b, _ := StartTrial(ss, 6, "arbitrary", false, 9)
	if a.Cfg.String() != b.Cfg.String() {
		t.Fatalf("arbitrary init not reproducible from its seed: %s vs %s", a.Cfg, b.Cfg)
	}
	if _, err := StartTrial(pr, 6, "arbitrary", false, 1); err == nil {
		t.Fatal("arbitrary init accepted for a protocol without arbitrary initialization")
	}
}

// syncSink is a concurrency-safe record sink for batch tests.
type syncSink struct {
	mu   sync.Mutex
	recs []any
}

func (s *syncSink) Emit(rec any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	return nil
}

func (s *syncSink) take() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}

// TestCountOneStepLaw holds the jump chain's step to the exact law of
// the per-interaction chain it replaces: from a fixed configuration the
// number G of nulls before the next non-null event is Geometric(p) with
// p = (W+2L)/T, and that event is independent of G, each non-null
// ordered pair (x, y) drawn with probability c[x]·(c[y]−[x=y])/(W+2L)
// and each leader meeting with state s with probability 2·c[s]/(W+2L).
// The expected law is computed from the protocol itself, not from the
// engine's weights, and a chi-square test over (G bucket, event) cells
// compares it with 20000 draws per configuration. The configurations
// cover diagonal and off-diagonal rules, a non-null row of several
// states (the responder scan) next to one-state rows, a sole agent of
// a reactive state (c[x] = 1, so (x, x) has no weight), a leader whose
// rules change the leader, the peer or both, and p small enough that G
// runs into the dozens.
func TestCountOneStepLaw(t *testing.T) {
	leadered := &tableLeader{
		RuleTable: core.NewRuleTable("law", 3, 3).Add(1, 1, 1, 2).AddSymmetric(0, 2, 2, 2),
		next: []leaderMove{
			{1, 1}, {0, 1}, {0, 0}, // r=0: x=0 moves both, x=1 is null, x=2 moves the peer
			{0, 0}, {1, 2}, {1, 2}, // r=1: x=0 moves the leader back, x=1 moves the peer, x=2 is null
			{2, 0}, {2, 1}, {2, 2}, // r=2: unused
		},
	}
	cases := []struct {
		name   string
		pr     core.Protocol
		counts []int
		leader core.Leader
	}{
		{"diagonal/sole", churnProto(4), []int{1, 3, 2, 0}, core.Leader{}},
		{"off-diagonal", mergeProto(), []int{2, 3, 1}, core.Leader{}},
		{"row", core.NewRuleTable("row", 3, 3).Add(0, 0, 0, 1).Add(0, 1, 0, 2).Add(0, 2, 1, 2).Add(2, 0, 2, 2), []int{2, 1, 3}, core.Leader{}},
		{"leader", leadered, []int{1, 2, 1}, leadered.InitLeader()},
		{"leader/moved", leadered, []int{2, 1, 3}, tableLeaderKind.New(1)},
		{"rare", churnProto(8), []int{2, 1, 1, 1, 1, 1, 1, 1}, core.Leader{}},
	}
	const draws = 20000
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cc := &core.CountConfig{Counts: append([]int(nil), c.counts...), Leader: c.leader}
			r, err := NewCountRunner(c.pr, cc, int64(100+ci))
			if err != nil {
				t.Fatal(err)
			}
			r.ensure()

			// The exact law, from the protocol.
			type event struct {
				x, y   core.State
				leader bool
			}
			weights := map[event]float64{}
			var total float64
			for x, cx := range cc.Counts {
				for y, cy := range cc.Counts {
					if x == y {
						cy--
					}
					if w := float64(cx * cy); w > 0 && !core.IsNullMobile(c.pr, core.State(x), core.State(y)) {
						weights[event{core.State(x), core.State(y), false}] = w
						total += w
					}
				}
				if lp, ok := c.pr.(core.LeaderProtocol); ok && cx > 0 && !core.IsNullLeader(lp, cc.Leader, core.State(x)) {
					weights[event{x: core.State(x), leader: true}] = 2 * float64(cx)
					total += 2 * float64(cx)
				}
			}
			n := float64(cc.N())
			pairs := n * (n - 1)
			if cc.HasLeader() {
				pairs = (n + 1) * n
			}
			p := total / pairs
			// G buckets [edges[i], edges[i+1]), the last one open, each
			// holding at least 10% of the geometric mass.
			edges, bucketP := []int{0}, []float64(nil)
			for g, mass, tail := 0, 0.0, 1.0; ; g++ {
				pg := math.Pow(1-p, float64(g)) * p
				mass += pg
				tail -= pg
				if mass >= 0.1 {
					bucketP = append(bucketP, mass)
					mass = 0
					edges = append(edges, g+1)
					if tail < 0.2 {
						bucketP = append(bucketP, tail)
						break
					}
				}
			}
			bucket := func(g float64) int {
				for i := len(edges) - 1; i >= 0; i-- {
					if g >= float64(edges[i]) {
						return i
					}
				}
				panic("negative skip")
			}

			seen := map[event][]int{}
			weight := r.ev.mobile + 2*r.ev.leader
			if float64(weight) != total {
				t.Fatalf("engine weight %d, protocol weight %v", weight, total)
			}
			for i := 0; i < draws; i++ {
				g, u := r.jump(weight)
				x, y, leader := r.ev.draw(u, &r.rng)
				e := event{x, y, leader}
				if leader {
					e.y = 0
				}
				if _, ok := weights[e]; !ok {
					t.Fatalf("drew %+v, which has no weight under the exact law", e)
				}
				if seen[e] == nil {
					seen[e] = make([]int, len(bucketP))
				}
				seen[e][bucket(g)]++
			}
			chi, cells := 0.0, 0
			for e, w := range weights {
				for b, pb := range bucketP {
					want := draws * pb * w / total
					got := 0.0
					if seen[e] != nil {
						got = float64(seen[e][b])
					}
					chi += (got - want) * (got - want) / want
					cells++
				}
			}
			// Wilson–Hilferty upper quantile of chi-square at alpha 1e-4.
			df := float64(cells - 1)
			crit := df * math.Pow(1-2/(9*df)+3.719*math.Sqrt(2/(9*df)), 3)
			t.Logf("p = %.4f, %d G buckets × %d events: chi² = %.1f, critical %.1f", p, len(bucketP), len(weights), chi, crit)
			if chi > crit {
				t.Fatalf("one-step law rejected: chi² = %.1f > %.1f over %d cells", chi, crit, cells)
			}
		})
	}
}
