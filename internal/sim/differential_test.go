package sim_test

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// diffCase instantiates one registry protocol at a size where every
// protocol is well-defined (counting needs N < P, ssle needs N = P).
func diffCase(t *testing.T, key string) (core.Protocol, int) {
	t.Helper()
	spec, err := experiments.Lookup(key)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", key, err)
	}
	p, n := 12, 10
	if key == "ssle" {
		n = 12
	}
	return spec.New(p), n
}

func diffStart(pr core.Protocol, n int, seed int64) *core.Config {
	if ap, ok := pr.(core.ArbitraryInitProtocol); ok {
		return sim.ArbitraryConfig(ap, n, prng.New(seed))
	}
	return sim.UniformConfig(pr, n)
}

func sameConfig(a, b *core.Config) bool {
	if !reflect.DeepEqual(a.Mobile, b.Mobile) {
		return false
	}
	return a.Leader == b.Leader
}

// TestCompiledMatchesInterpreted drives a compiled and an interpreted
// runner of every registered protocol from identical seeds and demands
// bit-identical configurations after every single interaction, plus
// agreement between the incremental silence test and the exhaustive
// O(n²) scan.
func TestCompiledMatchesInterpreted(t *testing.T) {
	const seed, steps = 1701, 3000
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			pr, n := diffCase(t, key)
			withLeader := core.HasLeader(pr)

			comp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp.Interpret = true
			if !comp.Compiled() {
				t.Fatalf("protocol %q did not compile", key)
			}
			if interp.Compiled() {
				t.Fatal("Interpret did not disable the compiled engine")
			}

			for s := 0; s < steps; s++ {
				if comp.Step() != interp.Step() {
					t.Fatalf("step %d: null/non-null disagreement", s)
				}
				if !sameConfig(comp.Cfg, interp.Cfg) {
					t.Fatalf("step %d: configurations diverged:\n  compiled    %v\n  interpreted %v", s, comp.Cfg, interp.Cfg)
				}
				if s%157 == 0 {
					exhaustive := core.Silent(pr, interp.Cfg)
					if comp.Silent() != exhaustive || interp.Silent() != exhaustive {
						t.Fatalf("step %d: silence tests disagree (census %v, interp %v, scan %v)",
							s, comp.Silent(), interp.Silent(), exhaustive)
					}
				}
			}
		})
	}
}

// TestCompiledRunMatchesInterpretedRun checks that full executions —
// including the fused scheduler/table/census loop and its convergence
// cutoff — return identical Results from identical seeds.
func TestCompiledRunMatchesInterpretedRun(t *testing.T) {
	const seed, budget = 2718, 400000
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			pr, n := diffCase(t, key)
			withLeader := core.HasLeader(pr)

			comp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp.Interpret = true

			got := comp.Run(budget)
			want := interp.Run(budget)
			if got.Converged != want.Converged || got.Steps != want.Steps || got.NonNull != want.NonNull {
				t.Fatalf("results diverged:\n  compiled    %v\n  interpreted %v", got, want)
			}
			if !sameConfig(got.Final, want.Final) {
				t.Fatalf("final configurations diverged:\n  compiled    %v\n  interpreted %v", got.Final, want.Final)
			}
		})
	}
}

// TestRunCompiledExplicit checks that Run on a compiled runner with a
// random scheduler — the fused loop — matches the interpreted
// reference, observed or not.
func TestRunCompiledExplicit(t *testing.T) {
	const seed, budget = 31415, 400000
	pr, n := diffCase(t, "selfstab")

	for _, observed := range []bool{false, true} {
		comp := sim.NewRunner(pr, sched.NewRandom(n, true, seed), diffStart(pr, n, seed))
		interp := sim.NewRunner(pr, sched.NewRandom(n, true, seed), diffStart(pr, n, seed))
		interp.Interpret = true
		if observed {
			comp.Obs = obs.NewObserver(n, true, obs.ObserverOptions{})
		}
		if !comp.Compiled() {
			t.Fatal("selfstab did not compile")
		}

		got := comp.Run(budget)
		want := interp.Run(budget)
		if got.Converged != want.Converged || got.Steps != want.Steps || got.NonNull != want.NonNull {
			t.Fatalf("observed=%v: compiled Run diverged from interpreted Run:\n  compiled    %v\n  interpreted %v", observed, got, want)
		}
	}
}

// wallClock matches the journal's wall-clock fields, the only bytes two
// runs of one seed may differ in.
var wallClock = regexp.MustCompile(`"(elapsedNs|wallNs|utilization)":[0-9.e+-]+`)

// TestCompiledJournalMatchesInterpreted checks the observed fused loop
// at journal level: for every registry protocol and fault plan, a
// supervised compiled run journals the same bytes, wall-clock fields
// aside, as the interpreted reference. The progress period 997 divides
// neither the 5000-interaction supervision slice nor the plans' trigger
// steps, so chunks end at progress boundaries, slice ends, step
// triggers and silence, and the crash and omission plans run through
// the per-interaction suppressing window.
func TestCompiledJournalMatchesInterpreted(t *testing.T) {
	const seed, budget = 4242, 150_000
	plans := []string{"", "@conv:corrupt=2", "@500:crash=1", "@300:omit=50"}
	for _, key := range experiments.RegistryKeys() {
		for _, spec := range plans {
			key, spec := key, spec
			t.Run(key+"/"+spec, func(t *testing.T) {
				pr, n := diffCase(t, key)
				plan, err := fault.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := fault.CheckPlan(plan, pr); err != nil {
					t.Skip(err)
				}
				journal := func(interpret bool) ([]byte, sim.SupervisedResult) {
					var buf bytes.Buffer
					sink := obs.NewJournalSink(&buf)
					res := sim.Supervise(context.Background(), sim.Supervision{StepBudget: budget, Slice: 5000, Sink: sink}, func(int) sim.Executor {
						withLeader := core.HasLeader(pr)
						r := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
						r.Interpret = interpret
						r.Obs = obs.NewObserver(n, withLeader, obs.ObserverOptions{Sink: sink, ProgressEvery: 997})
						if !plan.Empty() {
							inj, err := fault.NewInjector(plan, pr, seed)
							if err != nil {
								t.Fatal(err)
							}
							inj.Sink = sink
							r.Inject = inj
						}
						if r.Compiled() == interpret {
							t.Fatalf("Interpret=%v but Compiled()=%v", interpret, r.Compiled())
						}
						return r
					})
					if err := sink.Err(); err != nil {
						t.Fatal(err)
					}
					return wallClock.ReplaceAll(buf.Bytes(), []byte(`"wall":0`)), res
				}
				got, gres := journal(false)
				want, wres := journal(true)
				if gres.Result.Steps != wres.Result.Steps || gres.Converged != wres.Converged {
					t.Fatalf("results diverged: compiled %v, interpreted %v", gres.Result, wres.Result)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("journals differ:\n--- compiled ---\n%s\n--- interpreted ---\n%s", got, want)
				}
			})
		}
	}
}
