package sim

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// BenchmarkRunnerObsOverhead measures what observability costs a run on
// the path batch and serve trials take: one Run over b.N interactions
// of a never-silent population (64 agents of the 8-state churn
// protocol, about 7/8 of interactions null), on each engine.
// "disabled" runs unobserved and must report 0 allocs/op; "observer"
// attaches a metrics-only observer and "observer+journal" additionally
// journals progress every 4096 interactions to a discarding sink, so
// the fused loop folds the observer's counters once per chunk.
func BenchmarkRunnerObsOverhead(b *testing.B) {
	const n = 64
	pr := churnProto(8)
	observers := []struct {
		name string
		mk   func() *obs.Observer
	}{
		{"disabled", func() *obs.Observer { return nil }},
		{"observer", func() *obs.Observer { return obs.NewObserver(n, false, obs.ObserverOptions{}) }},
		{"observer+journal", func() *obs.Observer {
			return obs.NewObserver(n, false, obs.ObserverOptions{Sink: obs.Discard, ProgressEvery: 4096})
		}},
	}
	for _, ob := range observers {
		b.Run("agent/"+ob.name, func(b *testing.B) {
			run := NewRunner(pr, sched.NewRandom(n, false, 1), core.NewConfig(n, 0))
			run.Obs = ob.mk()
			if !run.Compiled() {
				b.Fatal("compiled engine unavailable")
			}
			b.ReportAllocs()
			b.ResetTimer()
			if res := run.Run(b.N); res.Steps != b.N {
				b.Fatalf("ran %d of %d interactions", res.Steps, b.N)
			}
		})
		b.Run("count/"+ob.name, func(b *testing.B) {
			cc := core.NewCountConfig(8)
			cc.Counts[0] = n
			run, err := NewCountRunner(pr, cc, 1)
			if err != nil {
				b.Fatal(err)
			}
			run.Obs = ob.mk()
			b.ReportAllocs()
			b.ResetTimer()
			if res := run.Run(b.N); res.Steps != b.N {
				b.Fatalf("ran %d of %d interactions", res.Steps, b.N)
			}
		})
	}
}
