package sim

import (
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/sched"
)

// The BENCH_PR7 suite: per-interaction cost of the count engine across
// four decades of population size (the flatness claim), the agent
// engine's ladder for comparison (it stops at 10⁶ — an agent array per
// step is exactly what the count engine exists to avoid), and one
// jump-chain event (draw plus weight update) in isolation across |Q|.

func benchCountScale(b *testing.B, n int) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = n
	r, err := NewCountRunner(pr, cc, 7)
	if err != nil {
		b.Fatal(err)
	}
	r.ensure()
	b.ReportAllocs()
	b.ResetTimer()
	res := r.run(b.N)
	b.StopTimer()
	if res.Steps != b.N {
		b.Fatalf("ran %d of %d steps (converged early?)", res.Steps, b.N)
	}
	b.ReportMetric(float64(res.NonNull)/float64(b.N), "nonnull/op")
}

// BenchmarkCountEngineScale measures per-interaction cost at
// N = 10⁴ … 10⁸ from an all-zero churn start. Nothing N-sized is ever
// touched; the cost per interaction follows the non-null share
// (nonnull/op), since the jump chain pays per non-null event and skips
// the nulls in bulk.
func BenchmarkCountEngineScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6, 1e7, 1e8} {
		b.Run(fmt.Sprintf("N=%.0e", float64(n)), func(b *testing.B) {
			benchCountScale(b, n)
		})
	}
}

// BenchmarkAgentEngineScale is the agent engine on the identical
// workload, for the BENCH_PR7 comparison table. It stops at 10⁶: above
// that the agent array and its cache misses are the story (10⁸ agents
// would need an 800 MB slice before the first step runs).
func BenchmarkAgentEngineScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("N=%.0e", float64(n)), func(b *testing.B) {
			pr := churnProto(8)
			cfg := core.NewConfig(n, 0)
			r := NewRunner(pr, sched.NewRandom(n, false, 7), cfg)
			if !r.Compiled() {
				b.Fatal("bench protocol did not compile")
			}
			b.ReportAllocs()
			b.ResetTimer()
			res := r.run(b.N)
			b.StopTimer()
			if res.Steps != b.N {
				b.Fatalf("ran %d of %d steps (converged early?)", res.Steps, b.N)
			}
		})
	}
}

// BenchmarkCountEvent isolates one jump-chain event at N = 10⁶ across
// state-space sizes: the weighted pair draw (initiator tree descent,
// responder row scan) and the weight updates of the transition it
// fires. On churn every event moves one agent along the diagonal, the
// sparse shape of the naming protocols.
func BenchmarkCountEvent(b *testing.B) {
	for _, q := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			tab := core.MustCompile(churnProto(q))
			counts := make([]int, q)
			for i := range counts {
				counts[i] = 1e6 / q
			}
			ev := newCountEvents(tab, counts, core.Leader{})
			rng := newCountRNG(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y, _ := ev.draw(rng.uint64n(ev.mobile), &rng)
				x2, y2 := tab.Mobile(x, y)
				if x2 != x {
					ev.move(x, x2)
				}
				if y2 != y {
					ev.move(y, y2)
				}
			}
		})
	}
}
