package sim

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
)

// BenchmarkCorrupt measures the adversarial-corruption primitive used by
// the recovery experiments. The partial Fisher–Yates over a pooled index
// slice replaced r.Perm(n)[:k], which allocated and shuffled all n
// positions to pick k of them.
func BenchmarkCorrupt(b *testing.B) {
	const n, k = 1024, 32
	pr := naming.NewSelfStab(n)
	r := prng.New(9)
	cfg := core.NewConfig(n, 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = pr.RandomMobile(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Corrupt(pr, cfg, r, k, false)
	}
}
