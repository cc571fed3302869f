package core

import (
	"testing"

	"popnaming/internal/prng"
)

func benchConfig(n, q int) *Config {
	rng := prng.New(42)
	cfg := NewConfig(n, 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = State(rng.IntN(q))
	}
	return cfg
}

// BenchmarkConfigKey measures the identity-preserving dedup key. The
// strconv.AppendInt encoder replaced a fmt-based builder; the one
// remaining allocation is the returned string itself.
func BenchmarkConfigKey(b *testing.B) {
	cfg := benchConfig(64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.Key()
	}
}

// BenchmarkConfigAppendKey is the allocation-free path used by the
// explorer's interning hot loop (reused buffer, map lookup on
// string(buf)).
func BenchmarkConfigAppendKey(b *testing.B) {
	cfg := benchConfig(64, 16)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = cfg.AppendKey(buf[:0])
	}
}

// BenchmarkConfigMultisetKey measures the canonical (sorted) key, now
// produced by a counting sort over the state domain instead of cloning
// and sort.Slice-ing the agent vector.
func BenchmarkConfigMultisetKey(b *testing.B) {
	cfg := benchConfig(64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.MultisetKey()
	}
}

func BenchmarkConfigAppendMultisetKey(b *testing.B) {
	cfg := benchConfig(64, 16)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = cfg.AppendMultisetKey(buf[:0])
	}
}
