package prng

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math/bits"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNewDrawsFromPCG: New(seed) and PCG(seed) are one stream.
func TestNewDrawsFromPCG(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		p, r := PCG(seed), New(seed)
		for i := 0; i < 100; i++ {
			if a, b := p.Uint64(), r.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: PCG %x, New %x", seed, i, a, b)
			}
		}
	}
}

// TestNearbySeedsUncorrelated: the first draws of consecutive seeds
// differ in half their bits on average, as independent words would.
func TestNearbySeedsUncorrelated(t *testing.T) {
	const seeds = 4096
	total := 0
	for s := int64(0); s < seeds; s++ {
		a, b := PCG(s), PCG(s+1)
		total += bits.OnesCount64(a.Uint64() ^ b.Uint64())
	}
	// Independent words: mean 32, standard error 4/√seeds = 0.0625.
	if mean := float64(total) / seeds; mean < 31.5 || mean > 32.5 {
		t.Fatalf("mean Hamming distance between consecutive seeds' first draws = %.2f, want ~32", mean)
	}
}

// TestPCGAllocatesNothing: a generator held by value costs no heap.
func TestPCGAllocatesNothing(t *testing.T) {
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		p := PCG(7)
		sink += p.Uint64()
	}); n != 0 {
		t.Fatalf("PCG allocates %v times per call", n)
	}
	_ = sink
}

// TestNoMathRandV1 keeps math/rand (v1) out of the program: every
// non-test file under internal/, cmd/ and examples/ draws from
// math/rand/v2 through this package, so the module has one RNG API and
// no generator pays v1's per-seed table.
func TestNoMathRandV1(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal", "cmd", "examples"} {
		root := filepath.Join("..", "..", dir)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
					t.Errorf("%s imports math/rand; use popnaming/internal/prng", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
