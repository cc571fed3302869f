package explore_test

import (
	"sort"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/explore"
)

// TestRegistryParallelBuildDifferential builds the reachability graph
// of every registered protocol sequentially and with a worker pool and
// requires the results to be isomorphic: same node count, same edge
// count, and the same configuration key set. This is the end-to-end
// guarantee behind letting search and the CLIs pick any -workers value.
func TestRegistryParallelBuildDifferential(t *testing.T) {
	const p, n = 3, 3
	keys := experiments.RegistryKeys()
	if len(keys) != 8 {
		t.Fatalf("registry has %d protocols, test expects 8", len(keys))
	}
	for _, key := range keys {
		spec, err := experiments.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		proto := spec.New(p)
		starts := explore.AllConfigs(proto.States(), n, core.InitialLeader(proto))
		seq, err := explore.Build(proto, starts, explore.Options{})
		if err != nil {
			t.Fatalf("%s: sequential build: %v", key, err)
		}
		for _, w := range []int{2, 8} {
			par, err := explore.Build(proto, starts, explore.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", key, w, err)
			}
			if par.Size() != seq.Size() {
				t.Errorf("%s workers=%d: %d nodes, sequential %d", key, w, par.Size(), seq.Size())
			}
			if par.EdgeCount() != seq.EdgeCount() {
				t.Errorf("%s workers=%d: %d edges, sequential %d", key, w, par.EdgeCount(), seq.EdgeCount())
			}
			ks, kp := nodeKeys(seq), nodeKeys(par)
			for i := range ks {
				if ks[i] != kp[i] {
					t.Errorf("%s workers=%d: key sets differ at %d: %q vs %q", key, w, i, ks[i], kp[i])
					break
				}
			}
		}
	}
}

func nodeKeys(g *explore.Graph) []string {
	out := make([]string, 0, g.Size())
	for _, c := range g.Nodes {
		out = append(out, c.Key())
	}
	sort.Strings(out)
	return out
}
