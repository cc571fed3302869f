package explore

import (
	"errors"
	"sort"
	"testing"

	"popnaming/internal/core"
)

// relabel maps every sequential node id to the parallel graph's id for
// the same configuration, failing the test on any mismatch.
func relabel(t *testing.T, seq, par *Graph) []int {
	t.Helper()
	if par.Size() != seq.Size() {
		t.Fatalf("node counts differ: sequential %d, parallel %d", seq.Size(), par.Size())
	}
	m := make([]int, seq.Size())
	for v, c := range seq.Nodes {
		id := par.NodeID(c)
		if id < 0 {
			t.Fatalf("sequential node %d (%s) missing from parallel graph", v, c)
		}
		m[v] = id
	}
	return m
}

// assertIsomorphic checks that par is seq modulo node-id relabeling:
// same configuration set, and for every node the same label-ordered
// edge structure mapped through the relabeling.
func assertIsomorphic(t *testing.T, seq, par *Graph) {
	t.Helper()
	m := relabel(t, seq, par)
	if got, want := par.EdgeCount(), seq.EdgeCount(); got != want {
		t.Fatalf("edge counts differ: sequential %d, parallel %d", want, got)
	}
	if len(seq.Start) != len(par.Start) {
		t.Fatalf("start counts differ: %d vs %d", len(seq.Start), len(par.Start))
	}
	for i, v := range seq.Start {
		if m[v] != par.Start[i] {
			t.Fatalf("start %d maps to %d, parallel has %d", i, m[v], par.Start[i])
		}
	}
	for v, edges := range seq.Succ {
		pv := m[v]
		pedges := par.Succ[pv]
		if len(edges) != len(pedges) {
			t.Fatalf("node %d: %d edges sequential, %d parallel", v, len(edges), len(pedges))
		}
		for i, e := range edges {
			pe := pedges[i]
			if pe.Label != e.Label || pe.Ordered != e.Ordered || pe.To != m[e.To] {
				t.Fatalf("node %d edge %d: sequential %+v (to key %s), parallel %+v",
					v, i, e, seq.Nodes[e.To], pe)
			}
		}
	}
}

func diffProtocols() []*core.RuleTable {
	return []*core.RuleTable{
		core.NewRuleTable("bw", 4, 2).
			AddSymmetric(0, 0, 1, 1).
			AddSymmetric(0, 1, 1, 0),
		core.NewRuleTable("oneway", 3, 3). // asymmetric: both orientations
							Add(0, 1, 0, 0).
							Add(1, 2, 2, 2).
							Add(2, 0, 1, 0),
		core.NewRuleTable("chain", 4, 4).
			AddSymmetric(0, 0, 1, 1).
			AddSymmetric(1, 1, 2, 2).
			AddSymmetric(2, 2, 3, 3).
			AddSymmetric(0, 3, 3, 0),
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, pr := range diffProtocols() {
		starts := AllConfigs(pr.States(), 4)
		seq, err := Build(pr, starts, Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", pr.Name(), err)
		}
		for _, w := range []int{2, 4, 8} {
			par, err := Build(pr, starts, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pr.Name(), w, err)
			}
			assertIsomorphic(t, seq, par)
			if par.Stats.Workers != w {
				t.Errorf("%s: Stats.Workers = %d, want %d", pr.Name(), par.Stats.Workers, w)
			}
			if par.Stats.Depth != seq.Stats.Depth {
				t.Errorf("%s workers=%d: depth %d, sequential %d",
					pr.Name(), w, par.Stats.Depth, seq.Stats.Depth)
			}
		}
	}
}

func TestParallelBuildCanonicalMatchesSequential(t *testing.T) {
	pr := core.NewRuleTable("bw", 5, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	starts := []*core.Config{core.NewConfigStates(1, 0, 0, 0, 0)}
	seq, err := Build(pr, starts, Options{Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(pr, starts, Options{Canonical: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIsomorphic(t, seq, par)
	vs, vp := seq.CheckGlobal(Naming), par.CheckGlobal(Naming)
	if vs.OK != vp.OK {
		t.Fatalf("verdicts disagree: sequential %v, parallel %v", vs.OK, vp.OK)
	}
}

func TestParallelBuildNodeLimit(t *testing.T) {
	pr := core.NewRuleTable("inc3", 4, 4).
		Add(0, 0, 0, 1).Add(1, 1, 1, 2).Add(2, 2, 2, 3).
		Add(0, 1, 1, 1).Add(1, 2, 2, 2).Add(2, 3, 3, 3).
		Add(1, 0, 1, 1).Add(2, 1, 2, 2).Add(3, 2, 3, 3)
	starts := []*core.Config{core.NewConfigStates(0, 0, 0)}
	for _, w := range []int{2, 8} {
		_, err := Build(pr, starts, Options{MaxNodes: 2, Workers: w})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("workers=%d: err = %v, want ErrTooLarge", w, err)
		}
	}
	// The budget is a property of the reachable set, not the schedule:
	// a limit just large enough must succeed at every worker count.
	seq, err := Build(pr, starts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		g, err := Build(pr, starts, Options{MaxNodes: seq.Size(), Workers: w})
		if err != nil {
			t.Fatalf("workers=%d at exact budget: %v", w, err)
		}
		if g.Size() != seq.Size() {
			t.Fatalf("workers=%d: %d nodes, want %d", w, g.Size(), seq.Size())
		}
	}
}

func TestBuildStatsSequential(t *testing.T) {
	pr := core.NewRuleTable("bw", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(1, 0, 0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats
	if s.Workers != 1 {
		t.Errorf("Workers = %d, want 1", s.Workers)
	}
	if int(s.InternMisses) != g.Size() {
		t.Errorf("InternMisses = %d, want Size %d", s.InternMisses, g.Size())
	}
	if int(s.InternHits+s.InternMisses) != g.EdgeCount()+len(g.Start) {
		t.Errorf("lookups = %d, want edges+starts = %d",
			s.InternHits+s.InternMisses, g.EdgeCount()+len(g.Start))
	}
	if s.Depth < 1 {
		t.Errorf("Depth = %d, want >= 1", s.Depth)
	}
	if len(s.ShardNodes) != 1 || s.ShardNodes[0] != g.Size() {
		t.Errorf("ShardNodes = %v, want [%d]", s.ShardNodes, g.Size())
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("HitRate = %v, want in (0,1)", s.HitRate())
	}
	if s.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", s.WallNS)
	}
}

func TestBuildStatsParallelShards(t *testing.T) {
	pr := core.NewRuleTable("bw", 4, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	g, err := Build(pr, AllConfigs(2, 4), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats
	total := 0
	for _, n := range s.ShardNodes {
		total += n
	}
	if total != g.Size() {
		t.Errorf("shard node counts sum to %d, want %d", total, g.Size())
	}
	if int(s.InternMisses) != g.Size() {
		t.Errorf("InternMisses = %d, want %d", s.InternMisses, g.Size())
	}
	if int(s.InternHits+s.InternMisses) != g.EdgeCount()+len(g.Start) {
		t.Errorf("lookups = %d, want edges+starts = %d",
			s.InternHits+s.InternMisses, g.EdgeCount()+len(g.Start))
	}
	min, max := s.ShardBalance()
	if min > max {
		t.Errorf("ShardBalance min %d > max %d", min, max)
	}
}

// TestNodeIDZeroAlloc pins the scratch-buffer lookup path: NodeID must
// not allocate, on sequential and parallel graphs alike (search loops
// may call it once per candidate).
func TestNodeIDZeroAlloc(t *testing.T) {
	pr := core.NewRuleTable("bw", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	starts := AllConfigs(2, 3)
	probe := core.NewConfigStates(1, 1, 0)
	for _, w := range []int{1, 4} {
		g, err := Build(pr, starts, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		g.NodeID(probe) // warm the scratch buffer
		if allocs := testing.AllocsPerRun(100, func() {
			if g.NodeID(probe) < 0 {
				t.Fatal("probe configuration should be reachable")
			}
		}); allocs != 0 {
			t.Errorf("workers=%d: NodeID allocates %v times per call, want 0", w, allocs)
		}
	}
}

// TestFrontierCompaction drives a deep sequential BFS through the
// compaction path (head > 1024) and cross-checks against a parallel
// build — a guard on the popped-head bookkeeping.
func TestFrontierCompaction(t *testing.T) {
	pr := core.NewRuleTable("chain6", 6, 6)
	for s := 0; s < 5; s++ {
		pr.AddSymmetric(core.State(s), core.State(s), core.State(s+1), core.State(s+1))
		pr.Add(core.State(s), core.State(s+1), core.State(s+1), core.State(s+1))
		pr.Add(core.State(s+1), core.State(s), core.State(s+1), core.State(s+1))
	}
	starts := AllConfigs(6, 5)
	seq, err := Build(pr, starts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Size() <= 1024 {
		t.Fatalf("graph too small (%d nodes) to exercise compaction", seq.Size())
	}
	par, err := Build(pr, starts, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIsomorphic(t, seq, par)
}

func sortedKeys(g *Graph) []string {
	keys := make([]string, 0, g.Size())
	for _, c := range g.Nodes {
		keys = append(keys, c.Key())
	}
	sort.Strings(keys)
	return keys
}

func TestParallelKeySetMatches(t *testing.T) {
	pr := core.NewRuleTable("bw", 4, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	starts := AllConfigs(2, 4)
	seq, _ := Build(pr, starts, Options{})
	par, err := Build(pr, starts, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ks, kp := sortedKeys(seq), sortedKeys(par)
	if len(ks) != len(kp) {
		t.Fatalf("key set sizes differ: %d vs %d", len(ks), len(kp))
	}
	for i := range ks {
		if ks[i] != kp[i] {
			t.Fatalf("key sets differ at %d: %q vs %q", i, ks[i], kp[i])
		}
	}
}
