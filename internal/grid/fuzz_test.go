package grid

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzGridSpec feeds arbitrary bytes to Parse — grid specs come from
// outside the program — and checks what an accepted spec promises: it
// expands to exactly the product of its axis lengths, cell indices are
// distinct and seeds nonzero, and re-encoding the parsed spec and
// parsing it again yields the same cells.
func FuzzGridSpec(f *testing.F) {
	f.Add([]byte(minimalSpec))
	f.Add([]byte(`{"name":"q","protocols":["asym","selfstab"],"engines":["agent"],"populations":[{"p":6,"n":4},{"p":6,"n":6}],"scheds":["random"],"inits":["zero"],"faults":["","@100:corrupt=2"],"trials":5,"budget":500000,"seed":42}`))
	f.Add([]byte(`{"protocols":["counting","globalp"],"engines":["agent","count"],"populations":[{"p":4,"n":4}],"inits":["zero","uniform"],"seed":-7}`))
	f.Add([]byte(`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"faults":["@1:corrupt=1"]}`))
	f.Add([]byte(`{"protocols":["asym"],"populations":[]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		want := len(sp.Protocols) * len(sp.Engines) * len(sp.Populations) *
			len(sp.Scheds) * len(sp.Inits) * len(sp.Faults)
		if want > 4096 {
			t.Skip("cell product too large to expand")
		}
		cells := sp.Cells()
		if len(cells) != want {
			t.Fatalf("%d cells, want the axis product %d", len(cells), want)
		}
		seen := make(map[int]bool, len(cells))
		for _, c := range cells {
			if seen[c.Index] {
				t.Fatalf("duplicate cell index %d", c.Index)
			}
			seen[c.Index] = true
			if c.Seed == 0 {
				t.Fatalf("cell %d has seed 0", c.Index)
			}
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		sp2, err := Parse(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(sp2.Cells(), cells) {
			t.Fatalf("re-encoded spec %s expands to different cells", enc)
		}
	})
}
