package core

import "testing"

// FuzzCompile feeds Compile random rule tables — including tables whose
// right-hand sides escape the state space and wrappers whose Symmetric()
// claim contradicts the rules — and checks that Compile accepts exactly
// the well-formed ones. On success the dense table must agree pointwise
// with the interface protocol, including the null bitset and the
// per-state row and column bitsets.
//
// RuleTable recomputes its symmetry flag on every Add, so its claim is
// always truthful; a lyingProtocol wrapper negating it is therefore
// always invalid, which gives an exact accept/reject oracle.
func FuzzCompile(f *testing.F) {
	f.Add(uint8(3), false, []byte{0, 1, 2, 1})
	f.Add(uint8(3), true, []byte{0, 1, 2, 1})
	f.Add(uint8(2), false, []byte{1, 1, 0, 0, 0, 1, 1, 1})
	f.Add(uint8(4), false, []byte{0, 1, 255, 0}) // out-of-range RHS
	f.Add(uint8(1), false, []byte{})
	f.Fuzz(func(t *testing.T, qRaw uint8, lie bool, data []byte) {
		q := 1 + int(qRaw%6)
		rt := NewRuleTable("fuzz", 2, q)
		outOfRange := false
		for i := 0; i+3 < len(data) && i < 64; i += 4 {
			lhsX := State(int(data[i]) % q)
			lhsY := State(int(data[i+1]) % q)
			// RHS drawn from [-1, q]: the two boundary values escape the
			// state space (RuleTable.Add does not validate outputs).
			rhsX := State(int(data[i+2])%(q+2) - 1)
			rhsY := State(int(data[i+3])%(q+2) - 1)
			rt.Add(lhsX, lhsY, rhsX, rhsY)
		}
		for x := 0; x < q; x++ {
			for y := 0; y < q; y++ {
				x2, y2 := rt.Mobile(State(x), State(y))
				if x2 < 0 || int(x2) >= q || y2 < 0 || int(y2) >= q {
					outOfRange = true
				}
			}
		}
		var proto Protocol = rt
		if lie {
			proto = lyingProtocol{rt, !rt.Symmetric()}
		}
		c, err := Compile(proto)
		wantErr := outOfRange || lie
		if (err != nil) != wantErr {
			t.Fatalf("Compile err=%v, want error %v (q=%d, lie=%v, outOfRange=%v)", err, wantErr, q, lie, outOfRange)
		}
		if err != nil {
			return
		}
		for x := 0; x < q; x++ {
			for y := 0; y < q; y++ {
				wx, wy := rt.Mobile(State(x), State(y))
				gx, gy := c.Mobile(State(x), State(y))
				if gx != wx || gy != wy {
					t.Fatalf("(%d,%d): compiled (%d,%d), interface (%d,%d)", x, y, gx, gy, wx, wy)
				}
				null := IsNullMobile(rt, State(x), State(y))
				if c.Null(State(x), State(y)) != null {
					t.Fatalf("(%d,%d): null bitset disagrees with IsNullMobile", x, y)
				}
				inRow := c.Row(State(x))[y>>6]&(1<<(y&63)) != 0
				inCol := c.Col(State(y))[x>>6]&(1<<(x&63)) != 0
				if inRow == null || inCol == null {
					t.Fatalf("(%d,%d): row %v / column %v bitsets disagree with null=%v", x, y, inRow, inCol, null)
				}
			}
		}
		if c.Symmetric() != rt.Symmetric() {
			t.Fatal("symmetry flag not preserved")
		}
	})
}
