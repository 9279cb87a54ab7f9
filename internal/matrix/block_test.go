package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func randomCSR(t *testing.T, n, deg int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		d := rng.Intn(deg + 1)
		for k := 0; k < d; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func TestPackUnpackBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 3, 4, 5, 8} {
		xs := make([][]float64, k)
		for l := range xs {
			xs[l] = make([]float64, 17)
			for j := range xs[l] {
				xs[l][j] = rng.NormFloat64()
			}
		}
		b := PackBlock(nil, xs)
		if len(b) != 17*k {
			t.Fatalf("k=%d: packed length %d, want %d", k, len(b), 17*k)
		}
		// Interleaved: element j of vector l at j*k+l.
		if b[3*k+(k-1)] != xs[k-1][3] {
			t.Fatalf("k=%d: layout not interleaved", k)
		}
		ys := make([][]float64, k)
		for l := range ys {
			ys[l] = make([]float64, 17)
		}
		UnpackBlock(ys, b)
		for l := range xs {
			for j := range xs[l] {
				if ys[l][j] != xs[l][j] {
					t.Fatalf("k=%d: round trip changed [%d][%d]", k, l, j)
				}
			}
		}
		// Steady-state reuse must not reallocate.
		b2 := PackBlock(b, xs)
		if &b2[0] != &b[0] {
			t.Fatalf("k=%d: PackBlock reallocated a sufficient buffer", k)
		}
	}
}

func TestPackBlockRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackBlock accepted ragged vectors")
		}
	}()
	PackBlock(nil, [][]float64{make([]float64, 3), make([]float64, 4)})
}

// TestMulMatMatchesPerVector anchors the blocked reference: for every
// k, MulMat must equal k independent MulVec calls exactly (same
// operations in the same order per vector).
func TestMulMatMatchesPerVector(t *testing.T) {
	m := randomCSR(t, 120, 9, 3)
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 8, 11} {
		xs := make([][]float64, k)
		want := make([][]float64, k)
		for l := 0; l < k; l++ {
			xs[l] = make([]float64, m.NCols)
			for j := range xs[l] {
				xs[l][j] = rng.NormFloat64()
			}
			want[l] = make([]float64, m.NRows)
			m.MulVec(xs[l], want[l])
		}
		xb := PackBlock(nil, xs)
		yb := make([]float64, m.NRows*k)
		m.MulMat(xb, yb, k)
		for l := 0; l < k; l++ {
			for i := 0; i < m.NRows; i++ {
				if got := yb[i*k+l]; math.Abs(got-want[l][i]) > 1e-12*(1+math.Abs(want[l][i])) {
					t.Fatalf("k=%d: y[%d][%d] = %g, want %g", k, l, i, got, want[l][i])
				}
			}
		}
	}
}

func TestAliasedDetectsOverlap(t *testing.T) {
	buf := make([]float64, 40)
	cases := []struct {
		name string
		x, y []float64
		want bool
	}{
		{"identical", buf[:20], buf[:20], true},
		{"partial overlap", buf[:20], buf[8:28], true},
		{"y inside x", buf[:40], buf[10:20], true},
		{"disjoint windows", buf[:20], buf[20:40], false},
		{"distinct buffers", make([]float64, 20), make([]float64, 20), false},
		{"empty x", buf[:0], buf[:20], false},
	}
	for _, c := range cases {
		if got := Aliased(c.x, c.y); got != c.want {
			t.Errorf("%s: Aliased = %v, want %v", c.name, got, c.want)
		}
		if got := Aliased(c.y, c.x); got != c.want {
			t.Errorf("%s (swapped): Aliased = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMulVecAliasPanics(t *testing.T) {
	m := randomCSR(t, 30, 4, 9)
	v := make([]float64, 30)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec accepted aliased input and output")
		}
	}()
	m.MulVec(v, v)
}

func TestMulMatAliasPanics(t *testing.T) {
	m := randomCSR(t, 30, 4, 9)
	v := make([]float64, 30*4)
	defer func() {
		if recover() == nil {
			t.Fatal("MulMat accepted aliased input and output")
		}
	}()
	m.MulMat(v, v, 4)
}

// TestAnyAliasedBothPaths drives the direct pairwise scan and the
// sorted-sweep path (batch > 64) over the same shapes.
func TestAnyAliasedBothPaths(t *testing.T) {
	mk := func(n, vlen int, overlapAt int, shared []float64) ([][]float64, [][]float64) {
		xs := make([][]float64, n)
		ys := make([][]float64, n)
		for i := range xs {
			xs[i] = make([]float64, vlen)
			ys[i] = make([]float64, vlen)
		}
		if overlapAt >= 0 {
			xs[overlapAt] = shared[:vlen]
			ys[(overlapAt+n/2)%n] = shared[2 : vlen+2]
		}
		return xs, ys
	}
	shared := make([]float64, 34)
	for _, n := range []int{8, 200} { // direct and sorted paths
		if xs, ys := mk(n, 32, -1, nil); AnyAliased(xs, ys) {
			t.Fatalf("n=%d: disjoint batch reported aliased", n)
		}
		if xs, ys := mk(n, 32, n/3, shared); !AnyAliased(xs, ys) {
			t.Fatalf("n=%d: cross-pair partial overlap missed", n)
		}
		// Output-output sharing is not an input/output alias.
		xs, ys := mk(n, 32, -1, nil)
		ys[0] = ys[n-1]
		if AnyAliased(xs, ys) {
			t.Fatalf("n=%d: output-output sharing misreported as input/output alias", n)
		}
	}
}
