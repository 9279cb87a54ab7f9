package native

// Route-and-result regression for the CSR kernel routing: every
// combination of the vectorize/prefetch/unroll flags, under a static
// and an adaptive schedule, on plain CSR and on SplitCSR, must name the
// body it runs and compute the reference product. Any flag routes to
// the dispatched gather body; only the flag-free plan runs scalar CSR.
// Under `-tags noasm` the same test pins the pure-Go fallback route.

import (
	"math"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// sameClass compares one output element under the oracle contract:
// non-finite results agree in class (NaN with NaN, infinities with
// equal sign), finite results within 1e-12 relative.
func sameClass(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

// routeInputs returns a finite x and one carrying NaN and ±Inf at a
// few columns, so non-finite propagation is checked on every route.
func routeInputs(n int) map[string][]float64 {
	finite := make([]float64, n)
	for i := range finite {
		finite[i] = float64(i%11) - 5 + 0.125*float64(i%3)
	}
	nonFinite := append([]float64(nil), finite...)
	nonFinite[n/7] = math.NaN()
	nonFinite[n/3] = math.Inf(1)
	nonFinite[n/2] = math.Inf(-1)
	return map[string][]float64{"finite": finite, "non-finite": nonFinite}
}

func TestCSRRouteAndResult(t *testing.T) {
	e := New()
	defer e.Close()
	vecName := "csr-vec8"
	if isa := kernels.ISA(); isa != "scalar" {
		vecName += "-" + isa
	}
	// A few dense rows among short ones: the split threshold extracts
	// long rows, and ragged lengths exercise every gather tail.
	m := gen.FewDenseRows(1500, 5, 3, 900, 31)
	if s := e.splitOf(m); s.NumLongRows() == 0 {
		t.Fatal("test matrix must split")
	}
	inputs := routeInputs(m.NCols)
	for mask := 0; mask < 8; mask++ {
		vec, pf, un := mask&1 != 0, mask&2 != 0, mask&4 != 0
		for _, pol := range []sched.Policy{sched.StaticNNZ, sched.Auto} {
			for _, split := range []bool{false, true} {
				o := ex.Optim{Vectorize: vec, Prefetch: pf, Unroll: un, Schedule: pol, Split: split}
				p := e.Prepare(m, o).(*Prepared)
				want := "csr"
				if vec || pf || un {
					want = vecName
				}
				if split {
					want = "split+" + want
				}
				if p.Kernel() != want {
					t.Fatalf("%v: kernel = %q, want %q", o, p.Kernel(), want)
				}
				for xname, x := range inputs {
					ref := make([]float64, m.NRows)
					m.MulVec(x, ref)
					got := make([]float64, m.NRows)
					p.MulVec(x, got)
					for i := range ref {
						if !sameClass(ref[i], got[i]) {
							t.Fatalf("%v/%s: y[%d] = %g, want %g", o, xname, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}
