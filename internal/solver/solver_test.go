package solver

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// spdMatrix builds a symmetric positive definite matrix: the 2D
// Poisson Laplacian.
func spdMatrix(g int) *matrix.CSR { return gen.Poisson2D(g, g) }

func residual(m *matrix.CSR, x, b []float64) float64 {
	ax := make([]float64, m.NRows)
	m.MulVec(x, ax)
	var num, den float64
	for i := range b {
		d := b[i] - ax[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestCGSolvesPoisson(t *testing.T) {
	m := spdMatrix(20)
	b := rhs(m.NRows, 1)
	res, err := CG(m.MulVec, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iters (res %g)", res.Iters, res.Residual)
	}
	if r := residual(m, res.X, b); r > 1e-8 {
		t.Fatalf("true residual %g too large", r)
	}
}

func TestCGWithJacobiConvergesAtLeastAsFast(t *testing.T) {
	m := spdMatrix(24)
	// Scale rows/cols to worsen conditioning so Jacobi has something
	// to fix: D*A*D with D log-uniform.
	n := m.NRows
	d := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range d {
		d[i] = math.Exp(rng.Float64()*4 - 2)
	}
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			coo.Add(i, int(m.ColInd[j]), d[i]*m.Val[j]*d[m.ColInd[j]])
		}
	}
	scaled := coo.ToCSR()
	b := rhs(n, 4)

	plain, err1 := CG(scaled.MulVec, b, Options{Tol: 1e-8, MaxIters: 5000})
	pre, err2 := CG(scaled.MulVec, b, Options{Tol: 1e-8, MaxIters: 5000, Precond: Jacobi(scaled)})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if !pre.Converged {
		t.Fatal("preconditioned CG did not converge")
	}
	if pre.Iters > plain.Iters {
		t.Fatalf("Jacobi CG took %d iters, plain %d", pre.Iters, plain.Iters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := spdMatrix(5)
	res, err := CG(m.MulVec, make([]float64, m.NRows), Options{})
	if err != nil || !res.Converged || res.Iters != 0 {
		t.Fatalf("zero rhs: %+v, %v", res, err)
	}
}

func TestCGIterationCap(t *testing.T) {
	for _, g := range []int{30, 182} { // 182² spans three blocks
		m := spdMatrix(g)
		b := rhs(m.NRows, 5)
		res, err := CG(m.MulVec, b, Options{Tol: 1e-14, MaxIters: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged || res.Iters != 3 {
			t.Fatalf("grid %d: cap ignored: %+v", g, res)
		}
		if r := residual(m, res.X, b); math.Abs(r-res.Residual) > 1e-12 {
			t.Fatalf("grid %d: reported residual %g, true %g", g, res.Residual, r)
		}
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	for _, n := range []int{300, 2*block + 3} {
		// Diagonally dominant nonsymmetric matrix.
		rng := rand.New(rand.NewSource(7))
		coo := matrix.NewCOO(n, n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 10+rng.Float64())
			for k := 0; k < 4; k++ {
				j := rng.Intn(n)
				if j != i {
					coo.Add(i, j, rng.NormFloat64()*0.5)
				}
			}
		}
		m := coo.ToCSR()
		b := rhs(n, 8)
		res, err := GMRES(m.MulVec, b, 30, Options{Tol: 1e-9, MaxIters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n %d: GMRES did not converge: %d iters, res %g", n, res.Iters, res.Residual)
		}
		if r := residual(m, res.X, b); r > 1e-7 {
			t.Fatalf("n %d: true residual %g", n, r)
		}
	}
}

func TestGMRESRestartStillConverges(t *testing.T) {
	m := spdMatrix(12)
	b := rhs(m.NRows, 9)
	res, err := GMRES(m.MulVec, b, 5, Options{Tol: 1e-8, MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted GMRES failed: %+v", res)
	}
	if r := residual(m, res.X, b); r > 1e-6 {
		t.Fatalf("true residual %g", r)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	m := spdMatrix(4)
	res, err := GMRES(m.MulVec, make([]float64, m.NRows), 10, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %+v, %v", res, err)
	}
}

func TestJacobiHandlesZeroAndMissingDiagonal(t *testing.T) {
	coo := matrix.NewCOO(3, 3)
	coo.Add(0, 0, 4)
	coo.Add(1, 2, 1) // no diagonal on row 1
	coo.Add(2, 2, 0) // explicit zero diagonal
	m := coo.ToCSR()
	pre := Jacobi(m)
	r := []float64{8, 3, 5}
	z := make([]float64, 3)
	pre(r, z)
	if z[0] != 2 || z[1] != 3 || z[2] != 5 {
		t.Fatalf("jacobi z = %v", z)
	}
}

func TestAmortizationIters(t *testing.T) {
	// 10 ms preprocessing, 1 ms -> 0.5 ms per SpMV: 20 iterations.
	if got := AmortizationIters(10e-3, 1e-3, 0.5e-3); math.Abs(got-20) > 1e-9 {
		t.Fatalf("amortization = %g, want 20", got)
	}
	if !math.IsInf(AmortizationIters(1, 1e-3, 1e-3), 1) {
		t.Fatal("equal times must never amortize")
	}
	if !math.IsInf(AmortizationIters(1, 1e-3, 2e-3), 1) {
		t.Fatal("slower optimizer must never amortize")
	}
}

// Property: CG converges on the SPD Poisson system for random right
// hand sides and the solution satisfies the system.
func TestCGConvergesQuick(t *testing.T) {
	m := spdMatrix(12)
	f := func(seed int64) bool {
		b := rhs(m.NRows, seed)
		res, err := CG(m.MulVec, b, Options{Tol: 1e-8, MaxIters: 4000})
		if err != nil || !res.Converged {
			return false
		}
		return residual(m, res.X, b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: CG and GMRES agree on SPD systems.
func TestCGAndGMRESAgreeQuick(t *testing.T) {
	m := spdMatrix(8)
	f := func(seed int64) bool {
		b := rhs(m.NRows, seed)
		cg, err1 := CG(m.MulVec, b, Options{Tol: 1e-10, MaxIters: 4000})
		gm, err2 := GMRES(m.MulVec, b, 20, Options{Tol: 1e-10, MaxIters: 4000})
		if err1 != nil || err2 != nil || !cg.Converged || !gm.Converged {
			return false
		}
		for i := range cg.X {
			if math.Abs(cg.X[i]-gm.X[i]) > 1e-5*(1+math.Abs(cg.X[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// tridiag is an SPD tridiagonal system of any order whose diagonal
// varies (2.5 + i mod 5 against off-diagonals -1), so Jacobi changes
// the iterates and CG converges in a few dozen iterations.
func tridiag(n int) *matrix.CSR {
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2.5+float64(i%5))
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	return coo.ToCSR()
}

// boundarySystems are systems whose order straddles the vector passes'
// block boundaries, plus a 33K-row Poisson grid.
func boundarySystems() map[string]*matrix.CSR {
	return map[string]*matrix.CSR{
		"block-1":     tridiag(block - 1),
		"block+1":     tridiag(block + 1),
		"2block+3":    tridiag(2*block + 3),
		"poisson-182": spdMatrix(182),
	}
}

// Iteration caps keep the race-instrumented runs of these large
// systems short.
const boundaryIters = 40

// textbookCG is the unfused preconditioned CG of the textbooks: one
// serial loop per vector operation, z a separate vector even without
// a preconditioner.
func textbookCG(m *matrix.CSR, b []float64, o Options) ([]float64, int) {
	dot := func(a, c []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * c[i]
		}
		return s
	}
	pre := o.Precond
	if pre == nil {
		pre = func(r, z []float64) { copy(z, r) }
	}
	n := len(b)
	x, r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	copy(r, b)
	pre(r, z)
	copy(p, z)
	bnorm := math.Sqrt(dot(b, b))
	rz := dot(r, z)
	for k := 0; k < o.MaxIters; k++ {
		m.MulVec(p, ap)
		alpha := rz / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(dot(r, r))/bnorm < o.Tol {
			return x, k + 1
		}
		pre(r, z)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, o.MaxIters
}

// TestCGMatchesTextbookOnBlockBoundaries pins the fused, block-ordered
// CG to the unfused serial one: the same iteration count and, since
// only the summation order differs, the same solution to 1e-10.
func TestCGMatchesTextbookOnBlockBoundaries(t *testing.T) {
	for name, m := range boundarySystems() {
		b := rhs(m.NRows, 11)
		for _, pre := range []func(r, z []float64){nil, Jacobi(m)} {
			o := Options{Tol: 1e-8, MaxIters: boundaryIters, Precond: pre}
			got, err := CG(m.MulVec, b, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, iters := textbookCG(m, b, o)
			if got.Iters != iters {
				t.Fatalf("%s (jacobi %v): %d iterations, textbook %d", name, pre != nil, got.Iters, iters)
			}
			var scale float64
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			for i := range want {
				if d := math.Abs(got.X[i] - want[i]); d > 1e-10*scale {
					t.Fatalf("%s (jacobi %v): x[%d] = %.17g, textbook %.17g", name, pre != nil, i, got.X[i], want[i])
				}
			}
		}
	}
}

// TestSolversReproducibleAcrossGOMAXPROCS: every reduction adds its
// block sums in block order, so CG, Jacobi CG and GMRES return the
// same bits however many goroutines ran the vector passes.
func TestSolversReproducibleAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, m := range boundarySystems() {
		b := rhs(m.NRows, 12)
		solvers := map[string]func() (Result, error){
			"cg": func() (Result, error) {
				return CG(m.MulVec, b, Options{Tol: 1e-14, MaxIters: boundaryIters})
			},
			"cg-jacobi": func() (Result, error) {
				return CG(m.MulVec, b, Options{Tol: 1e-14, MaxIters: boundaryIters, Precond: Jacobi(m)})
			},
			"gmres": func() (Result, error) {
				return GMRES(m.MulVec, b, 5, Options{Tol: 1e-14, MaxIters: boundaryIters})
			},
		}
		for sname, solve := range solvers {
			var ref Result
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := solve()
				if err != nil {
					t.Fatalf("%s %s GOMAXPROCS %d: %v", name, sname, procs, err)
				}
				if procs == 1 {
					ref = got
					continue
				}
				if got.Iters != ref.Iters || math.Float64bits(got.Residual) != math.Float64bits(ref.Residual) {
					t.Fatalf("%s %s GOMAXPROCS %d: iters %d residual %x, GOMAXPROCS 1: iters %d residual %x",
						name, sname, procs, got.Iters, math.Float64bits(got.Residual), ref.Iters, math.Float64bits(ref.Residual))
				}
				for i := range ref.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
						t.Fatalf("%s %s GOMAXPROCS %d: x[%d] = %x, GOMAXPROCS 1 gave %x",
							name, sname, procs, i, math.Float64bits(got.X[i]), math.Float64bits(ref.X[i]))
					}
				}
			}
		}
	}
}
