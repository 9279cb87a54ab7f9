// Package solver implements the iterative methods that motivate the
// paper's overhead analysis (Section IV-D): the Conjugate Gradient
// method and restarted GMRES, optionally Jacobi-preconditioned, built
// on a pluggable SpMV so the tuner's optimized kernels drop in. It
// also provides the amortization arithmetic of Table V: the minimum
// number of solver iterations for an optimizer's preprocessing cost to
// pay for itself.
//
// Every vector pass splits [0, n) into fixed blocks spread over
// GOMAXPROCS goroutines, so the passes around an out-of-cache SpMV use
// every core's share of the memory bus. CG fuses its vector work into
// three passes per iteration. Reductions sum each block serially and
// then the block sums in block order, so a solve returns the same bits
// at any GOMAXPROCS.
package solver

import (
	"errors"
	"math"
	"runtime"
	"sync"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// MulVec is the SpMV hook: y = A*x.
type MulVec func(x, y []float64)

// Options controls an iterative solve.
type Options struct {
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIters bounds the iteration count (default 10*n).
	MaxIters int
	// Precond, when non-nil, applies z = M^{-1} r.
	Precond func(r, z []float64)
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10 * n
	}
	return o
}

// Result reports a solve.
type Result struct {
	X         []float64
	Iters     int
	Residual  float64 // final relative residual ||b-Ax|| / ||b||
	Converged bool
}

// ErrBreakdown reports a numerical breakdown (zero denominators) in
// the Krylov recurrences.
var ErrBreakdown = errors.New("solver: numerical breakdown")

// block is the length of the runs every vector pass splits [0, n)
// into. It is the unit of parallel work and of summation order, sized
// so one run of a few vectors stays in L2 while a pass over a
// multi-megabyte vector still yields hundreds of runs to spread.
const block = 1 << 14

// forBlocks calls body(k, lo, hi) for every block k = [lo, hi) of
// [0, n). Contiguous runs of blocks go to min(GOMAXPROCS, blocks)
// goroutines, the first on the caller; with one block, or one P, the
// whole pass runs inline.
func forBlocks(n int, body func(k, lo, hi int)) {
	nb := (n + block - 1) / block
	run := func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			body(k, k*block, min((k+1)*block, n))
		}
	}
	w := min(runtime.GOMAXPROCS(0), nb)
	if w <= 1 {
		run(0, nb)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func(k0, k1 int) {
			defer wg.Done()
			run(k0, k1)
		}(g*nb/w, (g+1)*nb/w)
	}
	run(0, nb/w)
	wg.Wait()
}

// partials holds one partial sum per block of an n-vector. A
// reduction sums each block serially and then the block sums in block
// order, so it adds the same terms in the same order at any goroutine
// count, and for n <= block it is the plain serial sum.
type partials []float64

func newPartials(n int) partials { return make(partials, (n+block-1)/block) }

// sum returns the sum of f(lo, hi) over the blocks of [0, n).
func (ps partials) sum(n int, f func(lo, hi int) float64) float64 {
	forBlocks(n, func(k, lo, hi int) { ps[k] = f(lo, hi) })
	var s float64
	for _, v := range ps {
		s += v
	}
	return s
}

func (ps partials) dot(a, b []float64) float64 {
	return ps.sum(len(a), func(lo, hi int) float64 {
		a, b := a[lo:hi], b[lo:hi]
		var s float64
		for i, v := range a {
			s += v * b[i]
		}
		return s
	})
}

func (ps partials) norm2(a []float64) float64 { return math.Sqrt(ps.dot(a, a)) }

// residual sets r = b - ax and returns r·r.
func (ps partials) residual(b, ax, r []float64) float64 {
	return ps.sum(len(r), func(lo, hi int) float64 {
		b, ax, r := b[lo:hi], ax[lo:hi], r[lo:hi]
		var s float64
		for i := range r {
			r[i] = b[i] - ax[i]
			s += r[i] * r[i]
		}
		return s
	})
}

// axpy computes y += alpha*x.
func axpy(alpha float64, x, y []float64) {
	forBlocks(len(x), func(_, lo, hi int) {
		x, y := x[lo:hi], y[lo:hi]
		for i, v := range x {
			y[i] += alpha * v
		}
	})
}

// div computes dst = src / d.
func div(dst, src []float64, d float64) {
	forBlocks(len(src), func(_, lo, hi int) {
		dst, src := dst[lo:hi], src[lo:hi]
		for i, v := range src {
			dst[i] = v / d
		}
	})
}

// CG solves A x = b for symmetric positive definite A using the
// (optionally preconditioned) Conjugate Gradient method. An iteration
// makes three vector passes besides the multiply: p·Ap; x += αp,
// r -= αAp and r·r fused; and p = z + βp. Without a preconditioner z
// is r itself, so r·z is the r·r of the fused pass.
func CG(mul MulVec, b []float64, opts Options) (Result, error) {
	n := len(b)
	o := opts.withDefaults(n)
	ps := newPartials(n)
	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	// x0 = 0, so r0 = b and, unpreconditioned, p0 = r0.
	bb := ps.sum(n, func(lo, hi int) float64 {
		b, r, p := b[lo:hi], r[lo:hi], p[lo:hi]
		var s float64
		for i, v := range b {
			r[i], p[i] = v, v
			s += v * v
		}
		return s
	})
	bnorm := math.Sqrt(bb)
	if bnorm == 0 {
		return Result{X: x, Converged: true}, nil
	}
	z, rz := r, bb
	if o.Precond != nil {
		z = make([]float64, n)
		o.Precond(r, z)
		copy(p, z)
		rz = ps.dot(r, z)
	}
	res := 1.0
	for k := 0; k < o.MaxIters; k++ {
		mul(p, ap)
		pap := ps.dot(p, ap)
		if pap == 0 {
			return Result{X: x, Iters: k, Residual: ps.norm2(r) / bnorm}, ErrBreakdown
		}
		alpha := rz / pap
		rr := ps.sum(n, func(lo, hi int) float64 {
			x, r, p, ap := x[lo:hi], r[lo:hi], p[lo:hi], ap[lo:hi]
			var s float64
			for i := range r {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
				s += r[i] * r[i]
			}
			return s
		})
		res = math.Sqrt(rr) / bnorm
		if res < o.Tol {
			return Result{X: x, Iters: k + 1, Residual: res, Converged: true}, nil
		}
		rzNew := rr
		if o.Precond != nil {
			o.Precond(r, z)
			rzNew = ps.dot(r, z)
		}
		if rz == 0 {
			return Result{X: x, Iters: k + 1, Residual: res}, ErrBreakdown
		}
		beta := rzNew / rz
		rz = rzNew
		forBlocks(n, func(_, lo, hi int) {
			z, p := z[lo:hi], p[lo:hi]
			for i, v := range z {
				p[i] = v + beta*p[i]
			}
		})
	}
	return Result{X: x, Iters: o.MaxIters, Residual: res}, nil
}

// GMRES solves A x = b using restarted GMRES(restart) with modified
// Gram-Schmidt orthogonalization.
func GMRES(mul MulVec, b []float64, restart int, opts Options) (Result, error) {
	n := len(b)
	o := opts.withDefaults(n)
	if restart <= 0 {
		restart = 30
	}
	if restart > n {
		restart = n
	}
	ps := newPartials(n)
	x := make([]float64, n)
	r := make([]float64, n)
	tmp := make([]float64, n)

	bnorm := ps.norm2(b)
	if bnorm == 0 {
		return Result{X: x, Converged: true}, nil
	}

	// Krylov basis and Hessenberg storage.
	V := make([][]float64, restart+1)
	for i := range V {
		V[i] = make([]float64, n)
	}
	H := make([][]float64, restart+1)
	for i := range H {
		H[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	y := make([]float64, restart)

	totalIters := 0
	for totalIters < o.MaxIters {
		mul(x, tmp)
		beta := math.Sqrt(ps.residual(b, tmp, r))
		if beta/bnorm < o.Tol {
			return Result{X: x, Iters: totalIters, Residual: beta / bnorm, Converged: true}, nil
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		div(V[0], r, beta)

		k := 0
		for ; k < restart && totalIters < o.MaxIters; k++ {
			totalIters++
			// w = A v_k, orthogonalized against the basis.
			mul(V[k], tmp)
			w := tmp
			for j := 0; j <= k; j++ {
				H[j][k] = ps.dot(w, V[j])
				axpy(-H[j][k], V[j], w)
			}
			H[k+1][k] = ps.norm2(w)
			if H[k+1][k] != 0 {
				div(V[k+1], w, H[k+1][k])
			}
			// Apply accumulated Givens rotations to the new column.
			for j := 0; j < k; j++ {
				h0 := cs[j]*H[j][k] + sn[j]*H[j+1][k]
				H[j+1][k] = -sn[j]*H[j][k] + cs[j]*H[j+1][k]
				H[j][k] = h0
			}
			// New rotation annihilating H[k+1][k].
			denom := math.Hypot(H[k][k], H[k+1][k])
			if denom == 0 {
				return Result{X: x, Iters: totalIters, Residual: math.Abs(g[k]) / bnorm}, ErrBreakdown
			}
			cs[k] = H[k][k] / denom
			sn[k] = H[k+1][k] / denom
			H[k][k] = denom
			H[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1])/bnorm < o.Tol {
				k++
				break
			}
		}
		// Back-substitute y from H y = g and update x += V y.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= H[i][j] * y[j]
			}
			y[i] = s / H[i][i]
		}
		for j := 0; j < k; j++ {
			axpy(y[j], V[j], x)
		}
	}
	mul(x, tmp)
	res := math.Sqrt(ps.residual(b, tmp, r)) / bnorm
	return Result{X: x, Iters: totalIters, Residual: res, Converged: res < o.Tol}, nil
}

// Jacobi builds the diagonal preconditioner z = D^{-1} r for m. Zero
// diagonal entries pass through unpreconditioned.
func Jacobi(m *matrix.CSR) func(r, z []float64) {
	inv := make([]float64, m.NRows)
	for i := 0; i < m.NRows; i++ {
		inv[i] = 1
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			if int(m.ColInd[j]) == i && m.Val[j] != 0 {
				inv[i] = 1 / m.Val[j]
				break
			}
		}
	}
	return func(r, z []float64) {
		forBlocks(len(r), func(_, lo, hi int) {
			z, inv := z[lo:hi], inv[lo:hi]
			for i, v := range r[lo:hi] {
				z[i] = v * inv[i]
			}
		})
	}
}

// AmortizationIters computes the Table V quantity
//
//	N_iters,min = t_pre / (t_mkl - t_opt)
//
// the minimum number of solver iterations before an optimizer with
// preprocessing cost tPre and per-SpMV time tOpt beats the reference
// kernel with per-SpMV time tRef. It returns +Inf when the optimizer
// is not faster than the reference (it never amortizes).
func AmortizationIters(tPre, tRef, tOpt float64) float64 {
	if tOpt >= tRef {
		return math.Inf(1)
	}
	return tPre / (tRef - tOpt)
}
