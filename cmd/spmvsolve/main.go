// Command spmvsolve runs an iterative solver (CG or GMRES) whose SpMV
// uses the tuner's optimized native kernel — the application context
// that motivates the paper's overhead analysis (Section IV-D).
//
//	spmvsolve -gen poisson2d -n 40000            # CG on a 200x200 grid
//	spmvsolve -mtx system.mtx -method gmres
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/mmio"
	"github.com/sparsekit/spmvtuner/internal/solver"
)

func main() {
	var (
		mtxPath = flag.String("mtx", "", "Matrix Market system matrix")
		genKind = flag.String("gen", "", "synthetic system: poisson2d, poisson3d, banded")
		n       = flag.Int("n", 40000, "size for -gen")
		method  = flag.String("method", "cg", "solver: cg or gmres")
		tol     = flag.Float64("tol", 1e-8, "relative residual tolerance")
		maxIt   = flag.Int("maxiter", 0, "iteration cap (0 = 10n)")
		precond = flag.Bool("jacobi", true, "apply Jacobi preconditioning (cg only)")
	)
	flag.Parse()

	csr, err := load(*mtxPath, *genKind, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvsolve:", err)
		os.Exit(1)
	}
	if csr.NRows != csr.NCols {
		fmt.Fprintln(os.Stderr, "spmvsolve: system matrix must be square")
		os.Exit(1)
	}

	// Tune SpMV for this matrix on the host.
	m := wrap(csr)
	start := time.Now()
	tuned := spmvtuner.NewTuner().Tune(m)
	tuneTime := time.Since(start)
	fmt.Printf("matrix  %d x %d, %d nonzeros\n", csr.NRows, csr.NCols, csr.NNZ())
	fmt.Printf("tuned   classes %s, optimizations %s (%.1f ms)\n",
		tuned.Classes(), tuned.Optimizations(), tuneTime.Seconds()*1e3)

	b := make([]float64, csr.NRows)
	for i := range b {
		b[i] = 1
	}
	// The tuned kernel IS the solver's SpMV: for SPD systems the tuner
	// detects symmetry and routes every CG iteration through the
	// symmetric SSS storage path when the classifier deems it
	// bandwidth bound (the optimizations line above says which).
	// Timing every multiply splits the solve into SpMV and the solver's
	// own vector passes.
	var spmv time.Duration
	mul := func(x, y []float64) {
		t := time.Now()
		tuned.MulVec(x, y)
		spmv += time.Since(t)
	}
	opts := solver.Options{Tol: *tol, MaxIters: *maxIt}
	if *precond && *method == "cg" {
		opts.Precond = solver.Jacobi(csr)
	}

	start = time.Now()
	var res solver.Result
	switch *method {
	case "cg":
		res, err = solver.CG(mul, b, opts)
	case "gmres":
		res, err = solver.GMRES(mul, b, 30, opts)
	default:
		err = fmt.Errorf("unknown method %q", *method)
	}
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvsolve:", err)
		os.Exit(1)
	}
	fmt.Printf("solve   %s: %d iterations, residual %.3g, converged=%v, %.1f ms (%.1f ms in SpMV, %.1f ms in vector ops)\n",
		*method, res.Iters, res.Residual, res.Converged, elapsed.Seconds()*1e3,
		spmv.Seconds()*1e3, (elapsed-spmv).Seconds()*1e3)
}

func load(mtxPath, genKind string, n int) (*matrix.CSR, error) {
	switch {
	case mtxPath != "" && genKind != "":
		return nil, fmt.Errorf("use either -mtx or -gen, not both")
	case mtxPath != "":
		return mmio.ReadFile(mtxPath)
	case genKind == "poisson2d":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Poisson2D(side, side), nil
	case genKind == "poisson3d":
		side := 1
		for side*side*side < n {
			side++
		}
		return gen.Poisson3D(side, side, side), nil
	case genKind == "banded":
		return gen.Banded(n, 4, 1.0, 1), nil
	default:
		return nil, fmt.Errorf("provide -mtx FILE or -gen {poisson2d,poisson3d,banded}")
	}
}

// wrap converts an internal CSR into the public Matrix type via the
// builder (cmd binaries live inside the module, but the public API is
// what downstream users exercise — the solve path goes through it on
// purpose).
func wrap(csr *matrix.CSR) *spmvtuner.Matrix {
	b := spmvtuner.NewBuilder(csr.NRows, csr.NCols)
	for i := 0; i < csr.NRows; i++ {
		for j := csr.RowPtr[i]; j < csr.RowPtr[i+1]; j++ {
			b.Add(i, int(csr.ColInd[j]), csr.Val[j])
		}
	}
	return b.Build()
}
