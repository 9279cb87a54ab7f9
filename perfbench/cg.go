package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	sp "github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/solver"
)

// cgScale is the suite scale of lap3d: 5.18M rows and 36M nonzeros, a
// 474 MB CSR, over four times the 105 MiB L3 of the reference host, so
// every multiply streams the matrix from memory.
const cgScale = 10

// cgPairs is the least number of (cold tune, solve) pairs a cg-lap3d
// run makes, so set-up time is a median even when the time is up.
const cgPairs = 3

// cgTraceRounds is the facade and traced cold tunes of lap3d in a
// traced run.
const cgTraceRounds = 2

// rhs draws a zero-mean right-hand side in [-1, 1).
func rhs(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// loadLap3d builds the cg-lap3d matrix and prints its size against the
// LLC.
func loadLap3d(e *env) (*sp.Matrix, error) {
	var m *sp.Matrix
	var err error
	lowGC(func() { m, err = sp.SuiteMatrix("lap3d", cgScale) })
	if err != nil {
		return nil, err
	}
	csr := int64(m.NNZ())*12 + int64(m.Rows()+1)*8
	e.host.WorkingSetBytes = csr + int64(m.Rows()+m.Cols())*8
	fmt.Printf("# cg-lap3d: %d rows, %d nnz; CSR %d bytes = %.2f x LLC (%d bytes); tolerance %g\n",
		m.Rows(), m.NNZ(), csr, float64(csr)/float64(e.host.LLCBytes), e.host.LLCBytes, e.cgTol)
	return m, nil
}

// solve is one CG solve through a tuned kernel: its iteration count,
// wall time, time inside the multiplies and per-iteration latencies.
type solve struct {
	iters    int
	wallS    float64
	spmvS    float64
	iterS    []float64
	residual float64
}

// cgSolve runs CG from x0 = 0 through mul, timing every multiply, and
// recomputes the final residual with ref, the sequential reference
// kernel.
func (e *env) cgSolve(ref, mul func(x, y []float64), b []float64) (solve, error) {
	var s solve
	var last time.Time
	timed := func(x, y []float64) {
		t := time.Now()
		if !last.IsZero() {
			s.iterS = append(s.iterS, t.Sub(last).Seconds())
		}
		last = t
		mul(x, y)
		s.spmvS += time.Since(t).Seconds()
	}
	t0 := time.Now()
	res, err := solver.CG(timed, b, solver.Options{Tol: e.cgTol})
	s.wallS = time.Since(t0).Seconds()
	s.iters = res.Iters
	if err != nil {
		return s, err
	}
	if !res.Converged {
		return s, fmt.Errorf("CG did not reach %g in %d iterations (residual %g)", e.cgTol, res.Iters, res.Residual)
	}
	s.residual = relResidual(ref, b, res.X)
	if s.residual > e.cgTol {
		return s, fmt.Errorf("reference residual %g above the tolerance %g (solver reported %g)", s.residual, e.cgTol, res.Residual)
	}
	return s, nil
}

// relResidual is ||b - A x|| / ||b||, with A applied by mul.
func relResidual(mul func(x, y []float64), b, x []float64) float64 {
	ax := make([]float64, len(b))
	mul(x, ax)
	var rr, bb float64
	for i, bi := range b {
		d := bi - ax[i]
		rr += d * d
		bb += bi * bi
	}
	return math.Sqrt(rr / bb)
}

func runCG(e *env) error {
	m, err := loadLap3d(e)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))

	// lap3d's plan flips between fresh tunes about half the time
	// between bodies 1.65x apart in SpMV time (and SSS plans hold over
	// twice the memory), and a run has room for only 5-6 draws: any
	// average over them would flip with the draw. So every figure but
	// set-up time (a median) is the run's best draw; the flips
	// themselves are the traced run's classify.* metrics.
	var tunes, sols, d50, rates, iterS, mems []float64
	var dirs []string
	start := time.Now()
	end := e.deadline(start)
	more := func() bool {
		return len(sols) > 0 && time.Now().Add(time.Duration(mean(sols)*float64(time.Second))).Before(end)
	}
	for p := 0; p < cgPairs || more(); p++ {
		b := rhs(rng, m.Rows())
		dir := filepath.Join(e.scratch, fmt.Sprintf("plans-%d", p))
		dirs = append(dirs, dir)
		tu := sp.NewTuner(sp.WithPlanStore(dir))
		t0 := time.Now()
		k := tu.Tune(m)
		tune := time.Since(t0).Seconds()
		e.host.ISA = k.Info().KernelISA
		printDraw(draw{Workload: e.workload, Matrix: "lap3d", Round: p, Classes: k.Classes(),
			Plan: k.Optimizations(), ISA: k.Info().KernelISA, TuneS: tune})
		mems = append(mems, liveHeapMB())

		y, ref := make([]float64, m.Rows()), make([]float64, m.Rows())
		k.MulVec(b, y)
		m.MulVec(b, ref)
		e.checkOutput("lap3d", ref, y)
		s, err := e.cgSolve(m.MulVec, k.MulVec, b)
		tu.Close()
		if err != nil {
			e.fail("lap3d solve %d: %v", p, err)
			continue
		}
		e.ok(1)
		fmt.Printf("# solve %d: %d iterations, %.3f s (%.3f s in SpMV), reference residual %.3e\n",
			p, s.iters, s.wallS, s.spmvS, s.residual)
		tunes = append(tunes, tune)
		sols = append(sols, tune+s.wallS)
		d50 = append(d50, median(s.iterS))
		rates = append(rates, 2*float64(m.NNZ())*float64(s.iters+1)/s.spmvS/1e9)
		iterS = append(iterS, s.iterS...)
	}
	if len(sols) == 0 {
		return fmt.Errorf("no solve converged")
	}

	var warm []float64
	for _, dir := range dirs {
		tu := sp.NewTuner(sp.WithPlanStore(dir))
		t0 := time.Now()
		k := tu.Tune(m)
		warm = append(warm, time.Since(t0).Seconds())
		if !k.Info().Warm {
			e.fail("lap3d: restart missed the plan store in %s", dir)
		}
		tu.Close()
	}

	e.timing("cold_tune_s", "s", tunes)
	e.timing("warm_tune_s", "s", warm)
	e.timing("solution_s", "s", sols)
	e.timing("cg_iteration_ms", "ms", scale(iterS, 1e3))
	e.set("setup_s", median(tunes), "s")
	e.set("warm_setup_s", minOf(warm), "s")
	e.set("solution_s", minOf(sols), "s")
	e.set("spmv_gflops", maxOf(rates), "Gflop/s")
	e.set("p50_ms", minOf(d50)*1e3, "ms")
	e.set("mem_mb", minOf(mems), "MB")
	return nil
}

// traceCG is the traced cg-lap3d run: the tuning layers on the
// out-of-cache matrix, then one CG solve through the modal plan's
// kernel with a span around every multiply, splitting the solve into
// SpMV and the solver's own vector operations.
func traceCG(e *env) error {
	e.zeroLayers()
	tp, err := e.probeTuning([]string{"lap3d"}, cgScale, cgTraceRounds)
	if err != nil {
		return err
	}
	pm := tp.ms[0]
	m := pm.csr
	e.host.WorkingSetBytes = m.Bytes() + int64(m.NRows+m.NCols)*8
	fmt.Printf("# cg-lap3d: CSR %d bytes = %.2f x LLC (%d bytes)\n", m.Bytes(), float64(m.Bytes())/float64(e.host.LLCBytes), e.host.LLCBytes)
	e.reportTuning(tp)
	e.probeDecisions(tp)

	nat := native.NewWithModel(machine.Host())
	defer nat.Close()
	k := nat.Prepare(m, pm.modalOpt())
	b := rhs(rand.New(rand.NewSource(e.seed)), m.NRows)
	root := e.spans.open("solver.CG", "cg", 0)
	mul := func(x, y []float64) { e.spanned("kernel.MulVec", "cg", root, func() { k.MulVec(x, y) }) }
	s, err := e.cgSolve(m.MulVec, mul, b)
	e.spans.close(root)
	if err != nil {
		e.fail("lap3d traced solve: %v", err)
		return nil
	}
	e.ok(1)
	e.layerSet("solver.iters", float64(s.iters))
	e.layerSet("solver.spmv_s", s.spmvS)
	e.layerSet("solver.vecops_s", s.wallS-s.spmvS)
	return nil
}
