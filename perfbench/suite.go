package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	sp "github.com/sparsekit/spmvtuner"
)

// suiteNames covers every regime of the evaluation suite: a
// cache-resident dense corner, irregular FEM, power-law web graph,
// circuits with ultra-dense rows, regular banded FEM, clustered long
// rows, and a symmetric bandwidth-bound operator.
var suiteNames = []string{"small-dense", "poisson3Db", "webbase-1M", "ASIC_680k",
	"FEM_3D_thermal2", "consph", "circuit5M", "sym-fem"}

const (
	suiteScale  = 0.25
	suiteVecs   = 2  // seeded x vectors per matrix
	suiteWarmup = 3  // untimed MulVec calls after each tune
	suiteCalls  = 80 // timed MulVec calls after each tune
	minRounds   = 3  // cold tunes per matrix even when the time is up
	traceRounds = 3  // facade and traced cold tunes per matrix in a traced run
)

// benchMatrix is one workload matrix with its seeded input vectors and
// their reference products from the sequential kernel.
type benchMatrix struct {
	name string
	m    *sp.Matrix
	xs   [][]float64
	refs [][]float64
}

func (b *benchMatrix) flops() float64 { return 2 * float64(b.m.NNZ()) }

// workingSet is the CSR footprint plus one x and one y vector.
func (b *benchMatrix) workingSet() int64 {
	return int64(b.m.NNZ())*12 + int64(b.m.Rows()+1)*8 + int64(b.m.Rows()+b.m.Cols())*8
}

// loadMatrices builds the named suite matrices and nvec seeded vectors
// for each, in [-1, 1).
func loadMatrices(names []string, scale float64, nvec int, rng *rand.Rand) ([]*benchMatrix, error) {
	out := make([]*benchMatrix, 0, len(names))
	for _, n := range names {
		m, err := sp.SuiteMatrix(n, scale)
		if err != nil {
			return nil, err
		}
		b := &benchMatrix{name: n, m: m}
		for v := 0; v < nvec; v++ {
			x := make([]float64, m.Cols())
			for i := range x {
				x[i] = 2*rng.Float64() - 1
			}
			y := make([]float64, m.Rows())
			m.MulVec(x, y)
			b.xs = append(b.xs, x)
			b.refs = append(b.refs, y)
		}
		out = append(out, b)
	}
	return out, nil
}

// draw is one fresh cold tune: the plan the tuner chose and what it
// cost. The full list is printed so plan flips can be audited.
type draw struct {
	Workload string    `json:"workload"`
	Matrix   string    `json:"matrix"`
	Round    int       `json:"round"`
	Classes  string    `json:"classes"`
	Plan     string    `json:"plan"`
	ISA      string    `json:"isa"`
	TuneS    float64   `json:"tune_s"`
	CallS    []float64 `json:"-"`
}

func printDraw(d draw) {
	b, _ := json.Marshal(d)
	fmt.Printf("# draw %s\n", b)
}

// checkOutput compares one product with its reference and records the
// outcome.
func (e *env) checkOutput(what string, want, got []float64) {
	if i := mismatch(want, got); i >= 0 {
		e.fail("%s: y[%d] = %g, reference %g", what, i, got[i], want[i])
		return
	}
	e.ok(1)
}

// coldTune tunes b on a fresh Tuner whose plan store is dir, then runs
// the untimed warm-up and the timed calls and checks the last output.
func (e *env) coldTune(b *benchMatrix, dir string, round int, rng *rand.Rand) draw {
	tu := sp.NewTuner(sp.WithPlanStore(dir))
	defer tu.Close()
	t0 := time.Now()
	k := tu.Tune(b.m)
	d := draw{Workload: e.workload, Matrix: b.name, Round: round, TuneS: time.Since(t0).Seconds(),
		Classes: k.Classes(), Plan: k.Optimizations(), ISA: k.Info().KernelISA}
	e.host.ISA = d.ISA
	if k.Info().Warm {
		e.fail("%s: a fresh tuner reported a warm start", b.name)
	}
	v := rng.Intn(len(b.xs))
	y := make([]float64, b.m.Rows())
	for i := 0; i < suiteWarmup; i++ {
		k.MulVec(b.xs[v], y)
	}
	d.CallS = make([]float64, suiteCalls)
	for i := range d.CallS {
		t := time.Now()
		k.MulVec(b.xs[v], y)
		d.CallS[i] = time.Since(t).Seconds()
	}
	e.checkOutput(b.name, b.refs[v], y)
	e.ok(suiteWarmup + suiteCalls - 1)
	printDraw(d)
	return d
}

// warmTunes reopens each plan directory on a new Tuner, re-tunes every
// matrix from it, and returns per-matrix warm tune times and, per
// directory, the live heap with all of its kernels still resident.
func (e *env) warmTunes(ms []*benchMatrix, dirs []string) (warm map[string][]float64, mems []float64) {
	warm = map[string][]float64{}
	for _, dir := range dirs {
		tu := sp.NewTuner(sp.WithPlanStore(dir))
		keep := make([]*sp.Tuned, 0, len(ms))
		for _, b := range ms {
			t0 := time.Now()
			k := tu.Tune(b.m)
			warm[b.name] = append(warm[b.name], time.Since(t0).Seconds())
			if !k.Info().Warm {
				e.fail("%s: restart missed the plan store in %s", b.name, dir)
			}
			y := make([]float64, b.m.Rows())
			k.MulVec(b.xs[0], y)
			e.checkOutput(b.name+" (warm)", b.refs[0], y)
			keep = append(keep, k)
		}
		mems = append(mems, liveHeapMB())
		runtime.KeepAlive(keep)
		tu.Close()
	}
	return warm, mems
}

func runSuiteCold(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	ms, err := loadMatrices(suiteNames, suiteScale, suiteVecs, rng)
	if err != nil {
		return err
	}
	for _, b := range ms {
		e.host.WorkingSetBytes += b.workingSet()
	}

	draws := map[string][]draw{}
	var dirs []string
	start := time.Now()
	end := e.deadline(start)
	for r := 0; r < minRounds || time.Now().Before(end); r++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("plans-%d", r))
		dirs = append(dirs, dir)
		for _, i := range rng.Perm(len(ms)) {
			b := ms[i]
			draws[b.name] = append(draws[b.name], e.coldTune(b, dir, r, rng))
		}
	}
	warm, mems := e.warmTunes(ms, dirs)

	// Plans flip between fresh tunes, so per-draw rates and medians
	// are averaged over the draws: an expectation over the plans the
	// tuner picks. Each draw's rate rests on its median call, which
	// neighbours on a shared host disturb least. Set-up and solution
	// times are medians over the draws. Warm set-up and memory take
	// the leanest draw: the plans' conversions differ by more than any
	// bound, so a median would flip with them.
	var setup, warmSetup, solution, p50 float64
	var rates, allTunes, allWarm []float64
	for _, b := range ms {
		var tunes, sols, lat, d50, drate []float64
		for _, d := range draws[b.name] {
			tunes = append(tunes, d.TuneS)
			sols = append(sols, d.TuneS+sum(d.CallS))
			lat = append(lat, d.CallS...)
			d50 = append(d50, median(d.CallS))
			drate = append(drate, b.flops()/median(d.CallS)/1e9)
		}
		setup += median(tunes)
		warmSetup += minOf(warm[b.name])
		solution += median(sols)
		p50 += mean(d50)
		rates = append(rates, mean(drate))
		allTunes = append(allTunes, tunes...)
		allWarm = append(allWarm, warm[b.name]...)
		e.timing("mulvec_ms."+b.name, "ms", scale(lat, 1e3))
	}
	e.timing("cold_tune_s", "s", allTunes)
	e.timing("warm_tune_s", "s", allWarm)

	e.set("setup_s", setup, "s")
	e.set("warm_setup_s", warmSetup, "s")
	e.set("solution_s", solution, "s")
	e.set("spmv_gflops", geomean(rates), "Gflop/s")
	e.set("p50_ms", p50*1e3, "ms")
	e.set("mem_mb", minOf(mems), "MB")
	return nil
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// traceSuiteCold is the traced suite-cold run: the decision layers
// (bounds, classification, optimizer sweep, conversion), the plan
// store, and the kernel and pool layers under each matrix's modal plan.
func traceSuiteCold(e *env) error {
	e.zeroLayers()
	tp, err := e.probeTuning(suiteNames, suiteScale, traceRounds)
	if err != nil {
		return err
	}
	for _, pm := range tp.ms {
		e.host.WorkingSetBytes += pm.csr.Bytes() + int64(pm.csr.NRows+pm.csr.NCols)*8
	}
	e.reportTuning(tp)
	e.probeDecisions(tp)
	return nil
}
