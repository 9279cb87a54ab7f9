package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	sp "github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise (the
// solver outside cg-lap3d, serving outside serve-open) reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.tune_s", "s"},
	{"core.self_s", "s"},
	{"matrix.fingerprint_s", "s"},
	{"matrix.symmetry_s", "s"},
	{"native.run_calls", "count"},
	{"native.run_s", "s"},
	{"native.prepare_s", "s"},
	{"native.prepare_mb", "MB"},
	{"planstore.warm_hit_ratio", "ratio"},
	{"planstore.warm_run_calls", "count"},
	{"classify.modal_share", "ratio"},
	{"classify.plans_distinct", "count"},
	{"opt.regret", "x"},
	{"opt.vs_csr", "x"},
	{"opt.vs_vec", "x"},
	{"opt.harm_count", "count"},
	{"native.mulvec_ns_per_nnz_p50", "ns"},
	{"native.mulvec_ns_per_nnz_p99", "ns"},
	{"native.pool_efficiency", "ratio"},
	{"native.barrier_share", "ratio"},
	{"sched.imbalance", "ratio"},
	{"kernels.seq_gflops", "Gflop/s"},
	{"kernels.bytes_per_flop", "B/flop"},
	{"kernels.gbs", "GB/s"},
	{"kernels.roofline_frac", "ratio"},
	{"solver.iters", "count"},
	{"solver.spmv_s", "s"},
	{"solver.vecops_s", "s"},
	{"serve.max_rps", "req/s"},
	{"serve.batch_width_mean", "count"},
	{"serve.kernel_busy_share", "ratio"},
	{"serve.due_ms_p99", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"serve.stats_us_p50", "us"},
	{"serve.stats_us_p99", "us"},
	{"serve.refused", "count"},
	{"serve.tunes", "count"},
	{"serve.warm_prepares", "count"},
	{"trace.overhead_share", "ratio"},
}

// zeroLayers starts a traced run with every per-layer metric present.
func (e *env) zeroLayers() {
	for _, m := range perLayer {
		e.set(m.name, 0, m.unit)
	}
}

// layerSet records a per-layer metric under its declared unit.
func (e *env) layerSet(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			e.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// tracedTune is one fresh cold tune through the hand-built pipeline.
type tracedTune struct {
	opt      ex.Optim
	plan     string
	classes  string
	tuneS    float64 // core.Pipeline.Prepare
	selfS    float64 // the same minus its native.Run/native.Prepare spans
	outerS   float64 // Prepare plus symmetry resolution, as the facade's Tune
	runs     int
	runS     float64
	prepS    float64
	prepByte int64
}

// probeMatrix is one matrix in both forms: the facade's, for timing
// Tuner.Tune untraced, and the internal CSR the hand-built pipeline
// runs on.
type probeMatrix struct {
	name   string
	csr    *matrix.CSR
	facade []float64 // facade Tune seconds
	tunes  []tracedTune
	plans  []string // every fresh plan, facade and traced
}

// tuningProbe is what the traced tuning phase measured over a
// workload's matrices.
type tuningProbe struct {
	ms []*probeMatrix
}

// probeTuning times fresh cold tunes of every named matrix, rounds
// times: once through the facade (untraced) and once through the
// pipeline the facade builds, traced. Matrices are built and dropped
// one at a time so the largest one is never resident twice.
func (e *env) probeTuning(names []string, scale float64, rounds int) (*tuningProbe, error) {
	tp := &tuningProbe{}
	for _, n := range names {
		var fm *sp.Matrix
		var err error
		lowGC(func() { fm, err = sp.SuiteMatrix(n, scale) })
		if err != nil {
			return nil, err
		}
		pm := &probeMatrix{name: n}
		for r := 0; r < rounds; r++ {
			tu := sp.NewTuner()
			t0 := time.Now()
			k := tu.Tune(fm)
			pm.facade = append(pm.facade, time.Since(t0).Seconds())
			pm.plans = append(pm.plans, k.Optimizations())
			printDraw(draw{Workload: e.workload, Matrix: n, Round: r, Classes: k.Classes(),
				Plan: k.Optimizations(), ISA: k.Info().KernelISA, TuneS: pm.facade[r]})
			tu.Close()
		}
		fm = nil
		runtime.GC()
		lowGC(func() { pm.csr = suite.ByName(n, scale) })
		tp.ms = append(tp.ms, pm)
	}
	for r := 0; r < rounds; r++ {
		store := planstore.New(planstore.DefaultCapacity)
		for _, pm := range tp.ms {
			t := e.tracedTune(pm, store, r)
			pm.tunes = append(pm.tunes, t)
			pm.plans = append(pm.plans, t.plan)
		}
		if r == rounds-1 {
			e.probeWarm(tp, store)
		}
	}
	return tp, nil
}

// tracedTune runs one cold tune of pm on a new pipeline over store.
func (e *env) tracedTune(pm *probeMatrix, store *planstore.Store, round int) tracedTune {
	x := newTracedExec(e.spans)
	defer x.Close()
	p := core.New(x)
	p.Store = store
	x.trace = fmt.Sprintf("tune/%s/%d", pm.name, round)
	outer := e.spans.open("tune", x.trace, 0)
	e.spanned("matrix.SymmetryKind", x.trace, outer, func() { pm.csr.SymmetryKind() })
	id := e.spans.open("core.Pipeline.Prepare", x.trace, outer)
	x.parent = id
	pl, _, warm := p.Prepare(pm.csr)
	t := tracedTune{tuneS: e.spans.close(id), selfS: e.spans.selfSeconds(id)}
	t.outerS = e.spans.close(outer)
	if warm {
		e.fail("%s: traced cold tune hit the plan store", pm.name)
	}
	t.opt, t.plan, t.classes = pl.Opt, pl.Opt.String(), pl.Classes.String()
	t.runs, t.runS, t.prepS, t.prepByte = x.runs, x.runS, x.prepS, x.prepBytes
	printDraw(draw{Workload: e.workload, Matrix: pm.name, Round: round, Classes: t.classes,
		Plan: t.plan, ISA: pl.KernelISA, TuneS: t.tuneS})
	return t
}

// probeWarm restarts the pipeline over the last round's store, as a
// new process reopening its plan directory would, and counts hits and
// measurements.
func (e *env) probeWarm(tp *tuningProbe, store *planstore.Store) {
	x := newTracedExec(e.spans)
	defer x.Close()
	p := core.New(x)
	p.Store = store
	hits := 0
	for _, pm := range tp.ms {
		x.trace = "warm/" + pm.name
		id := e.spans.open("core.Pipeline.Prepare", x.trace, 0)
		x.parent = id
		_, _, warm := p.Prepare(pm.csr)
		e.spans.close(id)
		if warm {
			hits++
		}
	}
	e.layerSet("planstore.warm_hit_ratio", float64(hits)/float64(len(tp.ms)))
	e.layerSet("planstore.warm_run_calls", float64(x.runs))
	if x.runs != 0 || hits != len(tp.ms) {
		e.fail("warm restart: %d of %d hits, %d measurements", hits, len(tp.ms), x.runs)
	}
}

// reportTuning turns the probe into the core, matrix, native, planstore,
// classify and trace metrics.
func (e *env) reportTuning(tp *tuningProbe) {
	var tune, self, outer, facade, runs, runS, prepS, prepMB, fpS, symS float64
	modal, total, distinct := 0, 0, 0
	for _, pm := range tp.ms {
		var ts, ss, outs, rc, rs, ps, pb []float64
		for _, t := range pm.tunes {
			ts = append(ts, t.tuneS)
			ss = append(ss, t.selfS)
			outs = append(outs, t.outerS)
			rc = append(rc, float64(t.runs))
			rs = append(rs, t.runS)
			ps = append(ps, t.prepS)
			pb = append(pb, float64(t.prepByte))
		}
		tune += median(ts)
		self += median(ss)
		outer += median(outs)
		facade += median(pm.facade)
		runs += median(rc)
		runS += median(rs)
		prepS += median(ps)
		prepMB += median(pb) / 1e6

		// On a fresh copy, so the detection is not cached. Fingerprint
		// resolves the kind itself; detecting first leaves its span
		// with the hash alone.
		c := pm.csr.Clone()
		c.Sym = matrix.SymUnknown
		symS += e.spanned("matrix.SymmetryKind", "fresh/"+pm.name, 0, func() { c.SymmetryKind() })
		fpS += e.spanned("matrix.Fingerprint", "fresh/"+pm.name, 0, func() { matrix.Fingerprint(c) })

		counts := map[string]int{}
		best := 0
		for _, p := range pm.plans {
			counts[p]++
			if counts[p] > best {
				best = counts[p]
			}
		}
		modal += best
		total += len(pm.plans)
		distinct += len(counts)
	}
	e.layerSet("core.tune_s", tune)
	e.layerSet("core.self_s", self)
	e.layerSet("matrix.fingerprint_s", fpS)
	e.layerSet("matrix.symmetry_s", symS)
	e.layerSet("native.run_calls", runs)
	e.layerSet("native.run_s", runS)
	e.layerSet("native.prepare_s", prepS)
	e.layerSet("native.prepare_mb", prepMB)
	e.layerSet("classify.modal_share", float64(modal)/float64(total))
	e.layerSet("classify.plans_distinct", float64(distinct)/float64(len(tp.ms)))
	e.layerSet("trace.overhead_share", (outer-facade)/facade)
	fmt.Printf("# tracing overhead: traced tune %.4f s vs facade Tune %.4f s (sum of per-matrix medians)\n", outer, facade)
}

// modalOpt is the most frequent plan among pm's traced tunes.
func (pm *probeMatrix) modalOpt() ex.Optim {
	counts := map[string]int{}
	best, bestN := pm.tunes[0].opt, 0
	for _, t := range pm.tunes {
		counts[t.plan]++
		if counts[t.plan] > bestN {
			best, bestN = t.opt, counts[t.plan]
		}
	}
	return best
}

// oracleIters is the measurement count per Run in the regret phase:
// more than the tuner's own so rates compare at lower noise.
const oracleIters = 5

// probeDecisions measures what each fresh plan is worth against the
// oracle's best, plain CSR and plain vec on one executor, and the
// kernel, pool and scheduling layers under the modal plan.
func (e *env) probeDecisions(tp *tuningProbe) {
	var regret, vsCSR, vsVec []float64
	harm := 0
	var nsPerNNZ, poolEff, barrier, imb, seq []float64
	var bytes, flops, callS float64
	for _, pm := range tp.ms {
		m := pm.csr
		nat := native.NewWithModel(machine.Host())
		nat.Iters = oracleIters
		tr := "decide/" + pm.name
		rate := func(o ex.Optim) float64 {
			var g float64
			e.spanned("native.Run", tr, 0, func() { g = nat.Run(ex.Config{Matrix: m, Opt: o}).Gflops })
			return g
		}
		var best ex.Optim
		e.spanned("opt.Oracle.Plan", tr, 0, func() { best = opt.NewOracle().Plan(nat, m).Opt })
		oracle := rate(best)
		csr1, csr2 := rate(ex.Optim{}), rate(ex.Optim{})
		csr := math.Max(csr1, csr2)
		noise := math.Max(0.05, math.Abs(csr1-csr2)/csr)
		vec := rate(ex.Optim{Vectorize: true})
		planRate := map[string]float64{}
		for _, t := range pm.tunes {
			g, ok := planRate[t.plan]
			if !ok {
				g = rate(t.opt)
				planRate[t.plan] = g
			}
			regret = append(regret, oracle/g)
			vsCSR = append(vsCSR, g/csr)
			vsVec = append(vsVec, g/vec)
			if g < csr*(1-noise) {
				harm++
			}
		}
		fmt.Printf("# decide %s: oracle %s %.3f Gflop/s, csr %.3f, vec %.3f, noise band %.1f%%, drawn plans %v\n",
			pm.name, best, oracle, csr, vec, noise*100, planRate)

		// Kernel and pool layers under the modal plan.
		o := pm.modalOpt()
		k := nat.Prepare(m, o)
		x := make([]float64, m.NCols)
		for i := range x {
			x[i] = 1 + float64(i%7)*0.125
		}
		y := make([]float64, m.NRows)
		calls := kernelCalls(m)
		for i := 0; i < 3; i++ {
			k.MulVec(x, y)
		}
		var lat []float64
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			k.MulVec(x, y)
			d := time.Since(t0).Seconds()
			e.spans.add("kernel.MulVec", tr, 0, t0, t0.Add(time.Duration(d*1e9)))
			lat = append(lat, d)
			nsPerNNZ = append(nsPerNNZ, d*1e9/float64(m.NNZ()))
		}
		mb := int64(m.Bytes())
		if pk, ok := k.(interface{ MemBytes() int64 }); ok {
			mb = pk.MemBytes()
		}
		b := float64(mb + int64(m.NRows+m.NCols)*8)
		bytes += b
		flops += 2 * float64(m.NNZ())
		callS += median(lat)

		var par, one ex.Result
		e.spanned("native.Run", tr, 0, func() { par = nat.Run(ex.Config{Matrix: m, Opt: o}) })
		e.spanned("native.Run", tr, 0, func() { one = nat.Run(ex.Config{Matrix: m, Opt: o, Threads: 1}) })
		nt := float64(len(par.ThreadSeconds))
		poolEff = append(poolEff, one.Seconds/(nt*par.Seconds))
		barrier = append(barrier, 1-sum(par.ThreadSeconds)/nt/par.Seconds)
		imb = append(imb, maxOf(par.ThreadSeconds)/median(par.ThreadSeconds))

		ref := make([]float64, m.NRows)
		var seqS []float64
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			m.MulVec(x, ref)
			seqS = append(seqS, time.Since(t0).Seconds())
		}
		seq = append(seq, 2*float64(m.NNZ())/median(seqS)/1e9)
		if i := mismatch(ref, y); i >= 0 {
			e.fail("%s: modal-plan kernel y[%d] = %g, reference %g", pm.name, i, y[i], ref[i])
		} else {
			e.ok(1)
		}
		nat.Close()
	}
	e.layerSet("opt.regret", geomean(regret))
	e.layerSet("opt.vs_csr", geomean(vsCSR))
	e.layerSet("opt.vs_vec", geomean(vsVec))
	e.layerSet("opt.harm_count", float64(harm))
	e.layerSet("native.mulvec_ns_per_nnz_p50", median(nsPerNNZ))
	e.layerSet("native.mulvec_ns_per_nnz_p99", percentile(nsPerNNZ, 99))
	e.layerSet("native.pool_efficiency", geomean(poolEff))
	e.layerSet("native.barrier_share", sum(barrier)/float64(len(barrier)))
	e.layerSet("sched.imbalance", geomean(imb))
	e.layerSet("kernels.seq_gflops", geomean(seq))
	e.layerSet("kernels.bytes_per_flop", bytes/flops)
	e.layerSet("kernels.gbs", bytes/callS/1e9)
	e.layerSet("kernels.roofline_frac", bytes/callS/1e9/e.host.StreamGBs)
	fmt.Printf("# kernels: %.0f bytes per multiply over the matrices (computed from sizes), %.4f s median multiply time summed; STREAM %.2f GB/s over %d bytes\n",
		bytes, callS, e.host.StreamGBs, e.host.StreamBytes)
}

// kernelCalls sizes the per-matrix timing loop to roughly 0.2 s of
// work, between 20 and 400 calls.
func kernelCalls(m *matrix.CSR) int {
	n := int(2e8 / float64(m.NNZ()+1))
	return min(max(n, 20), 400)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// lowGC runs a matrix generator with eager collection: generators
// stage entries in a COO list several times the final matrix, and
// collecting while it is live keeps the peak footprint low.
func lowGC(f func()) {
	old := debug.SetGCPercent(20)
	f()
	debug.SetGCPercent(old)
	debug.FreeOSMemory()
}
