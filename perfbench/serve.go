package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sp "github.com/sparsekit/spmvtuner"
)

// The serve-open traffic: four suite-cold matrices of different regimes
// under a fixed skewed mix. The nominal rate was set once on the
// reference host to about half of what the server sustains there, so it
// is kept up with; the rates do not change with the seed.
var (
	serveNames   = []string{"small-dense", "poisson3Db", "webbase-1M", "sym-fem"}
	serveWeights = []float64{0.4, 0.3, 0.2, 0.1}
	serveLadder  = []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6}
)

const (
	serveVecs      = 8     // seeded x vectors per matrix
	serveNominal   = 120.0 // requests per second at the nominal rate
	serveLimitMs   = 50.0  // p99 latency limit of the ladder, from due time
	serveBurst     = 256   // requests in the cold-start burst
	serveCheckN    = 4     // every n-th request's output is checked
	serveMaxQueued = 4000  // in-flight requests at which a phase stops issuing
	serveQueue     = 8192  // per-matrix queue depth, above serveMaxQueued
	statsEvery     = 5 * time.Millisecond
	serveRungSecs  = 1.5 // length of one ladder rung
)

// arrival is one scheduled request.
type arrival struct {
	due time.Duration // from the phase start
	mi  int           // matrix index
	v   int           // x vector index
}

// schedule draws Poisson arrivals at rate for dur, with the fixed mix.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, pick(rng, time.Duration(t*float64(time.Second))))
	}
}

// pick draws one request of the mix, due at due.
func pick(rng *rand.Rand, due time.Duration) arrival {
	u, mi := rng.Float64(), 0
	for mi < len(serveWeights)-1 && u >= serveWeights[mi] {
		u -= serveWeights[mi]
		mi++
	}
	return arrival{due: due, mi: mi, v: rng.Intn(serveVecs)}
}

// reqRecord is what one request observed. late is how far behind its
// due time the generator submitted it.
type reqRecord struct {
	issued   bool
	lateS    float64
	submitS  float64 // submit to completion
	dueS     float64 // due time to completion
	err      error
	mismatch bool
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	rate     float64
	arrivals []arrival
	recs     []reqRecord
	aborted  bool // the backlog reached serveMaxQueued
	wallS    float64
}

func (p phaseResult) latencies(f func(r reqRecord) float64) []float64 {
	var out []float64
	for _, r := range p.recs {
		if r.issued && r.err == nil {
			out = append(out, f(r))
		}
	}
	return out
}

func (p phaseResult) failures() int {
	n := 0
	for _, r := range p.recs {
		if r.issued && (r.err != nil || r.mismatch) {
			n++
		}
	}
	return n
}

// serveRig is the serving side of a run: the matrices, their reference
// outputs and per-matrix pools of output buffers.
type serveRig struct {
	ms     []*benchMatrix
	bufs   []chan []float64
	spans  *tracer // nil with tracing off
	phases int
}

func newServeRig(ms []*benchMatrix) *serveRig {
	r := &serveRig{ms: ms}
	r.dropBuffers()
	return r
}

// dropBuffers empties the output-buffer pools, so the heap read after a
// set-up holds the library's state and not the benchmark's buffers.
func (r *serveRig) dropBuffers() {
	r.bufs = r.bufs[:0]
	for range r.ms {
		r.bufs = append(r.bufs, make(chan []float64, serveMaxQueued)) // one per possible in-flight request
	}
}

func (r *serveRig) buffer(mi int) []float64 {
	select {
	case y := <-r.bufs[mi]:
		return y
	default:
		return make([]float64, r.ms[mi].m.Rows())
	}
}

func (r *serveRig) release(mi int, y []float64) {
	select {
	case r.bufs[mi] <- y:
	default:
	}
}

// run plays the arrivals open loop against srv from one generator
// goroutine: each request is submitted at its due time on its own
// goroutine, whether or not earlier ones have completed.
func (r *serveRig) run(srv *sp.Server, arrivals []arrival, rate float64) phaseResult {
	res := phaseResult{rate: rate, arrivals: arrivals, recs: make([]reqRecord, len(arrivals))}
	r.phases++
	phase := r.phases
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i, a := range arrivals {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= serveMaxQueued {
			res.aborted = true
			break
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			defer inflight.Add(-1)
			b := r.ms[a.mi]
			y := r.buffer(a.mi)
			submit := time.Now()
			err := srv.MulVec(b.name, b.xs[a.v], y)
			done := time.Now()
			rec := reqRecord{issued: true, err: err,
				lateS:   submit.Sub(start.Add(a.due)).Seconds(),
				submitS: done.Sub(submit).Seconds(),
				dueS:    done.Sub(start.Add(a.due)).Seconds()}
			if err == nil && i%serveCheckN == 0 {
				rec.mismatch = mismatch(b.refs[a.v], y) >= 0
			}
			res.recs[i] = rec
			r.release(a.mi, y)
			if r.spans != nil {
				tr := fmt.Sprintf("req/%d/%d", phase, i)
				root := r.spans.add("loadgen.request", tr, 0, start.Add(a.due), done)
				r.spans.add("serve.Server.MulVec", tr, root, submit, done)
			}
		}(i, a)
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	return res
}

// account adds a phase's requests to the run's counts.
func (e *env) account(what string, p phaseResult) {
	for _, rec := range p.recs {
		switch {
		case !rec.issued:
		case rec.err != nil:
			if errors.Is(rec.err, sp.ErrServerBusy) {
				e.refused++
			}
			e.fail("%s: request error: %v", what, rec.err)
		case rec.mismatch:
			e.fail("%s: served output disagrees with the reference", what)
		default:
			e.ok(1)
		}
	}
}

// statsPoller calls Server.Stats concurrently with the traffic, as a
// monitoring reader would, and records each call's latency.
type statsPoller struct {
	stop chan struct{}
	done chan struct{}
	lat  []float64
}

func pollStats(srv *sp.Server) *statsPoller {
	p := &statsPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				t := time.Now()
				srv.Stats()
				p.lat = append(p.lat, time.Since(t).Seconds())
			}
		}
	}()
	return p
}

// halt stops the poller and waits for it to exit.
func (p *statsPoller) halt() []float64 {
	close(p.stop)
	<-p.done
	return p.lat
}

// serverSetup builds a Tuner over dir, a Server over it, and registers
// and warms every matrix, returning the time that took.
func (r *serveRig) serverSetup(dir string) (*sp.Tuner, *sp.Server, float64, error) {
	t0 := time.Now()
	tu := sp.NewTuner(sp.WithPlanStore(dir))
	srv := sp.NewServer(tu, sp.ServerConfig{QueueDepth: serveQueue})
	for _, b := range r.ms {
		if err := srv.Register(b.name, b.m); err != nil {
			srv.Close()
			tu.Close()
			return nil, nil, 0, err
		}
	}
	for _, b := range r.ms {
		if err := srv.Warm(b.name); err != nil {
			srv.Close()
			tu.Close()
			return nil, nil, 0, err
		}
	}
	return tu, srv, time.Since(t0).Seconds(), nil
}

// flops is the useful work of a phase's answered requests.
func (r *serveRig) flops(p phaseResult) float64 {
	f := 0.0
	for i, rec := range p.recs {
		if rec.issued && rec.err == nil {
			f += r.ms[p.arrivals[i].mi].flops()
		}
	}
	return f
}

// burst submits n requests at once and returns how long answering all
// of them took.
func (r *serveRig) burst(srv *sp.Server, rng *rand.Rand, n int) phaseResult {
	arr := make([]arrival, n)
	for i := range arr {
		arr[i] = pick(rng, 0)
	}
	return r.run(srv, arr, 0)
}

// nominalPhase is the traffic at the nominal rate on one server, with
// the server's counters at its start and end.
type nominalPhase struct {
	phaseResult
	before, after []sp.ServerStats
}

// nominal plays the nominal rate on srv for dur.
func (e *env) nominal(r *serveRig, srv *sp.Server, rng *rand.Rand, dur time.Duration) nominalPhase {
	n := nominalPhase{before: srv.Stats()}
	n.phaseResult = r.run(srv, schedule(rng, serveNominal, dur), serveNominal)
	n.after = srv.Stats()
	e.account("nominal", n.phaseResult)
	return n
}

// rung plays one ladder rate on srv for the rung's share of the run.
func (e *env) rung(r *serveRig, srv *sp.Server, rng *rand.Rand, rate float64) phaseResult {
	dur := time.Duration(serveRungSecs * float64(time.Second))
	p := r.run(srv, schedule(rng, rate, dur), rate)
	e.account(fmt.Sprintf("ladder %.0f req/s", rate), p)
	fmt.Printf("# rung %.0f req/s: %d requests, p99 %.3f ms from due, %d failed, aborted %v\n",
		rate, len(p.latencies(dueLatency)), rungP99(p), p.failures(), p.aborted)
	return p
}

func rungP99(p phaseResult) float64 { return percentile(p.latencies(dueLatency), 99) * 1e3 }

// ladderDone reports whether the ladder should stop climbing: the
// backlog ran away, a request failed, the last rung's p99 is over twice
// the limit, or two rungs in a row missed the limit. Beyond that point
// only the queue grows.
func ladderDone(ladder []phaseResult) bool {
	n := len(ladder)
	if n == 0 {
		return false
	}
	last := ladder[n-1]
	if last.aborted || last.failures() > 0 || rungP99(last) > 2*serveLimitMs {
		return true
	}
	return n >= 2 && rungP99(last) > serveLimitMs && rungP99(ladder[n-2]) > serveLimitMs
}

func dueLatency(r reqRecord) float64    { return r.dueS }
func submitLatency(r reqRecord) float64 { return r.submitS }
func lateness(r reqRecord) float64      { return r.lateS }

// maxRate is the highest rate meeting the p99 limit. One rung's p99
// rests on a few samples, so the log of p99 over the limit is first
// made non-decreasing in the rate (pool-adjacent-violators), then
// interpolated to where it crosses zero; a rung with a failure or a
// runaway backlog counts as missing the limit.
func maxRate(ladder []phaseResult) float64 {
	type block struct{ sum, n float64 }
	var fit []block
	for _, p := range ladder {
		v := math.Log(rungP99(p) / serveLimitMs)
		if p.aborted || p.failures() > 0 {
			v = math.Max(v, math.Log(2))
		}
		fit = append(fit, block{v, 1})
		for len(fit) > 1 && fit[len(fit)-2].sum/fit[len(fit)-2].n > fit[len(fit)-1].sum/fit[len(fit)-1].n {
			a, b := fit[len(fit)-2], fit[len(fit)-1]
			fit = append(fit[:len(fit)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	var f []float64
	for _, b := range fit {
		for i := 0; i < int(b.n); i++ {
			f = append(f, b.sum/b.n)
		}
	}
	for i, v := range f {
		if v <= 0 {
			continue
		}
		if i == 0 {
			return ladder[0].rate / math.Exp(v)
		}
		a, b := ladder[i-1].rate, ladder[i].rate
		return a + (b-a)*(0-f[i-1])/(v-f[i-1])
	}
	return ladder[len(ladder)-1].rate
}

// busyDelta is the kernel time the server spent between two Stats
// snapshots, derived from its cumulative flops and achieved rate, with
// the requests and batches it served.
func busyDelta(before, after []sp.ServerStats) (busyS float64, requests, batches uint64) {
	busy := func(st sp.ServerStats) float64 {
		if st.AchievedGflops <= 0 {
			return 0
		}
		return 2 * float64(st.NNZ) * float64(st.Requests) / st.AchievedGflops / 1e9
	}
	for i := range after {
		busyS += busy(after[i]) - busy(before[i])
		requests += after[i].Requests - before[i].Requests
		batches += after[i].Batches - before[i].Batches
	}
	return busyS, requests, batches
}

// serveRun is the full serve-open measurement, shared by the untraced
// and traced runs.
type serveRun struct {
	setups, warms, sols, mems []float64
	burstGflops               []float64      // served rate of each cold-start burst
	nominals                  []nominalPhase // one per cold set-up
	ladder                    []phaseResult  // rung i on server i
	statsS                    []float64      // Stats call latencies
}

// serveOpen sets a server up cold once per ladder rung, each on a
// fresh plan directory, so every figure averages over the plans the
// set-ups drew. Each server answers a burst and carries its share of
// the nominal-rate traffic; with climb it then plays the next ladder
// rung until the ladder is done. Then every plan directory is reopened
// warm.
func (e *env) serveOpen(climb bool) (*serveRun, error) {
	rng := rand.New(rand.NewSource(e.seed))
	ms, err := loadMatrices(serveNames, suiteScale, serveVecs, rng)
	if err != nil {
		return nil, err
	}
	for _, b := range ms {
		e.host.WorkingSetBytes += b.workingSet()
	}
	r := newServeRig(ms)
	r.spans = e.spans
	out := &serveRun{}
	var dirs []string
	share := time.Duration(e.seconds / float64(len(serveLadder)) * float64(time.Second))
	for i, f := range serveLadder {
		dir := filepath.Join(e.scratch, fmt.Sprintf("plans-%d", i))
		dirs = append(dirs, dir)
		r.dropBuffers()
		tu, srv, setup, err := r.serverSetup(dir)
		if err != nil {
			return nil, err
		}
		for _, st := range srv.Stats() {
			printDraw(draw{Workload: e.workload, Matrix: st.Name, Round: i, Plan: st.Plan, ISA: e.host.ISA, TuneS: setup})
		}
		out.mems = append(out.mems, liveHeapMB())
		b := r.burst(srv, rng, serveBurst)
		e.account("burst", b)
		out.setups = append(out.setups, setup)
		out.sols = append(out.sols, setup+b.wallS)
		out.burstGflops = append(out.burstGflops, r.flops(b)/b.wallS/1e9)

		poller := pollStats(srv)
		out.nominals = append(out.nominals, e.nominal(r, srv, rng, share))
		if climb && !ladderDone(out.ladder) {
			out.ladder = append(out.ladder, e.rung(r, srv, rng, f*serveNominal))
		}
		out.statsS = append(out.statsS, poller.halt()...)
		srv.Close()
		tu.Close()
	}

	for _, dir := range dirs {
		tu, srv, setup, err := r.serverSetup(dir)
		if err != nil {
			return nil, err
		}
		for _, st := range srv.Stats() {
			if st.Tunes != 0 || st.WarmPrepares != 1 {
				e.fail("%s: restart tuned %d times and warm-prepared %d times, want 0 and 1", st.Name, st.Tunes, st.WarmPrepares)
			}
		}
		out.warms = append(out.warms, setup)
		srv.Close()
		tu.Close()
	}
	return out, nil
}

func runServe(e *env) error {
	s, err := e.serveOpen(false)
	if err != nil {
		return err
	}
	// The median latency is averaged over the set-ups' nominal shares,
	// an expectation over the plans drawn. The rate is the median over
	// the set-ups' bursts, which one server sharing its CPUs with a
	// noisy neighbour does not move. Warm set-up and memory take the
	// leanest draw.
	var d50, due []float64
	for _, n := range s.nominals {
		lat := n.latencies(dueLatency)
		d50 = append(d50, median(lat))
		due = append(due, lat...)
	}
	e.timing("setup_s", "s", s.setups)
	e.timing("warm_setup_s", "s", s.warms)
	e.timing("solution_s", "s", s.sols)
	e.timing("nominal_due_ms", "ms", scale(due, 1e3))
	e.set("setup_s", median(s.setups), "s")
	e.set("warm_setup_s", minOf(s.warms), "s")
	e.set("solution_s", mean(s.sols), "s")
	e.set("spmv_gflops", median(s.burstGflops), "Gflop/s")
	e.set("p50_ms", mean(d50)*1e3, "ms")
	e.set("mem_mb", minOf(s.mems), "MB")
	return nil
}

// traceServe is the traced serve-open run: the same traffic plus the
// rate ladder, with a span per request (due time to completion, and
// the Server.MulVec call inside it), the serving layer's counters, then
// the tuning layers over the four matrices.
func traceServe(e *env) error {
	e.zeroLayers()
	s, err := e.serveOpen(true)
	if err != nil {
		return err
	}
	e.layerSet("serve.max_rps", maxRate(s.ladder))
	var busy, wall float64
	var requests, batches, tunes, warm uint64
	var due, sub, late []float64
	for _, n := range s.nominals {
		b, rq, bt := busyDelta(n.before, n.after)
		busy += b
		wall += n.wallS
		requests += rq
		batches += bt
		due = append(due, n.latencies(dueLatency)...)
		sub = append(sub, n.latencies(submitLatency)...)
		late = append(late, n.latencies(lateness)...)
		for _, st := range n.after {
			tunes += st.Tunes
			warm += st.WarmPrepares
		}
	}
	e.layerSet("serve.batch_width_mean", float64(requests)/float64(batches))
	e.layerSet("serve.kernel_busy_share", busy/wall)
	e.layerSet("serve.due_ms_p99", percentile(due, 99)*1e3)
	e.layerSet("serve.submit_ms_p50", median(sub)*1e3)
	e.layerSet("serve.submit_ms_p99", percentile(sub, 99)*1e3)
	e.layerSet("loadgen.late_ms_p99", percentile(late, 99)*1e3)
	e.layerSet("serve.stats_us_p50", median(s.statsS)*1e6)
	e.layerSet("serve.stats_us_p99", percentile(s.statsS, 99)*1e6)
	e.layerSet("serve.refused", float64(e.refused))
	e.layerSet("serve.tunes", float64(tunes))
	e.layerSet("serve.warm_prepares", float64(warm))

	tp, err := e.probeTuning(serveNames, suiteScale, traceRounds)
	if err != nil {
		return err
	}
	e.reportTuning(tp)
	e.probeDecisions(tp)
	return nil
}
