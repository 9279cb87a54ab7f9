package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
)

// span is one timed call into a layer. Spans of one tune or one
// request share a trace id; parent is the id of the span that made the
// call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(name, trace string, parent int64) int64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// close ends span id and returns its duration in seconds.
func (t *tracer) close(id int64) float64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e9
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name, trace string, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// selfSeconds is span id's duration minus the time its direct children
// cover (children of one span never overlap here: calls are
// sequential).
func (t *tracer) selfSeconds(id int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	self := s.End - s.Start
	for _, c := range t.spans[id:] {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return float64(self) / 1e9
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedExec is the executor the facade's Tuner builds — a native
// executor over the host model — wrapped so every Run and Prepare the
// pipeline makes becomes a span under the current parent, with counts.
type tracedExec struct {
	nat    *native.Executor
	t      *tracer
	trace  string
	parent int64

	runs      int
	runS      float64
	prepS     float64
	prepBytes int64
}

var _ ex.PreparedExecutor = (*tracedExec)(nil)

func newTracedExec(t *tracer) *tracedExec {
	return &tracedExec{nat: native.NewWithModel(machine.Host()), t: t}
}

func (x *tracedExec) Machine() machine.Model { return x.nat.Machine() }

func (x *tracedExec) Run(cfg ex.Config) ex.Result {
	id := x.t.open("native.Run", x.trace, x.parent)
	r := x.nat.Run(cfg)
	x.runS += x.t.close(id)
	x.runs++
	return r
}

func (x *tracedExec) Prepare(m *matrix.CSR, o ex.Optim) ex.PreparedKernel {
	id := x.t.open("native.Prepare", x.trace, x.parent)
	k := x.nat.Prepare(m, o)
	x.prepS += x.t.close(id)
	if mb, ok := k.(interface{ MemBytes() int64 }); ok {
		x.prepBytes += mb.MemBytes()
	}
	return k
}

func (x *tracedExec) Close() error { return x.nat.Close() }

// spanned runs f inside a span and returns its duration in seconds.
func (e *env) spanned(name, trace string, parent int64, f func()) float64 {
	id := e.spans.open(name, trace, parent)
	f()
	return e.spans.close(id)
}
