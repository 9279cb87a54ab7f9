package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/serve"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

func TestServeExperiment(t *testing.T) {
	if raceEnabled {
		// Both modes pay the race detector per word of the callers'
		// vectors, so coalesced against sequential req/s compares
		// instrumentation, not coalescing, and fails on a busy host. The
		// un-instrumented throughput gate is CI's serve smoke; here the
		// coalesced load runs alone with every correctness invariant.
		eng, nat := newServeEngine()
		defer nat.Close()
		row, maxDiff, err := serveLoad(eng, suite.ByName(serveDefaultMatrix, 0.05), serve.DefaultMaxBatch, serveClients, servePerClient)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(serveClients * servePerClient); row.Requests != want {
			t.Fatalf("coalesced requests %d, want %d", row.Requests, want)
		}
		if row.MeanBatchWidth < 1 || row.MeanBatchWidth > float64(serve.DefaultMaxBatch) {
			t.Fatalf("coalesced mean batch width %.2f out of [1,%d]", row.MeanBatchWidth, serve.DefaultMaxBatch)
		}
		if maxDiff > 1e-12 {
			t.Fatalf("coalesced vectors deviate from the serial reference by %g", maxDiff)
		}
		return
	}
	res, err := Serve(Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix != serveDefaultMatrix {
		t.Fatalf("default matrix %q, want %q", res.Matrix, serveDefaultMatrix)
	}
	want := uint64(res.Clients * res.PerClient)
	if res.Sequential.Requests != want || res.Coalesced.Requests != want {
		t.Fatalf("request counts %d/%d, want %d", res.Sequential.Requests, res.Coalesced.Requests, want)
	}
	if res.Sequential.MeanBatchWidth != 1 {
		t.Fatalf("sequential mean batch width %.2f, want exactly 1", res.Sequential.MeanBatchWidth)
	}
	if res.Coalesced.MeanBatchWidth < 1 || res.Coalesced.MeanBatchWidth > 8 {
		t.Fatalf("coalesced mean batch width %.2f out of [1,8]", res.Coalesced.MeanBatchWidth)
	}
	// Serve itself errors on speedup < 1; the test only needs the
	// invariants above plus renderability.
	if res.Speedup <= 0 || res.MaxDiff > 1e-12 {
		t.Fatalf("speedup %.2f maxdiff %g", res.Speedup, res.MaxDiff)
	}
	tab := res.Table().String()
	for _, tok := range []string{"sequential", "coalesced", "req/s", "speedup"} {
		if !strings.Contains(tab, tok) {
			t.Fatalf("table missing %q:\n%s", tok, tab)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-serializable: %v", err)
	}
}

func TestServeExperimentBadMatrix(t *testing.T) {
	if _, err := Serve(Config{Scale: 0.05, Matrices: []string{"no-such-matrix"}}); err == nil {
		t.Fatal("unknown matrix accepted")
	}
	if _, err := Serve(Config{Scale: 0.05, Matrices: []string{"lap2d", "poisson3Db"}}); err == nil {
		t.Fatal("multiple matrices accepted")
	}
}
