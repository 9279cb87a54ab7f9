package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
)

// hostStamp identifies the machine and build a result was measured on.
type hostStamp struct {
	ISA             string  `json:"isa"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	LLCBytes        int64   `json:"llc_bytes"`
	LLCSource       string  `json:"llc_source"`
	StreamBytes     int64   `json:"stream_bytes"`
	StreamGBs       float64 `json:"stream_gbs"`
	WorkingSetBytes int64   `json:"working_set_bytes"`
}

// stampHost fills the static part of the stamp and measures STREAM
// triad bandwidth over arrays totalling at least four times the LLC,
// so the figure is main-memory bandwidth, not cache bandwidth.
func stampHost() hostStamp {
	h := hostStamp{
		ISA:        kernels.ISA(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	h.LLCBytes, h.LLCSource = llcBytes()
	elems := int((4*h.LLCBytes + 23) / 24) // three float64 arrays
	h.StreamBytes = int64(elems) * 24
	h.StreamGBs = native.StreamTriad(elems, h.GOMAXPROCS, 3)
	runtime.GC()
	debug.FreeOSMemory()
	return h
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (built outside a git checkout)"
}

// llcBytes is the size of the highest cache level the OS reports for
// cpu0, falling back to the library's host model.
func llcBytes() (int64, string) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		size := parseSize(strings.TrimSpace(string(sz)))
		if size > 0 && level >= bestLevel {
			best, bestLevel = size, level
		}
	}
	if best > 0 {
		return best, "sysfs L" + strconv.Itoa(bestLevel)
	}
	return machine.Host().LLCBytes(), "host model"
}

// parseSize reads sysfs cache sizes such as "107520K" or "2M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0
	}
	return v * mult
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// sameFloat is the repository's differential-oracle contract for one
// output element: non-finite values agree in class (NaN with NaN,
// infinities with equal sign), finite values within 1e-12 relative.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

// mismatch returns the first index where got disagrees with want, or -1.
func mismatch(want, got []float64) int {
	for i := range want {
		if !sameFloat(want[i], got[i]) {
			return i
		}
	}
	return -1
}
