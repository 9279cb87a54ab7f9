//go:build race

package matrix

import (
	"runtime"
	"unsafe"
)

// RaceReadRange reports a read of the whole vector v to the race
// detector. Code that reaches v only through uninstrumented loops —
// the assembly kernels, PackBlock and UnpackBlock — calls it (and
// RaceWriteRange) at its entry point, so a conflicting access to a
// caller's vector is still reported, at the granularity copy gets.
// Without the race detector both compile to nothing.
func RaceReadRange(v []float64) {
	if len(v) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&v[0]), len(v)*int(unsafe.Sizeof(v[0])))
	}
}

// RaceWriteRange reports a write of the whole vector v to the race
// detector; see RaceReadRange.
func RaceWriteRange(v []float64) {
	if len(v) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&v[0]), len(v)*int(unsafe.Sizeof(v[0])))
	}
}
