//go:build !race

package matrix

// RaceReadRange and RaceWriteRange report whole-vector accesses under
// the race detector (race.go); without it they compile to nothing.
func RaceReadRange([]float64)  {}
func RaceWriteRange([]float64) {}
