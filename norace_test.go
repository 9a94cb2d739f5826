//go:build !race

package javmm_test

// raceEnabled reports whether the race detector is compiled in; wall-time
// gates skip under it.
const raceEnabled = false
