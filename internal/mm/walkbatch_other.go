//go:build !amd64

package mm

// hasAVX2 is false off amd64: stepBatch walks each walk alone.
func hasAVX2() bool { return false }

// stepsAVX2 exists only on amd64.
func stepsAVX2(credit *[8][4]float64, count *[8][4]int64, w *[8][4]float64, n int) {
	panic("mm: no AVX2 walk kernel on this architecture")
}
