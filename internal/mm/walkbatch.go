package mm

import "math"

// batchAVX2 reports whether stepBatch runs the AVX2 kernel. Tests clear it
// to walk the fallback.
var batchAVX2 = hasAVX2()

// stepBatch advances up to four walks of one to eight positive weights by n
// pages each, as steps does one walk: walk i's state is credit[i] and
// count[i]. With AVX2 the walks move in lockstep through stepsAVX2, each
// lane performing exactly the operations of stepsScalar, so every credit
// and count matches bit for bit; otherwise each walk takes its own kernel.
func stepBatch(wks []*walk, credit [][]float64, count [][]int64, n int) {
	if !batchAVX2 {
		for i, wk := range wks {
			wk.steps(credit[i], count[i], n)
		}
		return
	}
	var c, w [8][4]float64
	var cnt [8][4]int64
	inf := math.Inf(-1)
	for j := range c {
		c[j] = [4]float64{inf, inf, inf, inf}
	}
	for i, wk := range wks {
		for j, x := range wk.w {
			c[j][i], w[j][i] = credit[i][j], x
		}
	}
	stepsAVX2(&c, &cnt, &w, n)
	for i, wk := range wks {
		for j := range wk.w {
			credit[i][j] = c[j][i]
			count[i][j] += cnt[j][i]
		}
	}
}

// checkpointBatch extends up to four walks, which hold equally many
// checkpoints, to checkpoint k in lockstep, as checkpoint does one walk.
func checkpointBatch(wks []*walk, k int) {
	credit := make([][]float64, len(wks))
	count := make([][]int64, len(wks))
	for len(wks[0].cpCredit) <= k*len(wks[0].w) {
		for i, wk := range wks {
			m := len(wk.w)
			last := len(wk.cpCredit) - m
			wk.cpCredit = append(wk.cpCredit, wk.cpCredit[last:]...)
			wk.cpCount = append(wk.cpCount, wk.cpCount[last:]...)
			credit[i], count[i] = wk.cpCredit[last+m:], wk.cpCount[last+m:]
		}
		stepBatch(wks, credit, count, walkStride)
	}
}
