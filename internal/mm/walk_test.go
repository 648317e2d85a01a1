package mm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bwap/internal/stats"
)

// referenceSteps is the walk step as a plain scan over the credit slice —
// the loop the width kernels replaced, kept verbatim as their reference.
func referenceSteps(w, credit []float64, count []int64, n int) int {
	w = w[:len(credit)]
	best := -1
	for ; n > 0; n-- {
		best = 0
		top := credit[0] + w[0]
		credit[0] = top
		for j := 1; j < len(credit); j++ {
			c := credit[j] + w[j]
			credit[j] = c
			if c > top {
				best, top = j, c
			}
		}
		credit[best] = top - 1
		if count != nil {
			count[best]++
		}
	}
	return best
}

// walkFamilies returns the raw weight vectors of m positive weights the
// kernels are pinned on: all equal (every page is a tie), small integers,
// one dominant weight, and perturbations of uniform shaped like the
// Figure 1b search's ±0.1 steps.
func walkFamilies(m int, rng *rand.Rand) map[string][]float64 {
	equal := make([]float64, m)
	ints := make([]float64, m)
	dominant := make([]float64, m)
	for j := range equal {
		equal[j] = 1
		ints[j] = float64(1 + rng.Intn(7))
		dominant[j] = 1
	}
	dominant[rng.Intn(m)] = 40
	perturbed := stats.Normalize(equal)
	for k := 0; k < 6; k++ {
		j, step := rng.Intn(m), 0.1
		if rng.Intn(2) == 0 {
			step = -step
		}
		if perturbed[j]+step <= 0 {
			continue
		}
		perturbed[j] += step
		perturbed = stats.Normalize(perturbed)
	}
	return map[string][]float64{"equal": equal, "ints": ints, "dominant": dominant, "perturbed": perturbed}
}

// checkWalkChunks walks the weights raw, normalized as MbindWeighted
// normalizes them, through the walk's steps and through referenceSteps,
// from every credit at start, chunk by chunk, with counts and (as cursors
// do) without, and fails on the first chunk after which a credit bit, a
// count or the returned index differs.
func checkWalkChunks(t *testing.T, name string, raw []float64, start float64, chunks []int) {
	t.Helper()
	wk := newWalk(stats.Normalize(raw), 0)
	m := len(wk.w)
	credit, refCredit, bare := make([]float64, m), make([]float64, m), make([]float64, m)
	for j := range credit {
		credit[j], refCredit[j], bare[j] = start, start, start
	}
	count, refCount := make([]int64, m), make([]int64, m)
	page := 0
	for _, n := range chunks {
		got, want := wk.steps(credit, count, n), referenceSteps(wk.w, refCredit, refCount, n)
		bareGot := wk.steps(bare, nil, n)
		page += n
		if got != want || bareGot != want {
			t.Fatalf("%s: after page %d: index %d (without counts %d), reference %d", name, page, got, bareGot, want)
		}
		for j := range credit {
			if math.Float64bits(credit[j]) != math.Float64bits(refCredit[j]) ||
				math.Float64bits(bare[j]) != math.Float64bits(refCredit[j]) {
				t.Fatalf("%s: after page %d: credit[%d] = %v (without counts %v), reference %v",
					name, page, j, credit[j], bare[j], refCredit[j])
			}
		}
		if !slices.Equal(count, refCount) {
			t.Fatalf("%s: after page %d: counts %v, reference %v", name, page, count, refCount)
		}
	}
}

// TestWalkKernelsMatchScalar pins every walk width, kernel or scalar
// fallback, to referenceSteps over three checkpoint strides and a partial
// one, in chunks of one page, a few pages, a whole stride and the rest
// (after an empty chunk, which must return -1). Besides the walk from
// zero credit, each vector also starts with every credit at −0.5, a state
// no walk from zero reaches, where a padded lane would win unless its
// credit is −Inf.
func TestWalkKernelsMatchScalar(t *testing.T) {
	const pages = 3*walkStride + 17
	chunks := []int{0, 1, 7, walkStride, pages - 1 - 7 - walkStride}
	rng := rand.New(rand.NewSource(5))
	for m := 1; m <= 12; m++ {
		fams := walkFamilies(m, rng)
		for _, fam := range []string{"equal", "ints", "dominant", "perturbed"} {
			for _, start := range []float64{0, -0.5} {
				checkWalkChunks(t, fmt.Sprintf("m=%d %s %v from %v", m, fam, fams[fam], start), fams[fam], start, chunks)
			}
		}
	}
}

// walkInput encodes a FuzzWalkSteps input: the weight count, the raw
// weights as little-endian float64 bits, then 16-bit chunk lengths.
func walkInput(raw []float64, chunks ...int) []byte {
	out := []byte{byte(len(raw) - 1)}
	for _, w := range raw {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
	}
	for _, n := range chunks {
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
	}
	return out
}

// FuzzWalkSteps fuzzes the width kernels against referenceSteps with
// arbitrary positive finite weights of one to twelve nodes and arbitrary
// chunkings of up to three strides and a bit. The seed corpus is the
// weight families TestWalkKernelsMatchScalar pins, so a plain `go test`
// runs it; `go test -fuzz FuzzWalkSteps ./internal/mm` explores further.
func FuzzWalkSteps(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 8, 9, 12} {
		fams := walkFamilies(m, rng)
		for _, fam := range []string{"equal", "ints", "dominant", "perturbed"} {
			f.Add(walkInput(fams[fam], 1, 7, walkStride, 2*walkStride+9))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		m := 1 + int(data[0])%12
		data = data[1:]
		if len(data) < 8*m {
			return
		}
		raw := make([]float64, m)
		sum := 0.0
		for j := range raw {
			raw[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			if !(raw[j] > 0) || math.IsInf(raw[j], 0) {
				return
			}
			sum += raw[j]
		}
		if math.IsInf(sum, 0) {
			return
		}
		data = data[8*m:]
		var chunks []int
		for total := 0; len(data) >= 2 && total < 3*walkStride+17; data = data[2:] {
			n := min(int(binary.LittleEndian.Uint16(data)), 3*walkStride+17-total)
			chunks = append(chunks, n)
			total += n
		}
		checkWalkChunks(t, fmt.Sprintf("weights %v", raw), raw, 0, chunks)
	})
}

// batchPaths returns the stepBatch paths this machine can run: the
// fallback, and the AVX2 kernel where the CPU has it.
func batchPaths() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkBatchChunks walks up to four raw weight vectors, normalized as
// checkWalkChunks normalizes them, through stepBatch on each path of
// batchPaths and through referenceSteps, from every credit at start, chunk
// by chunk, and fails on the first chunk after which a credit bit or a
// count of any walk differs.
func checkBatchChunks(t *testing.T, name string, raws [][]float64, start float64, chunks []int) {
	t.Helper()
	defer func(saved bool) { batchAVX2 = saved }(batchAVX2)
	for _, avx := range batchPaths() {
		batchAVX2 = avx
		wks := make([]*walk, len(raws))
		credit, refCredit := make([][]float64, len(raws)), make([][]float64, len(raws))
		count, refCount := make([][]int64, len(raws)), make([][]int64, len(raws))
		for i, raw := range raws {
			wks[i] = newWalk(stats.Normalize(raw), 0)
			m := len(wks[i].w)
			credit[i], refCredit[i] = make([]float64, m), make([]float64, m)
			count[i], refCount[i] = make([]int64, m), make([]int64, m)
			for j := range credit[i] {
				credit[i][j], refCredit[i][j] = start, start
			}
		}
		page := 0
		for _, n := range chunks {
			stepBatch(wks, credit, count, n)
			page += n
			for i, wk := range wks {
				referenceSteps(wk.w, refCredit[i], refCount[i], n)
				for j := range credit[i] {
					if math.Float64bits(credit[i][j]) != math.Float64bits(refCredit[i][j]) {
						t.Fatalf("%s (AVX2 %v): walk %d after page %d: credit[%d] = %v, reference %v",
							name, avx, i, page, j, credit[i][j], refCredit[i][j])
					}
				}
				if !slices.Equal(count[i], refCount[i]) {
					t.Fatalf("%s (AVX2 %v): walk %d after page %d: counts %v, reference %v",
						name, avx, i, page, count[i], refCount[i])
				}
			}
		}
	}
}

// walkBatchInput encodes a FuzzWalkBatch input: the vector count, then
// each vector as its weight count and its raw weights' little-endian
// float64 bits, then 16-bit chunk lengths.
func walkBatchInput(raws [][]float64, chunks ...int) []byte {
	out := []byte{byte(len(raws) - 1)}
	for _, raw := range raws {
		out = append(out, byte(len(raw)-1))
		for _, w := range raw {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
		}
	}
	for _, n := range chunks {
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
	}
	return out
}

// FuzzWalkBatch fuzzes stepBatch, the AVX2 kernel and the fallback, against
// referenceSteps: one to four walks of one to eight arbitrary positive
// finite weights each, stepped together in arbitrary chunkings of up to
// three strides and a bit, from credit 0 and from −0.5. The seed corpus
// batches the weight families TestWalkKernelsMatchScalar pins, alone and
// mixed, so a plain `go test` runs it; `go test -fuzz FuzzWalkBatch
// ./internal/mm` explores further.
func FuzzWalkBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	fams := []string{"equal", "ints", "dominant", "perturbed"}
	var mixed [][]float64
	for m := 1; m <= 8; m++ {
		byFam := walkFamilies(m, rng)
		var batch [][]float64
		for _, fam := range fams {
			batch = append(batch, byFam[fam])
		}
		f.Add(walkBatchInput(batch, 1, 7, walkStride, 2*walkStride+9))
		f.Add(walkBatchInput(batch[:1+m%4], 3, walkStride-3, 1))
		mixed = append(mixed, byFam[fams[m%4]])
	}
	f.Add(walkBatchInput(mixed[4:], 0, 1, 7, walkStride, 2*walkStride+9))
	f.Add(walkBatchInput([][]float64{mixed[7], mixed[1], mixed[5]}, 5000, 5000))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		raws := make([][]float64, 1+int(data[0])%4)
		data = data[1:]
		for i := range raws {
			if len(data) < 1 {
				return
			}
			m := 1 + int(data[0])%8
			data = data[1:]
			if len(data) < 8*m {
				return
			}
			raw := make([]float64, m)
			sum := 0.0
			for j := range raw {
				raw[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
				if !(raw[j] > 0) || math.IsInf(raw[j], 0) {
					return
				}
				sum += raw[j]
			}
			if math.IsInf(sum, 0) {
				return
			}
			raws[i] = raw
			data = data[8*m:]
		}
		var chunks []int
		for total := 0; len(data) >= 2 && total < 3*walkStride+17; data = data[2:] {
			n := min(int(binary.LittleEndian.Uint16(data)), 3*walkStride+17-total)
			chunks = append(chunks, n)
			total += n
		}
		for _, start := range []float64{0, -0.5} {
			checkBatchChunks(t, fmt.Sprintf("weights %v from %v", raws, start), raws, start, chunks)
		}
	})
}

// BenchmarkWalkSteps times one page of the walk over 2, 3, 6, 8 and 12
// positive weights shaped like the Figure 1b search's vectors (uniform
// perturbed by ±0.1 steps): the two-, four- and eight-lane kernels and
// the scalar fallback. The batch4 cases step four such walks together
// through stepBatch (the AVX2 kernel where the CPU has it) and report ns
// per page of one walk, comparable with the single-walk cases.
func BenchmarkWalkSteps(b *testing.B) {
	for _, m := range []int{2, 3, 6, 8, 12} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			wk := newWalk(walkFamilies(m, rand.New(rand.NewSource(int64(m))))["perturbed"], 0)
			credit, count := make([]float64, m), make([]int64, m)
			pages := 0
			for b.Loop() {
				wk.steps(credit, count, walkStride)
				pages += walkStride
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
		})
	}
	for _, m := range []int{6, 8} {
		b.Run(fmt.Sprintf("batch4/m=%d", m), func(b *testing.B) {
			wks := make([]*walk, 4)
			credit, count := make([][]float64, 4), make([][]int64, 4)
			for i := range wks {
				wks[i] = newWalk(walkFamilies(m, rand.New(rand.NewSource(int64(10*m+i))))["perturbed"], 0)
				credit[i], count[i] = make([]float64, m), make([]int64, m)
			}
			pages := 0
			for b.Loop() {
				stepBatch(wks, credit, count, walkStride)
				pages += len(wks) * walkStride
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
		})
	}
}
