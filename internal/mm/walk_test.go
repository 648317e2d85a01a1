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

// BenchmarkWalkSteps times one page of the walk over 2, 3, 6, 8 and 12
// positive weights shaped like the Figure 1b search's vectors (uniform
// perturbed by ±0.1 steps): the two-, four- and eight-lane kernels and
// the scalar fallback.
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
}
