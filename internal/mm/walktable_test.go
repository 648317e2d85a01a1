package mm

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestWalkTableSharedBinds binds two weight vectors from many goroutines
// through one table, each in its own address space with two segments of
// different sizes — the second bind reuses the address space's walk and
// copies only the checkpoints it lacks — and demands that every segment
// places its pages exactly as a private-walk bind does. The vectors hold
// the same positive weights with their zeros in different places, so the
// table must hold one walk for both. A second round binds through tables
// that goroutines Prepare while others bind, on the AVX2 path where the
// CPU has it and on the fallback, with more vectors: five to eight
// positive weights, which batch, and three, which do not. Under -race it
// also checks that the table's extensions, preparations and copies are
// synchronized.
func TestWalkTableSharedBinds(t *testing.T) {
	const numNodes = 8
	// Irregular weights: with a period dividing walkStride, every
	// checkpoint would hold the same credit and hide a misplaced copy.
	vectors := [][]float64{
		{0.31, 0, 0.17, 0.05, 0.13, 0, 0.27, 0.07},
		{0.31, 0.17, 0, 0.05, 0.13, 0.27, 0, 0.07},
	}
	sizes := []int{1, walkStride - 1, walkStride, walkStride + 1, 3*walkStride + 17, 7 * walkStride, 2*walkStride + 5, 5*walkStride + 4095}
	table := NewWalkTable()
	segs := make([][2]*Segment, 2*len(sizes))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := vectors[i%len(vectors)]
			as := NewAddressSpace(numNodes)
			for j, pages := range []int{sizes[i%len(sizes)], sizes[(i+3)%len(sizes)]} {
				s := as.AddSegment(fmt.Sprint(j), uint64(pages)*PageSize, SharedOwner)
				if err := s.MbindWeightedShared(w, MoveFlag, table); err != nil {
					errs[i] = err
					return
				}
				segs[i][j] = s
			}
		}()
	}
	wg.Wait()
	for i, pair := range segs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, s := range pair {
			checkPrivateBind(t, fmt.Sprintf("goroutine %d", i), s, vectors[i%len(vectors)])
		}
	}
	if len(table.walks) != 1 {
		t.Fatalf("table holds %d walks for one set of positive weights", len(table.walks))
	}
	for _, e := range table.walks {
		if want := (slices.Max(sizes)/walkStride + 1) * len(e.wk.w); len(e.wk.cpCredit) != want {
			t.Fatalf("table walk holds %d checkpoint credits, want %d (the largest segment's)", len(e.wk.cpCredit), want)
		}
	}

	vectors = append(vectors,
		[]float64{0.2, 0.1, 0.3, 0.05, 0.15, 0.1, 0.05, 0.05},
		[]float64{0.3, 0, 0.2, 0, 0.1, 0.25, 0.15, 0},
		[]float64{0.11, 0.13, 0.17, 0.19, 0.23, 0, 0.07, 0.1},
		[]float64{0.5, 0.3, 0, 0, 0, 0.2, 0, 0},
		[]float64{0.1, 0.2, 0.05, 0.15, 0.1, 0.15, 0.1, 0.15},
	)
	defer func(saved bool) { batchAVX2 = saved }(batchAVX2)
	for _, avx := range batchPaths() {
		batchAVX2 = avx
		table := NewWalkTable()
		segs := make([][2]*Segment, 2*len(sizes))
		for i := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					// Each preparer starts at another vector, so
					// preparations overlap and race with binds.
					table.Prepare(append(vectors[i%len(vectors):], vectors[:i%len(vectors)]...), slices.Max(sizes))
				}
				w := vectors[i%len(vectors)]
				as := NewAddressSpace(numNodes)
				for j, pages := range []int{sizes[i%len(sizes)], sizes[(i+3)%len(sizes)]} {
					s := as.AddSegment(fmt.Sprint(j), uint64(pages)*PageSize, SharedOwner)
					if err := s.MbindWeightedShared(w, MoveFlag, table); err != nil {
						errs[i] = err
						return
					}
					segs[i][j] = s
				}
			}()
		}
		wg.Wait()
		for i, pair := range segs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			for _, s := range pair {
				checkPrivateBind(t, fmt.Sprintf("prepared (AVX2 %v), goroutine %d", avx, i), s, vectors[i%len(vectors)])
			}
		}
		if len(table.walks) != len(vectors)-1 {
			t.Fatalf("prepared table (AVX2 %v) holds %d walks for %d sets of positive weights", avx, len(table.walks), len(vectors)-1)
		}
	}
}

// checkPrivateBind fails unless segment s places its pages as a private
// bind of weights does, in counts and in point queries on either side of
// checkpoints.
func checkPrivateBind(t *testing.T, label string, s *Segment, weights []float64) {
	t.Helper()
	private := NewAddressSpace(s.NumNodes()).AddSegment("p", s.Length(), SharedOwner)
	if err := private.MbindWeighted(weights, MoveFlag); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Counts(), private.Counts(); !slices.Equal(got, want) {
		t.Fatalf("%s, %d pages: counts %v, private bind %v", label, s.PageCount(), got, want)
	}
	for _, p := range []int{0, walkStride - 1, walkStride, s.PageCount() / 2, s.PageCount() - 1} {
		if p < s.PageCount() && s.Node(p) != private.Node(p) {
			t.Fatalf("%s, %d pages: page %d on node %d, private bind %d", label, s.PageCount(), p, s.Node(p), private.Node(p))
		}
	}
}

// TestWalkTablePrepare prepares a table with vectors of two to eight
// positive weights, some repeated or equal in their positive part, and
// demands one walk per positive part, each holding exactly the prepared
// segment's checkpoints, bit for bit those a walk checkpointed alone
// holds — on the AVX2 path where the CPU has it and on the fallback.
func TestWalkTablePrepare(t *testing.T) {
	vectors := [][]float64{
		{0.31, 0, 0.17, 0.05, 0.13, 0, 0.27, 0.07},
		{0.2, 0.1, 0.3, 0.05, 0.15, 0.1, 0.05, 0.05},
		{0.31, 0.17, 0, 0.05, 0.13, 0.27, 0, 0.07},
		{0.5, 0.3, 0, 0, 0, 0.2, 0, 0},
		{0.3, 0, 0.2, 0, 0.1, 0.25, 0.15, 0},
		{0.11, 0.13, 0.17, 0.19, 0.23, 0, 0.07, 0.1},
		{0.2, 0.1, 0.3, 0.05, 0.15, 0.1, 0.05, 0.05},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{0, 0.6, 0, 0, 0, 0, 0, 0.4},
		{0.1, 0.2, 0.05, 0.15, 0.1, 0.15, 0.1, 0.15},
		{0.1, -0.2, 0.05, 0.15, 0.1, 0.15, 0.1, 0.15},
	}
	const pages = 5*walkStride + 17
	defer func(saved bool) { batchAVX2 = saved }(batchAVX2)
	for _, avx := range batchPaths() {
		batchAVX2 = avx
		table := NewWalkTable()
		table.Prepare(vectors, pages)
		if len(table.walks) != 8 {
			t.Fatalf("AVX2 %v: table holds %d walks for 8 sets of positive weights", avx, len(table.walks))
		}
		for _, w := range vectors[:len(vectors)-1] {
			norm, err := normalize(w)
			if err != nil {
				t.Fatal(err)
			}
			alone := newWalk(norm, pages)
			alone.checkpoint(pages / walkStride)
			e := table.walks[string(walkKey(alone.w))]
			if e == nil {
				t.Fatalf("AVX2 %v: %v not prepared", avx, w)
			}
			for j, c := range alone.cpCredit {
				if j >= len(e.wk.cpCredit) || math.Float64bits(e.wk.cpCredit[j]) != math.Float64bits(c) {
					t.Fatalf("AVX2 %v: %v: prepared checkpoint credits %v, walked alone %v", avx, w, e.wk.cpCredit, alone.cpCredit)
				}
			}
			if len(e.wk.cpCredit) != len(alone.cpCredit) || !slices.Equal(e.wk.cpCount, alone.cpCount) {
				t.Fatalf("AVX2 %v: %v: prepared checkpoint counts %v, walked alone %v", avx, w, e.wk.cpCount, alone.cpCount)
			}
		}
	}
}
