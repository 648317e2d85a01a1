package mm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestWalkTableSharedBinds binds one weight vector from many goroutines
// through one table, each in its own address space with two segments of
// different sizes — the second bind reuses the address space's walk and
// copies only the checkpoints it lacks — and demands that every segment
// places its pages exactly as a private-walk bind does. Under -race it
// also checks that the table's extensions and copies are synchronized.
func TestWalkTableSharedBinds(t *testing.T) {
	const numNodes = 8
	// Irregular weights: with a period dividing walkStride, every
	// checkpoint would hold the same credit and hide a misplaced copy.
	w := []float64{0.31, 0, 0.17, 0.05, 0.13, 0, 0.27, 0.07}
	sizes := []int{1, walkStride - 1, walkStride, walkStride + 1, 3*walkStride + 17, 7 * walkStride, 2*walkStride + 5, 5*walkStride + 4095}
	table := NewWalkTable()
	segs := make([][2]*Segment, 2*len(sizes))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
			private := NewAddressSpace(numNodes).AddSegment("p", s.Length(), SharedOwner)
			if err := private.MbindWeighted(w, MoveFlag); err != nil {
				t.Fatal(err)
			}
			if got, want := s.Counts(), private.Counts(); !slices.Equal(got, want) {
				t.Fatalf("goroutine %d, %d pages: counts %v, private bind %v", i, s.PageCount(), got, want)
			}
			for _, p := range []int{0, walkStride - 1, walkStride, s.PageCount() / 2, s.PageCount() - 1} {
				if p < s.PageCount() && s.Node(p) != private.Node(p) {
					t.Fatalf("goroutine %d, %d pages: page %d on node %d, private bind %d", i, s.PageCount(), p, s.Node(p), private.Node(p))
				}
			}
		}
	}
	if len(table.walks) != 1 {
		t.Fatalf("table holds %d walks for one weight vector", len(table.walks))
	}
	for _, e := range table.walks {
		if want := (slices.Max(sizes)/walkStride + 1) * len(e.wk.w); len(e.wk.cpCredit) != want {
			t.Fatalf("table walk holds %d checkpoint credits, want %d (the largest segment's)", len(e.wk.cpCredit), want)
		}
	}
}
