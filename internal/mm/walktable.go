package mm

import (
	"encoding/binary"
	"math"
	"sync"
)

// WalkTable shares weighted-walk checkpoints between address spaces that
// bind the same positive weights — the evaluations of an offline weight
// search, each a fresh simulation, revisit the same vectors many times. A
// binding address space copies the checkpoints its segment needs from the
// table's walk of its positive normalized weights, in node order, instead
// of walking them from page 0; its own walk, seeks and cursors stay
// private. Steps and checkpoints read only those weights and index them by
// lane, so binds that differ only in where their zero weights sit share
// one walk, and a shared bind places every page exactly as a private one.
//
// A table is safe for concurrent use. It keeps every vector bound through
// it, so it should live only as long as the search that fills it.
type WalkTable struct {
	mu    sync.Mutex
	walks map[string]*sharedWalk
}

// sharedWalk is one table entry: a walk whose checkpoints are extended and
// copied out under mu. Its seek state is never used.
type sharedWalk struct {
	mu sync.Mutex
	wk *walk
}

// NewWalkTable returns an empty table.
func NewWalkTable() *WalkTable { return &WalkTable{walks: make(map[string]*sharedWalk)} }

// walkKey is a walk's table key: the bits of its positive weights, in
// node order.
func walkKey(w []float64) []byte {
	key := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(key[8*i:], math.Float64bits(x))
	}
	return key
}

// Prepare walks, to the last checkpoint of a segment of pages pages, every
// vector of weights whose positive normalized weights the table lacks, so
// the binds that follow only copy checkpoints. Vectors of five to eight
// positive weights walk four at a time (stepBatch, which without AVX2
// steps each alone); the rest keep their own kernels. Each new walk is
// entered in the table locked, so a concurrent bind of its vector waits
// for it instead of walking it again. Vectors a bind would reject are
// skipped.
func (t *WalkTable) Prepare(weights [][]float64, pages int) {
	k := pages / walkStride
	var batch, single []*sharedWalk
	t.mu.Lock()
	for _, raw := range weights {
		norm, err := normalize(raw)
		if err != nil {
			continue
		}
		wk := newWalk(norm, pages)
		key := walkKey(wk.w)
		if t.walks[string(key)] != nil {
			continue
		}
		e := &sharedWalk{wk: wk}
		e.mu.Lock()
		t.walks[string(key)] = e
		if m := len(wk.w); m >= 5 && m <= 8 {
			batch = append(batch, e)
		} else {
			single = append(single, e)
		}
	}
	t.mu.Unlock()
	wks := make([]*walk, 0, 4)
	for len(batch) > 0 {
		n := min(4, len(batch))
		wks = wks[:0]
		for _, e := range batch[:n] {
			wks = append(wks, e.wk)
		}
		checkpointBatch(wks, k)
		for _, e := range batch[:n] {
			e.mu.Unlock()
		}
		batch = batch[n:]
	}
	for _, e := range single {
		e.wk.checkpoint(k)
		e.mu.Unlock()
	}
}

// fill appends to wk the checkpoints it lacks for a segment of pages pages,
// copied from the table's walk of the same positive weights, which is
// extended first when no earlier bind needed that many. The table walk's
// nodes are those of the first bind; only its lanes are read.
func (t *WalkTable) fill(wk *walk, pages int) {
	k := pages / walkStride
	need := (k + 1) * len(wk.w)
	if len(wk.cpCredit) >= need {
		return
	}
	key := walkKey(wk.w)
	t.mu.Lock()
	e := t.walks[string(key)]
	if e == nil {
		e = &sharedWalk{wk: newWalk(wk.weights, pages)}
		t.walks[string(key)] = e
	}
	t.mu.Unlock()
	e.mu.Lock()
	e.wk.checkpoint(k)
	wk.cpCredit = append(wk.cpCredit, e.wk.cpCredit[len(wk.cpCredit):need]...)
	wk.cpCount = append(wk.cpCount, e.wk.cpCount[len(wk.cpCount):need]...)
	e.mu.Unlock()
}
