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
	key := make([]byte, 8*len(wk.w))
	for i, w := range wk.w {
		binary.LittleEndian.PutUint64(key[8*i:], math.Float64bits(w))
	}
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
