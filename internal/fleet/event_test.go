package fleet

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestEventHeapKindTiebreak pins the exact tiebreak replay determinism
// depends on: at equal timestamps, the eight kinds pop in the documented
// order — completion, crash, drain, recover, machine-add, arrival, retry,
// retune — regardless of push order.
func TestEventHeapKindTiebreak(t *testing.T) {
	want := []eventKind{evComplete, evCrash, evDrain, evRecover, evMachineAdd, evArrive, evRetry, evRetune}
	var h eventHeap
	for i := len(want) - 1; i >= 0; i-- { // reverse push order
		heap.Push(&h, &event{t: 1, kind: want[i], seq: len(want) - i})
	}
	for i, k := range want {
		ev := heap.Pop(&h).(*event)
		if ev.kind != k {
			t.Fatalf("pop %d: kind %v, want %v", i, ev.kind, k)
		}
	}
}

// TestEventKindOrderPinned freezes the numeric slots: reordering the enum
// would silently reorder same-timestamp events and break replay of every
// recorded log.
func TestEventKindOrderPinned(t *testing.T) {
	slots := map[eventKind]int{
		evComplete: 0, evCrash: 1, evDrain: 2, evRecover: 3,
		evMachineAdd: 4, evArrive: 5, evRetry: 6, evRetune: 7,
	}
	for k, want := range slots {
		if int(k) != want {
			t.Fatalf("event kind %v has slot %d, want %d", k, int(k), want)
		}
	}
}

// TestEventHeapPopOrderProperty drives random interleaved push/pop batches
// through the heap and checks two properties against a brute-force
// reference multiset: every pop returns the (t, kind, seq)-minimum of the
// live contents, and a full drain comes out totally ordered. Timestamps
// are drawn from a small set so kind and seq tiebreaks fire constantly.
func TestEventHeapPopOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	times := []float64{0, 0.5, 0.5, 1, 2.5}
	for trial := 0; trial < 300; trial++ {
		var h eventHeap
		var live []*event // reference multiset
		seq := 0
		var lastPopped *event
		popOne := func() {
			ev := heap.Pop(&h).(*event)
			// The reference minimum, found by linear scan with the same
			// comparator.
			mi := 0
			for i := 1; i < len(live); i++ {
				if eventLess(live[i], live[mi]) {
					mi = i
				}
			}
			if live[mi] != ev {
				t.Fatalf("trial %d: popped (t=%v kind=%v seq=%d), reference min (t=%v kind=%v seq=%d)",
					trial, ev.t, ev.kind, ev.seq, live[mi].t, live[mi].kind, live[mi].seq)
			}
			live = append(live[:mi], live[mi+1:]...)
			// Pops between pushes need not be globally sorted, but two
			// consecutive pops with no push in between must be.
			if lastPopped != nil && eventLess(ev, lastPopped) {
				t.Fatalf("trial %d: consecutive pops out of order", trial)
			}
			lastPopped = ev
		}
		for op := 0; op < 60; op++ {
			if h.Len() > 0 && rng.Intn(3) == 0 {
				popOne()
				continue
			}
			lastPopped = nil
			seq++
			ev := &event{
				t:    times[rng.Intn(len(times))],
				kind: eventKind(rng.Intn(8)),
				seq:  seq,
			}
			heap.Push(&h, ev)
			live = append(live, ev)
		}
		lastPopped = nil
		for h.Len() > 0 {
			popOne()
		}
		if len(live) != 0 {
			t.Fatalf("trial %d: reference still holds %d events", trial, len(live))
		}
	}
}

// TestEventHeapSeqBreaksTimeKindTies confirms the final tiebreak: equal
// time and kind pop in push order.
func TestEventHeapSeqBreaksTimeKindTies(t *testing.T) {
	var h eventHeap
	for i := 5; i >= 1; i-- {
		heap.Push(&h, &event{t: 2, kind: evArrive, seq: i})
	}
	for want := 1; want <= 5; want++ {
		if got := heap.Pop(&h).(*event).seq; got != want {
			t.Fatalf("seq %d popped before %d", got, want)
		}
	}
}
