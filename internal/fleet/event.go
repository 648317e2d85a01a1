package fleet

// The fleet scheduler is a deterministic discrete-event loop. Eight event
// kinds exist; their ordering at equal timestamps is part of the replay
// contract (DESIGN.md):
//
//	completion < crash < drain < recover < machine-add < arrival < retry < retune
//
// Completions sort first so a departing job frees its nodes — and counts
// as finished — before anything else at the same instant touches its
// machine; in particular a job whose interpolated finish time coincides
// with a crash completes rather than being killed. The machine-lifecycle
// kinds come next, failures before repairs: a crash at the same instant as
// a drain wins (the graceful path must not pretend to evacuate jobs a
// crash already killed), and recover/machine-add restore capacity before
// arrivals at the same instant ask for it. Crash-retry re-entries sort
// after fresh arrivals, and retunes sort last so they see the post-churn
// job set. Ties within a kind break on the event's push sequence number,
// which is itself deterministic because every push happens at a
// deterministic point of the loop.
type eventKind int

const (
	evComplete eventKind = iota
	evCrash
	evDrain
	evRecover
	evMachineAdd
	evArrive
	evRetry
	evRetune
)

func (k eventKind) String() string {
	switch k {
	case evComplete:
		return "complete"
	case evCrash:
		return "crash"
	case evDrain:
		return "drain"
	case evRecover:
		return "recover"
	case evMachineAdd:
		return "machine-add"
	case evArrive:
		return "arrive"
	case evRetry:
		return "retry"
	case evRetune:
		return "retune"
	}
	return "unknown"
}

// event is one scheduled occurrence.
type event struct {
	t    float64
	kind eventKind
	seq  int  // monotonic push counter; final tie-break
	job  *Job // arrivals, retries and completions
	mach int  // machine-scoped kinds (completion, retune, crash, drain, recover); -1 otherwise
}

// eventLess is the scheduling order: (t, kind, seq).
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventHeap is a min-heap ordered by eventLess, used via container/heap.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
