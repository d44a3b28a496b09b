package serve

// jobQueue is the deadline-aware admission queue: a bounded,
// earliest-deadline-first priority queue replacing the plain FIFO channel.
// Jobs with a client deadline pop before jobs without one; among equals,
// admission order wins. The queue never blocks producers — push is a
// reject-on-full admission decision — and supports the shedding sweeps
// the overload layer runs (removing doomed jobs, evicting a victim to
// make room for more urgent work).
import "sync"

type jobQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []*job // EDF order: items[0] pops next
	limit int
	// clientCap bounds how many queued jobs one client identity may hold
	// (0 = unlimited). Enforced inside push, under the queue lock, so
	// concurrent same-client arrivals cannot jointly overshoot it.
	clientCap int
	closed    bool
	seq       int64
}

// pushVerdict is push's admission decision: the queue distinguishes "no
// room for anyone" from "no room for *this client*" because the two
// reject with different reasons and only the former justifies eviction,
// and both from a closed (draining) queue, which admits nobody.
type pushVerdict int

const (
	pushOK pushVerdict = iota
	pushFull
	pushClientFull
	pushClosed
)

func newJobQueue(limit, clientCap int) *jobQueue {
	q := &jobQueue{limit: limit, clientCap: clientCap}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// edfBefore orders a ahead of b: earlier deadline first, deadline-less
// jobs last, admission sequence as the tiebreak. Caller holds no job
// locks; deadline and seq are immutable after admission.
func edfBefore(a, b *job) bool {
	switch {
	case a.deadline.IsZero() && b.deadline.IsZero():
		return a.seq < b.seq
	case a.deadline.IsZero():
		return false
	case b.deadline.IsZero():
		return true
	case !a.deadline.Equal(b.deadline):
		return a.deadline.Before(b.deadline)
	default:
		return a.seq < b.seq
	}
}

// push admits j, keeping EDF order. It rejects — without blocking — when
// the queue is closed or full, or when j's client already holds its full
// per-client allotment of slots. Queue depths are small (tens), so an
// ordered insert and a linear client count beat heap bookkeeping.
func (q *jobQueue) push(j *job) pushVerdict {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return pushClosed
	}
	if len(q.items) >= q.limit {
		return pushFull
	}
	if q.clientCap > 0 && j.client != "" {
		n := 0
		for _, it := range q.items {
			if it.client == j.client {
				n++
			}
		}
		if n >= q.clientCap {
			return pushClientFull
		}
	}
	q.seq++
	j.seq = q.seq
	i := len(q.items)
	for i > 0 && edfBefore(j, q.items[i-1]) {
		i--
	}
	q.items = append(q.items, nil)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = j
	q.cond.Signal()
	return pushOK
}

// pop blocks until a job is available or the queue closes; ok=false means
// closed-and-empty (worker shutdown).
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	q.items = q.items[1:]
	return j, true
}

// close stops pushes and pops permanently and returns everything still
// queued, in one critical section: a job is either in the returned slice
// (admitted, for the caller to settle) or its push saw pushClosed (never
// admitted). Workers see closed-and-empty and exit.
func (q *jobQueue) close() []*job {
	q.mu.Lock()
	q.closed = true
	out := q.items
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
	return out
}

// removeIf removes every queued job matching pred, preserving order among
// the rest. The shedding sweep uses it to drop jobs whose deadline can no
// longer be met before they ever occupy a worker.
func (q *jobQueue) removeIf(pred func(*job) bool) []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var removed []*job
	kept := q.items[:0]
	for _, j := range q.items {
		if pred(j) {
			removed = append(removed, j)
		} else {
			kept = append(kept, j)
		}
	}
	q.items = kept
	return removed
}

// evictOne removes and returns the queued job minimizing cost among those
// matching pred (cheapest-first eviction under pressure), or nil when no
// job matches. Cost ties resolve to the later queue position — the queue
// is EDF-ordered, so among equally cheap victims the laxest one is shed.
func (q *jobQueue) evictOne(pred func(*job) bool, cost func(*job) int64) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	best := -1
	for i, j := range q.items {
		if !pred(j) {
			continue
		}
		if best < 0 || cost(j) <= cost(q.items[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	victim := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	return victim
}

// Len and Cap report queue occupancy for /healthz and /metrics.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *jobQueue) Cap() int { return q.limit }
