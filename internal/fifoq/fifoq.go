// Package fifoq provides a growable ring-buffer FIFO queue.
//
// The simulator's plain queues — the per-input FIFOs of the input-queue
// store (internal/inq), TATRA's board columns, eSLIP's unicast VOQs, the
// output queues of the OQ and CIOQ switches and the invariant checker's
// shadow queues — are strictly first-in-first-out and hit on every time
// slot, so the implementation favours O(1) amortised operations with no
// per-element allocation: elements live in a circular slice that
// doubles when full. (The VOQs of address cells live in core's slab.)
package fifoq

// Queue is a FIFO queue of T. The zero value is an empty queue ready
// for use. Queue is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T
	head int // index of the front element when n > 0
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// Push appends v to the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the front element. It panics on an empty
// queue; callers are expected to check Len or use the HOL accessors
// first, because popping an empty queue is always a scheduler bug.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifoq: Pop on empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// Front returns the head-of-line element without removing it. It
// panics on an empty queue.
func (q *Queue[T]) Front() T {
	if q.n == 0 {
		panic("fifoq: Front on empty queue")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the front (At(0) == Front()). It
// panics if i is out of range. This is used by schedulers that may
// look past the head, such as windowed ablations.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifoq: At out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

func (q *Queue[T]) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
