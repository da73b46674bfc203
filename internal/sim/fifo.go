package sim

// FIFO is a first-in first-out queue over a ring buffer. Popping the head
// keeps the storage, unlike re-slicing (q = q[1:]), so a queue whose length
// stays bounded stops allocating once its buffer has grown to that bound.
// The zero value is an empty queue; storage is allocated on the first Push.
type FIFO[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v at the head.
func (q *FIFO[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Pop removes and returns the head item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: pop of empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the head item without removing it. It panics on an empty
// queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: front of empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the i-th item from the head (0 is the head).
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// RemoveAt deletes the i-th item from the head, keeping the order of the
// rest.
func (q *FIFO[T]) RemoveAt(i int) {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	mask := len(q.buf) - 1
	for j := i; j < q.n-1; j++ {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
	}
	var zero T
	q.buf[(q.head+q.n-1)&mask] = zero
	q.n--
}

// Clear removes every item, keeping the storage.
func (q *FIFO[T]) Clear() {
	var zero T
	for q.n > 0 {
		q.buf[q.head] = zero
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	q.head = 0
}

// grow doubles the buffer (from 1), unrolling the ring to start at index 0.
func (q *FIFO[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = 1
	}
	b := make([]T, c)
	for i := 0; i < q.n; i++ {
		b[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = b, 0
}
