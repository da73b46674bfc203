package sim

// Queue is a bounded FIFO channel for processes in virtual time. Put blocks
// while the queue is full (capacity > 0) and Get blocks while it is empty.
// A capacity of 0 means unbounded.
type Queue[T any] struct {
	eng      *Engine
	items    FIFO[T]
	capacity int
	notEmpty *Signal
	notFull  *Signal
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{
		eng:      e,
		capacity: capacity,
		notEmpty: NewSignal(e),
		notFull:  NewSignal(e),
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Cap returns the capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool {
	return q.capacity > 0 && q.items.Len() >= q.capacity
}

// Put appends v, blocking while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.Full() {
		q.notFull.Wait(p)
	}
	q.items.Push(v)
	q.notEmpty.Signal()
}

// TryPut appends v if there is room, reporting whether it was stored. It
// never blocks and may be called from event context.
func (q *Queue[T]) TryPut(v T) bool {
	if q.Full() {
		return false
	}
	q.items.Push(v)
	q.notEmpty.Signal()
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.notEmpty.Wait(p)
	}
	return q.pop()
}

// GetTimeout is like Get but gives up after d; ok is false on timeout.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := q.eng.now + d
	for q.items.Len() == 0 {
		remain := deadline - q.eng.now
		if remain <= 0 || !q.notEmpty.WaitTimeout(p, remain) {
			return v, false
		}
	}
	return q.pop(), true
}

// TryGet removes and returns the head item without blocking; ok reports
// whether an item was available. It may be called from event context.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	return q.pop(), true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Front(), true
}

func (q *Queue[T]) pop() T {
	v := q.items.Pop()
	q.notFull.Signal()
	return v
}
