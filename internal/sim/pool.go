package sim

// Pool is a free list of recycled objects for a single owner (the
// simulation is single-threaded, so there is no locking). P is a pointer
// type, e.g. Pool[*job]: every instantiation then shares one
// pointer-shaped implementation, and Get can report an empty pool as nil.
// The pool fills lazily: Get returns nil while nothing has been recycled
// and the caller allocates. Whoever calls Put hands the object over for
// good, so it must clear any references the object should not keep alive
// and hold no pointer to it.
type Pool[P any] struct {
	free []P
}

// Get returns a recycled object, or the zero P (nil) when the pool is
// empty.
func (p *Pool[P]) Get() P {
	var zero P
	n := len(p.free)
	if n == 0 {
		return zero
	}
	x := p.free[n-1]
	p.free[n-1] = zero
	p.free = p.free[:n-1]
	return x
}

// Put recycles x.
func (p *Pool[P]) Put(x P) { p.free = append(p.free, x) }
