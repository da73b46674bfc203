package sim

// Handoffs returns how many times the engine's baton has passed from one
// goroutine to another.
func Handoffs(e *Engine) uint64 { return e.handoffs }
