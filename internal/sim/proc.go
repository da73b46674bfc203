package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulation process: sequential code that runs in virtual time.
//
// A Proc is backed by a goroutine, but exactly one goroutine runs simulation
// code at any moment: the one holding the engine's baton. A process runs
// until it blocks (Sleep, Wait, Queue ops, ...). Its goroutine then fires
// the following events itself until one resumes a process: itself, which
// simply continues without a goroutine switch, or another, to which it
// hands the baton. The result is fully deterministic cooperative
// scheduling, with the events firing in the same order whichever goroutine
// fires them. A finished process's goroutine goes on to run a process
// started later, so that short-lived processes do not each start a
// goroutine and grow its stack.
//
// All Proc methods must be called from within the process's own body.
type Proc struct {
	eng  *Engine
	name string

	body func(p *Proc)
	h    *host // the goroutine running the process

	// Callbacks bound once per process, so that resuming it never
	// allocates: resume runs its next slice (bound at creation); wakeNow
	// schedules that at the current time and onTimeout ends a
	// WaitTimeout (both bound on first use).
	resume    func()
	wakeNow   func()
	onTimeout func()

	// w is the process's only waiter: a blocked process waits on at most
	// one Signal at a time, so every Wait reuses it.
	w waiter

	// prevLive and nextLive link the engine's unfinished processes in
	// spawn order.
	prevLive, nextLive *Proc

	done bool

	// daemon processes are expected to block forever (service loops);
	// they are excluded from the engine's deadlock accounting.
	daemon bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Go time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts a new process at the current simulated time. The body begins
// executing when the engine reaches the start event.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, body)
}

// GoDaemon starts a process excluded from deadlock accounting: a service
// loop that legitimately blocks forever (e.g. a protocol server thread).
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := e.GoAt(e.now, name, body)
	p.daemon = true
	e.procs--
	return p
}

// GoAt starts a new process at absolute time t.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	p.resume = func() { e.runSlice(p) }
	p.w.p = p
	e.procs++
	if e.back == nil {
		e.back = make(chan struct{})
	}
	if e.lastLive == nil {
		e.firstLive = p
	} else {
		e.lastLive.nextLive, p.prevLive = p, e.lastLive
	}
	e.lastLive = p
	if n := len(e.idle); n > 0 {
		p.h = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		p.h.proc = p
	} else {
		e.newHost(p)
	}
	e.At(t, p.resume)
	return p
}

// host is a goroutine that runs processes, one at a time. A process's
// goroutine grows its stack as it fires event callbacks, so when a process
// finishes its host waits on the engine's idle list to run the next process
// started, keeping that stack.
type host struct {
	wake chan struct{} // receives the baton: run the next slice
	proc *Proc

	// exited is set when an event callback fired on the host called
	// runtime.Goexit, which ends the goroutine.
	exited bool
}

// newHost starts a goroutine to run p.
func (e *Engine) newHost(p *Proc) {
	p.h = &host{wake: make(chan struct{}), proc: p}
	go e.serve(p.h)
}

// maxIdleHosts bounds the engine's idle list, whose hosts are goroutines
// that outlive the engine. Unbounded, the list peaks at 53 hosts on
// perfbench's rpc-bsp-64cab and 90 on scale-1024cab-observed; 64 lets a
// new process reuse a host in all of rpc's starts that could and 99.9 % of
// scale's (16 did in 96 % and 95 %).
const maxIdleHosts = 64

// serve runs the processes assigned to host h, one after another.
func (e *Engine) serve(h *host) {
	defer func() {
		if h.exited { // the goroutine's last act: give the baton back
			e.fault, e.faulted = nil, true
			e.handoff(nil)
		}
	}()
	<-h.wake // wait for the start event
	for {
		p := h.proc
		p.body(p)
		e.finish(p)
		h.proc = nil
		idle := len(e.idle) < maxIdleHosts
		if idle {
			e.idle = append(e.idle, h)
		}
		if e.carry(h) {
			continue // the loop started the next process on h
		}
		if !idle {
			return
		}
		<-h.wake
	}
}

// finish marks p done and takes it off the live list; the engine never
// resumes it again.
func (e *Engine) finish(p *Proc) {
	p.done = true
	if !p.daemon {
		e.procs--
	}
	if p.prevLive == nil {
		e.firstLive = p.nextLive
	} else {
		p.prevLive.nextLive = p.nextLive
	}
	if p.nextLive == nil {
		e.lastLive = p.prevLive
	} else {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// dropIdle takes h off the idle list, if it is there.
func (e *Engine) dropIdle(h *host) {
	for i, x := range e.idle {
		if x == h {
			e.idle = append(e.idle[:i], e.idle[i+1:]...)
			return
		}
	}
}

// runSlice makes p the process to resume once the firing event's callback
// returns; the event loop then switches to it. Must only be called from
// event context, as the callback's last action.
func (e *Engine) runSlice(p *Proc) {
	if p.done {
		return
	}
	if e.resumed != nil {
		panic(fmt.Sprintf("sim: one event resumed both %s and %s", e.resumed.name, p.name))
	}
	e.resumed = p
}

// carry runs the event loop on host self, whose process has blocked or
// finished. It reports true when the loop resumed a process on self: the
// blocked one, or the next one started on a finished one's host.
// Otherwise it has passed the baton to the resumed process, or back to the
// caller of Run/RunUntil, and the goroutine must not touch the engine
// until it is woken.
//
// A panic in an event callback goes back to that caller with the baton. A
// runtime.Goexit in one ends the goroutine, and the blocked process on it
// with it: that process is marked done, the deferred calls of its body
// run, and the goroutine's last deferred call (in serve) gives the baton
// back. A process the loop had just assigned to self moves to a new host.
func (e *Engine) carry(self *host) bool {
	owner := self.proc
	returned := false
	defer func() {
		if returned {
			return
		}
		e.resumed = nil
		if v := recover(); v != nil {
			e.fault, e.faulted = v, true
			e.handoff(nil)
			return
		}
		e.dropIdle(self)
		if owner != nil {
			e.finish(owner)
		} else if p := self.proc; p != nil {
			e.newHost(p)
		}
		self.exited = true
	}()
	next := e.dispatch()
	returned = true
	if next != nil && next.h == self {
		return true
	}
	e.handoff(next)
	return false
}

// block gives up control until the engine next resumes the process. A
// process that has ended can block only in a deferred call run by a
// runtime.Goexit that ended it (see carry); the goroutine goes on exiting.
func (p *Proc) block() {
	if p.done {
		runtime.Goexit()
	}
	if !p.eng.carry(p.h) {
		<-p.h.wake
	}
}

// resumeAt schedules the process to resume at absolute time t and returns
// the resume event (so it can be canceled, e.g. for timeouts).
func (p *Proc) resumeAt(t Time) Event {
	return p.eng.At(t, p.resume)
}

// Waker returns a callback that schedules the process to resume at the
// current time: the one event a Signal.Broadcast would schedule with this
// process as its only waiter. It is bound once per process, so waking
// through it never allocates. Pair it with Park; it may be called from
// event context.
func (p *Proc) Waker() func() {
	if p.wakeNow == nil {
		p.wakeNow = func() { p.resumeAt(p.eng.now) }
	}
	return p.wakeNow
}

// Park blocks the process until the callback returned by Waker runs. A
// process that parks with no wake-up pending stays blocked for good.
func (p *Proc) Park() { p.block() }

// Sleep blocks the process for d nanoseconds of simulated time. Sleep(0)
// still yields through the event queue, so same-time events scheduled
// earlier run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.resumeAt(p.eng.now + d)
	p.block()
}

// Yield reschedules the process at the current time, letting other pending
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// waiter is a parked process plus an optional timeout event. Each process
// owns exactly one (Proc.w); it sits in at most one Signal's queue.
type waiter struct {
	p       *Proc
	sig     *Signal // the signal it is queued on
	timeout Event
	fired   bool // set when the signal (not the timeout) woke the waiter
}

// Signal is a broadcast/wakeup primitive for processes (a condition
// variable in virtual time). The zero value is invalid; use NewSignal.
type Signal struct {
	eng     *Engine
	waiters FIFO[*waiter]
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(e *Engine) *Signal {
	return &Signal{eng: e}
}

// Waiters returns the number of processes currently blocked on the signal.
func (s *Signal) Waiters() int { return s.waiters.Len() }

// enqueue resets the process's waiter and queues it on s.
func (s *Signal) enqueue(p *Proc) *waiter {
	w := &p.w
	w.sig, w.timeout, w.fired = s, Event{}, false
	s.waiters.Push(w)
	return w
}

// Wait blocks the process until Signal or Broadcast wakes it.
func (s *Signal) Wait(p *Proc) {
	s.enqueue(p)
	p.block()
}

// WaitTimeout blocks until woken or until d elapses. It reports true if the
// process was woken by the signal and false on timeout.
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	if p.onTimeout == nil {
		p.onTimeout = p.timedOut
	}
	timeout := p.eng.At(p.eng.now+d, p.onTimeout)
	w := s.enqueue(p)
	w.timeout = timeout
	p.block()
	return w.fired
}

// timedOut ends a WaitTimeout whose timeout fired before the signal: it
// removes the waiter from its signal's queue and resumes the process.
func (p *Proc) timedOut() {
	q := &p.w.sig.waiters
	for i := 0; i < q.Len(); i++ {
		if q.At(i) == &p.w {
			q.RemoveAt(i)
			break
		}
	}
	p.eng.runSlice(p)
}

// wakeOne removes and schedules the resume of a single waiter.
func (s *Signal) wakeOne() {
	w := s.waiters.Pop()
	w.fired = true
	s.eng.Cancel(w.timeout) // no-op for the zero Event (no timeout armed)
	w.p.resumeAt(s.eng.now)
}

// Signal wakes one waiting process (FIFO), if any. The wakeup is delivered
// through the event queue, so the caller continues first.
func (s *Signal) Signal() {
	if s.waiters.Len() > 0 {
		s.wakeOne()
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (s *Signal) Broadcast() {
	for s.waiters.Len() > 0 {
		s.wakeOne()
	}
}

// Resource is a FIFO mutual-exclusion resource for processes (e.g. a shared
// bus). The zero value is invalid; use NewResource.
type Resource struct {
	eng  *Engine
	held bool
	free *Signal
}

// NewResource returns an unheld resource.
func NewResource(e *Engine) *Resource {
	return &Resource{eng: e, free: NewSignal(e)}
}

// Held reports whether the resource is currently acquired.
func (r *Resource) Held() bool { return r.held }

// Acquire blocks until the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.held {
		r.free.Wait(p)
	}
	r.held = true
}

// Release frees the resource and wakes one waiter. Releasing an unheld
// resource panics: it is always a model bug.
func (r *Resource) Release() {
	if !r.held {
		panic("sim: release of unheld resource")
	}
	r.held = false
	r.free.Signal()
}

// Use acquires the resource, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}
