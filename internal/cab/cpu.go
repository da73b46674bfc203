// Package cab models the Communication Accelerator Board (paper §5): a
// RISC-based processor board that implements the network protocols,
// interfaces the Nectar-net to a node's VME bus, and can run off-loaded
// application tasks.
//
// The board comprises a CPU (a 16 MHz SPARC in the prototype), a DMA
// controller that moves data between the fibers, CAB memory and the VME bus
// concurrently with computation, program and data memory with per-page
// protection across 32 domains, a hardware checksum unit, and hardware
// timers. Software costs (protocol processing, interrupt handling) are
// charged to the simulated CPU so they appear in end-to-end latency exactly
// as they did on the prototype.
package cab

import (
	"fmt"

	"repro/internal/sim"
)

// Priority of CPU work. Interrupt-level work preempts thread-level work
// (the SPARC reserves a register window for trap handling, paper §6.2.1).
type Priority int

// CPU priorities.
const (
	PrioInterrupt Priority = iota
	PrioThread
)

// job is one unit of CPU work. Jobs are owned by the CPU: a job returns to
// the CPU's free list as its completion callback is called, so nothing may
// hold a *job past that point (none escapes the CPU).
type job struct {
	prio      Priority
	remaining sim.Time
	done      func()
	name      string
}

// CPU is a preemptible work server. Work is submitted with a duration and a
// completion callback; interrupt-level work preempts thread-level work,
// whose remaining time resumes afterwards. The model composes costs
// correctly: a thread computation delayed by interrupts finishes late by
// exactly the stolen time.
type CPU struct {
	eng *sim.Engine

	cur      *job
	curEvent sim.Event
	curStart sim.Time
	// finish completes the running job; it is bound on first use so that
	// scheduling a completion never allocates a closure.
	finish func()

	intq sim.FIFO[*job] // pending interrupt-level jobs
	thq  sim.FIFO[*job] // pending thread-level jobs
	jobs sim.Pool[*job] // recycled jobs, filled as jobs complete

	busy     sim.Time // accumulated busy time
	jobsDone int64
}

// NewCPU returns an idle CPU.
func NewCPU(eng *sim.Engine) *CPU {
	return &CPU{eng: eng}
}

// BusyTime returns the total time the CPU has spent executing completed or
// partially-executed work.
func (c *CPU) BusyTime() sim.Time { return c.busy }

// JobsDone returns the number of completed jobs.
func (c *CPU) JobsDone() int64 { return c.jobsDone }

// Idle reports whether the CPU has no running or queued work.
func (c *CPU) Idle() bool { return c.cur == nil && c.intq.Len() == 0 && c.thq.Len() == 0 }

// Submit schedules work of the given duration; done runs on completion.
// Zero-duration work completes via the event queue (preserving ordering).
func (c *CPU) Submit(prio Priority, name string, d sim.Time, done func()) {
	if d < 0 {
		panic(fmt.Sprintf("cab: negative CPU work %v", d))
	}
	j := c.jobs.Get()
	if j == nil {
		j = new(job)
	}
	j.prio, j.remaining, j.done, j.name = prio, d, done, name
	if prio == PrioInterrupt {
		c.intq.Push(j)
		// Preempt thread-level work.
		if c.cur != nil && c.cur.prio == PrioThread {
			c.preempt()
		}
	} else {
		c.thq.Push(j)
	}
	c.dispatch()
}

// preempt stops the current thread-level job, banking its progress, and
// requeues it at the front of the thread queue.
func (c *CPU) preempt() {
	elapsed := c.eng.Now() - c.curStart
	c.busy += elapsed
	c.cur.remaining -= elapsed
	if c.cur.remaining < 0 {
		c.cur.remaining = 0
	}
	c.eng.Cancel(c.curEvent)
	c.thq.PushFront(c.cur)
	c.cur = nil
	c.curEvent = sim.Event{}
}

// dispatch starts the next job if the CPU is free.
func (c *CPU) dispatch() {
	if c.cur != nil {
		return
	}
	var j *job
	switch {
	case c.intq.Len() > 0:
		j = c.intq.Pop()
	case c.thq.Len() > 0:
		j = c.thq.Pop()
	default:
		return
	}
	if c.finish == nil {
		c.finish = c.complete
	}
	c.cur = j
	c.curStart = c.eng.Now()
	c.curEvent = c.eng.After(j.remaining, c.finish)
}

// complete retires the running job: the job goes back to the free list
// before its callback runs, so a callback that submits more work reuses it.
func (c *CPU) complete() {
	j := c.cur
	c.busy += c.eng.Now() - c.curStart
	c.cur = nil
	c.curEvent = sim.Event{}
	c.jobsDone++
	done := j.done
	j.done, j.name = nil, ""
	c.jobs.Put(j)
	if done != nil {
		done()
	}
	c.dispatch()
}

// RunInterrupt is a convenience for interrupt handlers: charge `d` of
// interrupt-level CPU time, then run fn.
func (c *CPU) RunInterrupt(name string, d sim.Time, fn func()) {
	c.Submit(PrioInterrupt, name, d, fn)
}

// Compute blocks the calling process for d of thread-level CPU time
// (stretched by any interrupts that arrive meanwhile). The completion
// resumes the process through its bound waker, so a Compute allocates
// nothing in steady state.
func (c *CPU) Compute(p *sim.Proc, name string, d sim.Time) {
	c.Submit(PrioThread, name, d, p.Waker())
	p.Park()
}
