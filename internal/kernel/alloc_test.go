package kernel

import (
	"testing"

	"repro/internal/sim"
)

// Steady-state allocation guards for thread scheduling: a context switch,
// a sleep and a (timed) condition wait reuse the thread's own waiter,
// timer and bound callbacks.

func TestThreadSleepZeroAlloc(t *testing.T) {
	eng, k := newKernel()
	stop := false
	k.Spawn("sleeper", func(th *Thread) {
		for !stop {
			th.Sleep(sim.Microsecond)
		}
	})
	// A sleep is a timer plus a context switch back in.
	round := func() { eng.RunUntil(eng.Now() + 13*sim.Microsecond) }
	for i := 0; i < 200; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Thread.Sleep allocates %.0f per sleep, want 0", n)
	}
	stop = true
	eng.Run()
}

func TestCondWaitSignalZeroAlloc(t *testing.T) {
	eng, k := newKernel()
	c := k.NewCond()
	timed := k.NewCond()
	stop := false
	k.Spawn("waiter", func(th *Thread) {
		for !stop {
			c.Wait(th)
		}
	})
	k.Spawn("timed", func(th *Thread) {
		for !stop {
			timed.WaitTimeout(th, 50*sim.Microsecond)
		}
	})
	// One signaled wait and one timed wait that times out per round.
	round := func() {
		c.Signal()
		eng.RunUntil(eng.Now() + 100*sim.Microsecond)
	}
	for i := 0; i < 200; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Cond wait/signal allocates %.0f per round, want 0", n)
	}
	stop = true
	c.Broadcast()
	eng.Run()
}
