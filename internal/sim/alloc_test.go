package sim

import "testing"

// Steady-state allocation guards for the process primitives: once the
// engine's slot pool and the queues are warm, waking a process allocates
// nothing. Each test stops its processes before returning.

func TestProcSleepZeroAlloc(t *testing.T) {
	e := NewEngine()
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	e.RunUntil(2 * slotChunk) // warm the slot free list
	if n := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("Proc.Sleep allocates %.0f per wake-up, want 0", n)
	}
	stop = true
	e.Run()
}

func TestSignalWaitBroadcastZeroAlloc(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	stop := false
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) {
			for !stop {
				sig.Wait(p)
			}
		})
	}
	wake := func() {
		sig.Broadcast()
		e.RunUntil(e.Now() + 1)
	}
	e.RunUntil(0)
	for i := 0; i < 2*slotChunk; i++ {
		wake()
	}
	if n := testing.AllocsPerRun(1000, wake); n != 0 {
		t.Errorf("Signal.Wait+Broadcast allocates %.0f per round, want 0", n)
	}
	stop = true
	wake()
	e.Run()
}

func TestSignalWaitTimeoutZeroAlloc(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	stop := false
	e.Go("waiter", func(p *Proc) {
		for !stop {
			sig.WaitTimeout(p, 10)
		}
	})
	// Alternate the two ways a timed wait ends: the signal wins, then the
	// timeout does.
	round := func() {
		sig.Signal()
		e.RunUntil(e.Now() + 1)
		e.RunUntil(e.Now() + 10)
	}
	e.RunUntil(0)
	for i := 0; i < 2*slotChunk; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Signal.WaitTimeout allocates %.0f per round, want 0", n)
	}
	stop = true
	e.Run()
}

func TestWakerParkZeroAlloc(t *testing.T) {
	e := NewEngine()
	stop := false
	e.Go("parker", func(p *Proc) {
		for !stop {
			e.After(1, p.Waker())
			p.Park()
		}
	})
	e.RunUntil(2 * slotChunk)
	if n := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("Waker+Park allocates %.0f per wake-up, want 0", n)
	}
	stop = true
	e.Run()
}

// A Waker wake-up is the event a one-waiter Broadcast schedules: same time,
// same place in the FIFO tie-break, so the two interleave identically with
// other same-time events.
func TestWakerMatchesOneWaiterBroadcast(t *testing.T) {
	trace := func(useWaker bool) []string {
		e := NewEngine()
		var log []string
		e.Go("w", func(p *Proc) {
			if useWaker {
				e.After(5, func() {
					e.At(e.Now(), func() { log = append(log, "before") })
					p.Waker()()
					e.At(e.Now(), func() { log = append(log, "after") })
				})
				p.Park()
			} else {
				s := NewSignal(e)
				e.After(5, func() {
					e.At(e.Now(), func() { log = append(log, "before") })
					s.Broadcast()
					e.At(e.Now(), func() { log = append(log, "after") })
				})
				s.Wait(p)
			}
			log = append(log, "resumed")
		})
		e.Run()
		return log
	}
	w, b := trace(true), trace(false)
	if len(w) != 3 || len(b) != 3 {
		t.Fatalf("waker %v, broadcast %v", w, b)
	}
	for i := range w {
		if w[i] != b[i] {
			t.Fatalf("waker order %v differs from broadcast order %v", w, b)
		}
	}
}
