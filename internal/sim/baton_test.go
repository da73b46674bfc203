package sim_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// A process that only sleeps keeps the baton: its own goroutine fires its
// wake-ups, so the run costs one handoff to start it and one to return.
func TestLoneSleeperHandoffs(t *testing.T) {
	e := sim.NewEngine()
	slept := 0
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
			slept++
		}
	})
	e.Run()
	if slept != 1000 || e.Now() != 1000 {
		t.Fatalf("slept %d times, now %v; want 1000, 1000ns", slept, e.Now())
	}
	if h := sim.Handoffs(e); h > 2 {
		t.Errorf("%d handoffs for 1000 sleeps, want <= 2", h)
	}
}

// Each wake of one process by another costs exactly one handoff: the
// waker's goroutine passes the baton straight to the woken process.
func TestPingPongHandoffs(t *testing.T) {
	const rounds = 500
	e := sim.NewEngine()
	ping, pong := sim.NewSignal(e), sim.NewSignal(e)
	e.Go("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Wait(p)
			pong.Signal()
		}
	})
	e.Go("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Signal()
			pong.Wait(p)
		}
	})
	e.Run()
	// Two starts, one return to Run's caller, and per round a wakes b and
	// b wakes a.
	if h, want := sim.Handoffs(e), uint64(2+1+2*rounds); h != want {
		t.Errorf("%d handoffs for %d rounds, want %d", h, rounds, want)
	}
}

// The deadlock diagnostic names the blocked processes in spawn order,
// leaving out daemons and finished processes.
func TestDeadlockNamesProcessesInSpawnOrder(t *testing.T) {
	e := sim.NewEngine()
	s := sim.NewSignal(e)
	wait := func(p *sim.Proc) { s.Wait(p) }
	e.Go("c", wait)
	e.GoDaemon("server", wait)
	e.Go("a", wait)
	e.Go("finished", func(p *sim.Proc) { p.Sleep(1) })
	e.Go("b", wait)
	const want = "sim: deadlock: 3 process(es) blocked with no pending events: c a b"
	if got := recovered(func() { e.Run() }); got != want {
		t.Errorf("Run panicked with %q, want %q", got, want)
	}
}

// recovered calls f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// A panic raised by an event callback while a process holds the baton
// reaches the caller of Run or RunUntil with its value, not the blocked
// process body's own recover. The engine then carries on as if the caller
// had fired the event itself: the process still wakes on time.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *sim.Engine)
	}{
		{"Run", func(e *sim.Engine) { e.Run() }},
		{"RunUntil", func(e *sim.Engine) { e.RunUntil(50) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			woke := sim.Time(-1)
			bodyRecovered := false
			e.Go("sleeper", func(p *sim.Proc) {
				defer func() {
					if recover() != nil {
						bodyRecovered = true
					}
				}()
				p.Sleep(100)
				woke = p.Now()
			})
			e.At(10, func() { e.At(5, func() {}) })
			const want = "sim: scheduling event at 5ns before now 10ns"
			if got := recovered(func() { tc.run(e) }); got != want {
				t.Fatalf("%s panicked with %v, want %q", tc.name, got, want)
			}
			if h := sim.Handoffs(e); h != 2 {
				t.Errorf("%d handoffs before the panic, want 2 (the callback fired on the process goroutine)", h)
			}
			if bodyRecovered {
				t.Error("the blocked process body recovered the callback's panic")
			}
			e.Run()
			if woke != 100 {
				t.Errorf("process woke at %v after the recovered panic, want 100ns", woke)
			}
		})
	}
}

// runtime.Goexit in an event callback (t.FailNow, say) ends the goroutine
// that called Run, as it would if that goroutine had fired the event. The
// engine stays usable: here the callback fires on the goroutine of a
// finished process, which an event just before it at the same time handed
// a new process to start. That process moves to a new goroutine and runs in
// the next Run.
func TestCallbackGoexitReachesRunCaller(t *testing.T) {
	e := sim.NewEngine()
	woke := sim.Time(-1)
	e.Go("sleeper", func(p *sim.Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	e.Go("finished", func(p *sim.Proc) {})
	ran := false
	e.At(10, func() { e.Go("next", func(p *sim.Proc) { ran = true }) })
	e.At(10, runtime.Goexit)
	if onGoroutine(t, func() { e.Run() }) {
		t.Error("Run returned normally after runtime.Goexit in a callback")
	}
	if ran {
		t.Error("a process started at 10ns ran before the Goexit at 10ns reached Run's caller")
	}
	if !onGoroutine(t, func() { e.Run() }) {
		t.Fatal("Run did not return")
	}
	if !ran || woke != 100 {
		t.Errorf("after the Goexit: next ran %v, sleeper woke at %v; want true, 100ns", ran, woke)
	}
}

// runtime.Goexit in a callback fired on a blocked process's goroutine ends
// that process: its body's deferred calls run before Run's caller regains
// control (under -race, touching the engine from them is not a race), a
// deferred call that blocks ends there, and the engine never resumes the
// process, so its pending wake-up is dropped and it is not counted as
// deadlocked.
func TestCallbackGoexitEndsBlockedProcess(t *testing.T) {
	e := sim.NewEngine()
	s := sim.NewSignal(e)
	deferred, woke, slept := sim.Time(-1), false, false
	waiterWoke := sim.Time(-1)
	e.Go("waiter", func(p *sim.Proc) {
		s.Wait(p)
		waiterWoke = p.Now()
	})
	// The waiter blocks first, so the sleeper's goroutine fires the Goexit.
	e.Go("sleeper", func(p *sim.Proc) {
		defer func() {
			deferred = p.Now()
			s.Signal()
			p.Sleep(5) // the process has ended: this ends the deferred call
			slept = true
		}()
		p.Sleep(100)
		woke = true
	})
	e.At(10, runtime.Goexit)
	if onGoroutine(t, func() { e.Run() }) {
		t.Error("Run returned normally after runtime.Goexit in a callback")
	}
	if deferred != 10 {
		t.Errorf("the ended process's deferred call ran at %v, want 10ns", deferred)
	}
	if !onGoroutine(t, func() { e.Run() }) {
		t.Fatal("Run did not return")
	}
	if woke || slept || waiterWoke != 10 {
		t.Errorf("after the Goexit: sleeper woke %v, slept in its deferred call %v, waiter woke at %v; want false, false, 10ns", woke, slept, waiterWoke)
	}
}

// onGoroutine calls f on a new goroutine and reports whether it returned
// rather than ending in runtime.Goexit.
func onGoroutine(t *testing.T, f func()) bool {
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		f()
		returned = true
	}()
	select {
	case returned := <-done:
		return returned
	case <-time.After(10 * time.Second):
		t.Fatal("still blocked after 10s")
		return false
	}
}

// A process started after another finished runs on the finished one's
// goroutine: a chain of processes, each started by an event after its
// predecessor ends, needs no handoff beyond the run's first and last.
func TestFinishedProcessGoroutineRunsNextProcess(t *testing.T) {
	const n = 100
	e := sim.NewEngine()
	ran := 0
	var start func()
	start = func() {
		e.Go("link", func(p *sim.Proc) {
			p.Sleep(1)
			if ran++; ran < n {
				e.After(1, start)
			}
		})
	}
	start()
	e.Run()
	if ran != n {
		t.Fatalf("%d processes ran, want %d", ran, n)
	}
	if h := sim.Handoffs(e); h != 2 {
		t.Errorf("%d handoffs for a chain of %d processes, want 2", h, n)
	}
}
