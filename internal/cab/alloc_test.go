package cab

import (
	"testing"

	"repro/internal/sim"
)

// Steady-state allocation guards for the CAB CPU and timers: once the job
// free list and queues are warm, charging CPU time allocates nothing.

// warm runs f enough times to fill the engine's slot pool and the CPU's
// job free list.
func warm(f func()) {
	for i := 0; i < 200; i++ {
		f()
	}
}

func TestCPUSubmitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	jobs := 0
	done := func() { jobs++ }
	round := func() {
		cpu.Submit(PrioThread, "t", 3, done)
		cpu.Submit(PrioInterrupt, "i", 2, done)
		eng.RunUntil(eng.Now() + 5)
	}
	warm(round)
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Submit+completion allocates %.0f per round, want 0", n)
	}
	if jobs != 2*(200+1001) {
		t.Fatalf("completed %d jobs", jobs)
	}
}

func TestCPUComputeZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	stop := false
	eng.Go("worker", func(p *sim.Proc) {
		for !stop {
			cpu.Compute(p, "work", 4)
		}
	})
	round := func() { eng.RunUntil(eng.Now() + 4) }
	warm(round)
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Compute allocates %.0f per call, want 0", n)
	}
	stop = true
	eng.Run()
}

func TestCPUPreemptionZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	stop := false
	eng.Go("worker", func(p *sim.Proc) {
		for !stop {
			cpu.Compute(p, "long", 1000)
		}
	})
	// Every round preempts the thread-level job with an interrupt, then
	// lets the thread job resume with its banked remaining time.
	intr := func() {}
	round := func() {
		cpu.RunInterrupt("irq", 2, intr)
		eng.RunUntil(eng.Now() + 10)
	}
	warm(round)
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("preemption allocates %.0f per interrupt, want 0", n)
	}
	stop = true
	eng.Run()
}

func TestTimersArmZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	timers := NewTimers(eng)
	var tm Timer
	fired := 0
	fn := func() { fired++ }
	round := func() {
		timers.Arm(&tm, 5, fn)
		eng.RunUntil(eng.Now() + 5)
	}
	warm(round)
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("re-arming a timer allocates %.0f, want 0", n)
	}
	if !tm.Fired() || fired != 1201 || timers.Expired() != 1201 {
		t.Fatalf("fired=%v count=%d expired=%d", tm.Fired(), fired, timers.Expired())
	}
}

func TestTimersArmPendingPanics(t *testing.T) {
	eng := sim.NewEngine()
	timers := NewTimers(eng)
	var tm Timer
	timers.Arm(&tm, 5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer did not panic")
		}
	}()
	timers.Arm(&tm, 5, func() {})
}
