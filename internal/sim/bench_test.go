package sim

import "testing"

// Wall-clock micro-benchmarks of the engine itself (the substrate's own
// speed, as opposed to the simulated-time results in the root bench file).
// The schedule-heavy churn benchmarks have baseline twins in
// baseline_bench_test.go; cmd/nectar-fleet runs both loops head-to-head and
// records the speedup in BENCH_fleet.json.

func BenchmarkEventScheduleAndFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.RunUntil(e.Now() + 1)
	}
}

func BenchmarkEventHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep ~64 events in flight.
		for j := 0; j < 64; j++ {
			e.After(Time(j%7+1), func() {})
		}
		e.RunUntil(e.Now() + 8)
	}
	e.Run()
}

// BenchmarkEventChurnCancelHeavy models a retransmission-timer workload:
// most scheduled events are canceled before they fire (a healthy network
// acks almost everything), so the heap must recycle dead slots cheaply.
func BenchmarkEventChurnCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var timers [64]Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			timers[j] = e.After(Time(j%13+2), func() {})
		}
		for j := 0; j < 64; j++ {
			if j%8 != 0 { // 7 of 8 timers canceled before expiry
				e.Cancel(timers[j])
			}
		}
		e.RunUntil(e.Now() + 4)
	}
	e.Run()
}

func BenchmarkProcSleepWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	stop := false
	e.GoDaemon("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	stop = true
	e.RunUntil(e.Now() + 2)
}

// BenchmarkSignalHandoff times one Signal round trip between two processes
// per RunUntil: a wakes b through ping, b answers through pong, and a
// sleeps to the next nanosecond.
func BenchmarkSignalHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping := NewSignal(e)
	pong := NewSignal(e)
	rounds := 0
	stop := false
	e.GoDaemon("b", func(p *Proc) {
		for {
			ping.Wait(p)
			if stop {
				return
			}
			rounds++
			pong.Signal()
		}
	})
	e.GoDaemon("a", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			ping.Signal()
			pong.Wait(p)
		}
	})
	e.RunUntil(0) // b waits on ping, a sleeps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	if rounds != b.N {
		b.Fatalf("%d rounds in %d iterations", rounds, b.N)
	}
	stop = true
	e.RunUntil(e.Now() + 1) // a wakes b, which returns; a waits on pong
	pong.Signal()
	e.RunUntil(e.Now())
}

// BenchmarkProcSleepInRun times Proc.Sleep inside one Run, where no other
// process or caller competes for control.
func BenchmarkProcSleepInRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkPingPongInRun times one Signal round trip between two processes
// inside one Run: every wait is ended by the other process.
func BenchmarkPingPongInRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping := NewSignal(e)
	pong := NewSignal(e)
	rounds := 0
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			rounds++
			pong.Signal()
		}
	})
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Signal()
			pong.Wait(p)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if rounds != b.N {
		b.Fatalf("%d rounds in %d iterations", rounds, b.N)
	}
}
