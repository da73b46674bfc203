package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// sample is what one measurement process reports: one assembly-and-run of
// a workload. The parent aggregates samples into the printed metrics.
type sample struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Host clock. SetupS is the CPU time set-up took (see setupTimer),
	// SetupWallS its wall time; the window values cover the measured
	// window (warm-up excluded).
	SetupS     float64 `json:"setup_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	WallS      float64 `json:"wall_s"`
	Events     uint64  `json:"events"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	// Virtual clock, over the measured window.
	WindowMs  float64 `json:"window_ms"`
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	Shed      int64   `json:"shed"`
	Goodput   int64   `json:"goodput_bytes"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
	Steps     int64   `json:"coll_steps"`
	StepErrs  int64   `json:"coll_errors"`
	WrongSums int64   `json:"wrong_sums"`
	Digest    string  `json:"digest"`
	// Latencies are every completed operation's latency in ns, so that
	// quantiles can pool several inputs exactly.
	Latencies []int64 `json:"latencies_ns"`

	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// attempted is the operation count a result's fail fraction is taken over:
// completed operations, shed arrivals, and collective supersteps.
func (s *sample) attempted() int64 { return s.Ops + s.Shed + s.Steps + s.StepErrs }

// failed counts errors, shed arrivals, failed allreduces and wrong sums.
func (s *sample) failed() int64 { return s.Errors + s.Shed + s.StepErrs + s.WrongSums }

// system is one assembled workload, ready to run.
type system struct {
	sys *core.System
	bsp *bsp // nil unless the workload has collectives
}

// assemble builds the workload's system: core.New and, for collective
// workloads, the group.
func (w *workload) assemble(extra ...core.Option) *system {
	opts := append(append([]core.Option(nil), w.opts...), extra...)
	s := &system{sys: core.New(w.topo, opts...)}
	if w.bspBytes > 0 {
		s.bsp = newBSP(s.sys)
	}
	return s
}

// setupTimer adds up the set-up phases of one run: assembly, starting the
// benchmark's own workers, and load.Run installing its servers and clients
// before the engine runs the load. It keeps CPU time (all threads of the
// process), which is what setup_s reports: over so short an interval, wall
// time on a shared host mostly measures how long the process waits for a
// CPU, not the work set-up does. The wall time is kept for comparison.
type setupTimer struct {
	cpu, wall float64
	cpu0      float64
	wall0     time.Time
}

func (t *setupTimer) start() { t.cpu0, t.wall0 = cpuSeconds(), time.Now() }

func (t *setupTimer) stop() {
	t.cpu += cpuSeconds() - t.cpu0
	t.wall += time.Since(t.wall0).Seconds()
}

// cpuSeconds is the CPU time this process has used so far, to the
// nanosecond, or NaN when the kernel does not say (the metric check then
// fails the run). getrusage would round it to microseconds, too coarse
// for a sub-millisecond set-up.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return math.NaN()
	}
	return float64(ts.Nano()) / 1e9
}

// windowProbe records host counters when the simulation reaches the start
// of the measured window. It is a read-only engine event, so it changes
// neither the event order of the workload nor its digest.
type windowProbe struct {
	wall    time.Time
	events  uint64
	mallocs uint64
	bytes   uint64
	hook    func() // extra read-only work at the mark (traced runs)
}

func (p *windowProbe) arm(eng *sim.Engine, at sim.Time) {
	eng.At(at, func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.mallocs, p.bytes = ms.Mallocs, ms.TotalAlloc
		p.events = eng.Executed()
		if p.hook != nil {
			p.hook()
		}
		p.wall = time.Now()
	})
}

// run assembles the workload, drives the load on it and measures the
// measured window. before, when non-nil, sees the system before the load
// starts (the traced run arms its probes there); after sees it once the
// load has finished.
func (w *workload) run(seed int64, extra []core.Option, before func(*system, *windowProbe), after func(*system, *sample)) (*sample, error) {
	out := &sample{Workload: w.name, Seed: seed}
	var setup setupTimer
	setup.start()
	s := w.assemble(extra...)
	cfg := w.cfg(seed)
	start := s.sys.Eng.Now()
	mark, end := start+cfg.Warmup, start+cfg.Warmup+cfg.Duration
	if s.bsp != nil {
		s.bsp.start(s.sys, seed, w.bspBytes, mark, end)
	}
	setup.stop()
	probe := &windowProbe{}
	if before != nil {
		before(s, probe)
	}
	probe.arm(s.sys.Eng, mark)
	// Set-up ends when the engine starts on the events load.Run schedules:
	// this read-only event at the start time runs after everything queued
	// during assembly and before anything load.Run queues.
	s.sys.Eng.At(start, setup.stop)
	setup.start()
	res := load.Run(s.sys, cfg)
	wall := time.Since(probe.wall).Seconds()
	out.SetupS, out.SetupWallS = setup.cpu, setup.wall
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.WallS = wall
	out.Events = s.sys.Eng.Executed() - probe.events
	out.Mallocs = ms.Mallocs - probe.mallocs
	out.AllocBytes = ms.TotalAlloc - probe.bytes

	out.WindowMs = float64(cfg.Duration) / float64(sim.Millisecond)
	out.Ops, out.Errors, out.Shed, out.Goodput = res.Ops, res.Errors, res.Shed, res.Goodput
	for _, v := range res.Latency.Samples() {
		out.Latencies = append(out.Latencies, int64(v))
	}
	if res.Latency.Count() > 0 {
		out.P50Us = float64(res.Latency.Quantile(0.50)) / float64(sim.Microsecond)
		out.P99Us = float64(res.Latency.Quantile(0.99)) / float64(sim.Microsecond)
	}
	digest := res.Digest
	if b := s.bsp; b != nil {
		out.Steps, out.StepErrs, out.WrongSums = b.steps, b.errors, b.wrongSums
		digest ^= b.digest
	}
	out.Digest = fmt.Sprintf("%016x", digest)
	if after != nil {
		after(s, out)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	out.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return out, nil
}
