package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The traced run: the same workload and seed with span tracing and the
// metrics registry armed, under a CPU profile and an allocation profile.
// Every per-layer number is read from outside the program: registry
// counters, span trees, profile stacks, and timed calls into public
// functions.

// hostLayers are the buckets CPU samples and allocations are folded into:
// the repro/internal package of the innermost repository frame ("bench" is
// this benchmark's own code, the BSP workers).
var hostLayers = []string{
	"sim", "kernel", "cab", "hub", "fiber", "datalink", "transport",
	"coll", "topo", "obs", "trace", "load", "core", "bench",
}

// vtLayers are the span layers whose virtual-time busy time is reported
// per message.
var vtLayers = []string{
	trace.LayerApp, trace.LayerColl, trace.LayerKernel, trace.LayerTransport,
	trace.LayerDatalink, trace.LayerDMA, trace.LayerHub, trace.LayerFiber,
}

// Traced-run settings.
const (
	// tracedSpans bounds retained spans: enough for every span of the two
	// small workloads, so breakdowns cover every message of the window.
	tracedSpans = 1 << 21
	// cpuProfileHz samples the CPU profile faster than pprof's 100 Hz so
	// a few seconds of run give thousands of samples. The profile states
	// this rate, each sample being one period of CPU time.
	cpuProfileHz = 1000
	// memProfileRate samples one allocation per this many bytes.
	memProfileRate = 16384
)

// tracedOptions arms what the traced run adds to the workload: span
// tracing with a retention bound large enough for whole-run breakdowns,
// and the metrics registry. A workload that samples spans already (WithSLO
// arms tail sampling) keeps its sampling.
func tracedOptions() []core.Option {
	return []core.Option{
		core.WithTraceSpans(),
		core.WithMetrics(),
		func(p *core.Params) { p.TraceSpans = tracedSpans },
	}
}

// runTraced runs the workload once with tracing and profiles armed and
// fills the sample's Layers.
func (w *workload) runTraced(seed int64) (*sample, error) {
	// Time the engine first, on a small heap with no other goroutines.
	fireNs, switchNs := engineStats()
	runtime.MemProfileRate = memProfileRate
	var (
		cpu       bytes.Buffer
		heapKB    float64
		regMark   *trace.Snapshot
		allocMark map[[32]uintptr]float64
		profErr   error
	)
	before := func(s *system, probe *windowProbe) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapKB = float64(ms.HeapAlloc) / 1024 / float64(s.sys.NumCABs())
		probe.hook = func() {
			regMark = s.sys.Reg.Snapshot()
			allocMark = allocRecords()
			runtime.SetCPUProfileRate(cpuProfileHz)
			profErr = pprof.StartCPUProfile(&cpu)
		}
	}
	var (
		regEnd   *trace.Snapshot
		allocEnd map[[32]uintptr]float64
		s        *system
	)
	after := func(sys *system, out *sample) {
		pprof.StopCPUProfile()
		s = sys
		regEnd = s.sys.Reg.Snapshot()
		allocEnd = allocRecords()
	}
	out, err := w.run(seed, tracedOptions(), before, after)
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	samples, err := readProfile(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	out.Layers = m

	// Host time, by sampling this process.
	self, alloc, total := foldCPU(samples)
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	for _, l := range hostLayers {
		m[l+".self_pct"] = pct(self[l])
		m[l+".alloc_pct"] = pct(alloc[l])
	}
	m["sim.switch_pct"] = pct(self["sim.switch"])
	m["rt.alloc_pct"] = pct(self["rt.alloc"])
	m["rt.gc_pct"] = pct(self["rt.gc"])
	m["rt.other_pct"] = pct(self["rt.other"])
	m["host.unattributed_pct"] = pct(self["unattributed"])
	m["host.cpu_samples"] = float64(total) / (1e9 / cpuProfileHz)
	bytesBy := map[string]float64{}
	for stk, b := range allocEnd {
		if d := b - allocMark[stk]; d > 0 {
			n := 0
			for n < len(stk) && stk[n] != 0 {
				n++
			}
			bytesBy[layerOfStack(stk[:n])] += d
		}
	}
	for _, l := range hostLayers {
		m[l+".alloc_bytes_per_event"] = bytesBy[l] / float64(out.Events)
	}

	// Host time, by timing calls into public functions.
	m["sim.schedule_fire_ns"], m["sim.proc_switch_ns"] = fireNs, switchNs
	m["topo.avg_hops"], m["topo.route_ns"] = routeStats(s.sys.Net, s.sys.Params.Routing)

	// Counters, over the measured window.
	ops := float64(out.Ops + out.Steps)
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	window := float64(w.cfg(seed).Duration)
	m["sim.events_per_op"] = perOp(float64(out.Events))
	m["kernel.switches_per_op"] = perOp(sumMatch(regEnd, regMark, "", ".kernel.switches"))
	m["kernel.spawned_per_op"] = perOp(sumMatch(regEnd, regMark, "", ".kernel.spawned"))
	m["cab.heap_kb_per_cab"] = heapKB
	m["cab.cpu_busy_frac"] = sumMatch(regEnd, regMark, "", ".cpu.busy_ns") / window / float64(s.sys.NumCABs())
	m["cab.dma_bytes_per_op"] = perOp(sumMatch(regEnd, regMark, ".dma.", ".bytes"))
	peak, drops := hubStats(s.sys.Net)
	m["hub.peak_queue_bytes"] = float64(peak)
	m["hub.drops"] = float64(drops)
	m["datalink.packets_per_op"] = perOp(sumMatch(regEnd, regMark, "", ".datalink.packets_sent"))
	m["datalink.open_timeouts"] = sumMatch(regEnd, regMark, "", ".datalink.open_timeouts")
	m["transport.retransmits"] = sumMatch(regEnd, regMark, "", ".transport.retransmits")
	m["coll.steps_per_s"] = float64(out.Steps) / (window / float64(sim.Second))
	m["coll.errors"] = sumMatch(regEnd, regMark, "", "coll.errors")
	m["coll.send_retries"] = sumMatch(regEnd, regMark, "", "coll.send_retries")
	m["load.fail_frac"] = 0
	if a := out.attempted(); a > 0 {
		m["load.fail_frac"] = float64(out.failed()) / float64(a)
	}

	// Virtual time, from the span trees.
	s.sys.Tr.FlushTail()
	m["trace.spans_retained"] = float64(len(s.sys.Tr.Spans()))
	cfg := w.cfg(seed)
	spanStats(s.sys.Tr, cfg.Warmup, cfg.Warmup+cfg.Duration, m)
	return out, nil
}

// allocRecords returns the allocation profile's cumulative bytes per
// stack, flushed by a GC so it is current, and scaled for sampling the way
// pprof scales a heap profile.
func allocRecords() map[[32]uintptr]float64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]float64, len(recs))
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		avg := float64(r.AllocBytes) / float64(r.AllocObjects)
		out[r.Stack0] += float64(r.AllocBytes) / (1 - math.Exp(-avg/memProfileRate))
	}
	return out
}

// foldCPU folds CPU samples into host buckets: each sample goes to exactly
// one of the layers' self time, sim.switch, rt.alloc, rt.gc, rt.other, or
// unattributed. alloc holds the rt.alloc samples split by the nearest
// repository frame's layer.
func foldCPU(samples []stackSample) (self, alloc map[string]int64, total int64) {
	self, alloc = map[string]int64{}, map[string]int64{}
	for _, s := range samples {
		total += s.value
		bucket, allocLayer := classify(s.funcs)
		self[bucket] += s.value
		if allocLayer != "" {
			alloc[allocLayer] += s.value
		}
	}
	return self, alloc, total
}

// classify returns the bucket of one stack (leaf first) and, for
// allocation samples, the layer the allocation is charged to.
func classify(funcs []string) (bucket, allocLayer string) {
	if len(funcs) == 0 {
		return "unattributed", ""
	}
	repo := ""
	for _, f := range funcs {
		if l := layerOf(f); l != "" {
			repo = l
			break
		}
	}
	leafPkg := pkgOf(funcs[0])
	switch {
	case isRuntime(leafPkg):
		switch {
		case anyIn(funcs, gcFuncs):
			return "rt.gc", ""
		case anyIn(funcs, allocFuncs):
			if repo == "" {
				repo = "rt"
			}
			return "rt.alloc", repo
		case anyIn(funcs, switchFuncs):
			return "sim.switch", ""
		}
		return "rt.other", ""
	case repo != "":
		return repo, ""
	}
	return "unattributed", ""
}

// Runtime functions whose presence anywhere in a stack marks it as garbage
// collection, allocation, or goroutine switching. Goroutine handoff in this
// program is the sim.Proc wake/park channel pair, so scheduler, channel and
// futex time is charged to it.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
		"runtime.wbBufFlush1", "runtime.bulkBarrierPreWrite", "runtime.GC",
		"runtime._GC",
	}
	allocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.makemap_small",
		"runtime.makechan", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.(*mcache).refill", "runtime.(*mheap).alloc",
	}
	switchFuncs = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.gopark",
		"runtime.goready", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.mcall", "runtime.futex",
		"runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.ready",
		"runtime.newproc", "runtime.goexit0", "runtime.gfget",
		"runtime.selectgo", "runtime.usleep", "runtime.osyield",
	}
)

func anyIn(funcs, set []string) bool {
	for _, f := range funcs {
		for _, g := range set {
			if f == g {
				return true
			}
		}
	}
	return false
}

// pkgOf returns the import path of a pprof function name such as
// "repro/internal/hub/comb.(*Engine).resolve" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf maps a function to its host layer, or "" for code outside the
// repository.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	if pkg == "main" {
		return "bench"
	}
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.Index(rest, "/"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerOfStack is layerOf for the innermost repository frame of a PC
// stack, or "rt" when the stack holds none.
func layerOfStack(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if l := layerOf(f.Function); l != "" {
			return l
		}
		if !more {
			return "rt"
		}
	}
}

// routeStats measures route length and route-computation time over the
// same long-haul CAB pairs S1 samples (i -> i+n/2, up to 64 pairs).
func routeStats(net *topo.Network, policy topo.Policy) (avgHops, nsPerRoute float64) {
	n := len(net.Boards())
	type pair struct{ a, b int }
	var pairs []pair
	for i := 0; i < n && len(pairs) < 64; i += 1 + n/64 {
		pairs = append(pairs, pair{i, (i + n/2) % n})
	}
	hops, routed := 0, 0
	var times []float64
	for rep := 0; rep < 5; rep++ {
		r := topo.NewRouter(net, policy)
		t0 := time.Now()
		for _, p := range pairs {
			path, err := r.Route(p.a, p.b)
			if err == nil && rep == 0 {
				hops += len(path)
				routed++
			}
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(len(pairs)))
	}
	if routed > 0 {
		avgHops = float64(hops) / float64(routed)
	}
	return avgHops, median(times)
}

// engineStats times the simulation engine from outside, in the shape of
// the sim package's own benchmarks: scheduling one event and firing it
// (Engine.After, then RunUntil), and one process switch (Proc.Sleep parks
// the process; the engine resumes it).
func engineStats() (scheduleFireNs, procSwitchNs float64) {
	const n = 200000
	noop := func() {}
	var fire, sw []float64
	for rep := 0; rep < 5; rep++ {
		eng := sim.NewEngine()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.After(1, noop)
			eng.RunUntil(eng.Now() + 1)
		}
		fire = append(fire, float64(time.Since(t0).Nanoseconds())/n)

		eng = sim.NewEngine()
		eng.GoDaemon("sleeper", func(p *sim.Proc) {
			for {
				p.Sleep(1)
			}
		})
		eng.RunUntil(0)
		t0 = time.Now()
		for i := 0; i < n/10; i++ {
			eng.RunUntil(eng.Now() + 1)
		}
		sw = append(sw, float64(time.Since(t0).Nanoseconds())/(n/10))
	}
	return median(fire), median(sw)
}

// peakQueue and drops read every HUB port.
func hubStats(net *topo.Network) (peak int, drops int64) {
	for _, h := range net.Hubs() {
		for i := 0; i < h.NumPorts(); i++ {
			p := h.Port(i)
			if q := p.PeakQueueBytes(); q > peak {
				peak = q
			}
			drops += p.Drops()
		}
	}
	return peak, drops
}

// sumMatch totals the registry read-outs and counters whose names contain
// infix and end in suffix, as the difference between two snapshots.
func sumMatch(end, mark *trace.Snapshot, infix, suffix string) float64 {
	match := func(k string) bool { return strings.Contains(k, infix) && strings.HasSuffix(k, suffix) }
	var v float64
	for k, x := range end.Funcs {
		if match(k) {
			v += x - mark.Funcs[k]
		}
	}
	for k, x := range end.Counters {
		if match(k) {
			v += float64(x - mark.Counters[k])
		}
	}
	return v
}

// spanStats computes the virtual-time per-layer metrics from the span trees
// that started in the measured window: each layer's busy time summed over
// the trees (trace.Breakdown per tree) per message, and the critical path
// of the p50 and p99 messages. Message trees are the "msg" roots; kernel
// context switches and collective operations are roots of their own and
// count towards their layers' busy time.
func spanStats(tr *trace.Tracer, mark, end sim.Time, m map[string]float64) {
	byRoot := trace.GroupByRoot(tr.Spans())
	busy := map[string]sim.Time{}
	var msgs []*trace.Span
	for _, r := range tr.Roots() {
		if !r.Ended() || r.Start() < mark || r.Start() > end {
			continue
		}
		if r.Name() == "msg" {
			msgs = append(msgs, r)
		}
		for _, st := range trace.Breakdown(byRoot[r]) {
			busy[st.Layer] += st.Busy
		}
	}
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	for _, l := range vtLayers {
		v := 0.0
		if len(msgs) > 0 {
			v = us(busy[l]) / float64(len(msgs))
		}
		m["vt."+l+".us_per_msg"] = v
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		r := trace.QuantileRoot(msgs, q.q)
		var pb trace.PathBreakdown
		if r != nil {
			pb = *trace.CriticalPathIn(byRoot[r], r, hub.TransferLatency)
		}
		m["vt.path."+q.name+".queue_us"] = us(pb.Queue)
		m["vt.path."+q.name+".service_us"] = us(pb.Service)
		m["vt.path."+q.name+".propagation_us"] = us(pb.Propagation)
		m["vt.path."+q.name+".software_us"] = us(pb.Software)
	}
	m["trace.msgs"] = float64(len(msgs))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
