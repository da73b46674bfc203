package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// runBudget bounds one benchmark invocation; children still running
	// at the deadline are killed.
	runBudget = 170 * time.Second
	// subRuns is how many inputs one --trace 0 run spreads the workload
	// over: process i runs sub-seed i mod subRuns (subSeed), and the
	// virtual-time metrics pool the first subRuns processes. A rare
	// congestion episode that hits one input then moves the pooled
	// quantiles by its true weight rather than all or nothing, and the
	// host-time medians rest on at least subRuns processes.
	subRuns = 8
	// maxUnattributedPct is the largest share of CPU samples the traced
	// run may leave outside every layer and runtime bucket.
	maxUnattributedPct = 5
)

// metric declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (the smoke test checks that it does).
type metric struct{ name, unit, better string }

// endToEndMetrics are reported with --trace 0, from untraced runs.
var endToEndMetrics = []metric{
	// Host clock.
	{"sim_ms_per_wall_s", "ms/s", "higher"},
	{"events_per_s", "1/s", "higher"},
	{"allocs_per_event", "1/event", "lower"},
	{"alloc_bytes_per_event", "B/event", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	// Virtual clock.
	{"sim_ops_per_s", "1/s", "higher"},
	{"sim_p50_us", "us", "lower"},
	{"sim_p99_us", "us", "lower"},
	{"sim_goodput_mbps", "Mb/s", "higher"},
}

// perLayerMetrics are reported with --trace 1, from the traced run.
var perLayerMetrics = func() []metric {
	var m []metric
	for _, l := range hostLayers {
		m = append(m,
			metric{l + ".self_pct", "%", "lower"},
			metric{l + ".alloc_pct", "%", "lower"},
			metric{l + ".alloc_bytes_per_event", "B/event", "lower"})
	}
	m = append(m,
		metric{"sim.switch_pct", "%", "lower"},
		metric{"rt.alloc_pct", "%", "lower"},
		metric{"rt.gc_pct", "%", "lower"},
		metric{"rt.other_pct", "%", "lower"},
		metric{"host.unattributed_pct", "%", "lower"},
		metric{"sim.events_per_op", "1/op", "lower"},
		metric{"sim.schedule_fire_ns", "ns", "lower"},
		metric{"sim.proc_switch_ns", "ns", "lower"},
		metric{"kernel.switches_per_op", "1/op", "lower"},
		metric{"kernel.spawned_per_op", "1/op", "lower"},
		metric{"cab.heap_kb_per_cab", "KiB", "lower"},
		metric{"cab.cpu_busy_frac", "frac", "lower"},
		metric{"cab.dma_bytes_per_op", "B/op", "lower"},
		metric{"hub.peak_queue_bytes", "B", "lower"},
		metric{"hub.drops", "count", "lower"},
		metric{"datalink.packets_per_op", "1/op", "lower"},
		metric{"datalink.open_timeouts", "count", "lower"},
		metric{"transport.retransmits", "count", "lower"},
		metric{"coll.steps_per_s", "1/s", "higher"},
		metric{"coll.errors", "count", "lower"},
		metric{"coll.send_retries", "count", "lower"},
		metric{"topo.avg_hops", "count", "lower"},
		metric{"topo.route_ns", "ns", "lower"},
		metric{"trace.spans_retained", "count", "lower"},
		metric{"load.fail_frac", "frac", "lower"},
	)
	for _, l := range vtLayers {
		m = append(m, metric{"vt." + l + ".us_per_msg", "us", "lower"})
	}
	for _, q := range []string{"p50", "p99"} {
		for _, k := range []string{"queue", "service", "propagation", "software"} {
			m = append(m, metric{"vt.path." + q + "." + k + "_us", "us", "lower"})
		}
	}
	return append(m, metric{"trace_overhead_pct", "%", "lower"})
}()

// driver runs one workload's measurements in child processes.
type driver struct {
	w       *workload
	seed    int64
	shorten int
}

// subSeed is the seed of the j-th input of a run with seed seed.
func subSeed(seed int64, j int) int64 { return seed*subRuns + int64(j) }

// runSeed inverts subSeed: the seed of the run an input belongs to.
func runSeed(input int64) int64 {
	q := input / subRuns
	if input%subRuns < 0 {
		q--
	}
	return q
}

// spawn runs this binary in child mode on one input and decodes the JSON
// it prints.
func (d *driver) spawn(ctx context.Context, mode string, seed int64, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", d.w.name,
		"-seed", strconv.FormatInt(seed, 10), "-shorten", strconv.Itoa(d.shorten))
	// Children die with the parent, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child for %s: %w\n%s", mode, d.w.name, err, stderr.Bytes())
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%s child for %s: decode: %w", mode, d.w.name, err)
	}
	return nil
}

// report is one invocation's outcome: metrics plus correctness verdicts.
type report struct {
	w         *workload
	seed      int64
	metrics   map[string]float64
	defs      []metric
	attempted int64
	failed    int64
	correct   bool
	problems  []string
	notes     []string // extra lines for the human-readable output
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd repeats the untraced workload in fresh processes, cycling
// through the run's subRuns inputs, until window has passed (and every
// input has run once). After each run process it times set-up alone in
// setupsPerRun more fresh processes, so set-up samples the same host
// conditions as the runs. Host-time metrics are medians over the
// processes; virtual-time metrics pool the subRuns inputs, and a repeated
// input must reproduce them.
func (d *driver) endToEnd(ctx context.Context, window time.Duration) (*report, error) {
	start := time.Now()
	var runs []*sample
	var setups, setupWalls []float64
	var last time.Duration
	for len(runs) < subRuns || time.Since(start)+last/2 < window {
		if len(runs) >= subRuns && time.Since(start)+last > runBudget*2/3 {
			break
		}
		t0 := time.Now()
		input := subSeed(d.seed, len(runs)%subRuns)
		s := new(sample)
		if err := d.spawn(ctx, "run", input, s); err != nil {
			return nil, err
		}
		runs = append(runs, s)
		setups, setupWalls = append(setups, s.SetupS), append(setupWalls, s.SetupWallS)
		for i := 0; i < d.w.setupsPerRun; i++ {
			v := new(sample)
			if err := d.spawn(ctx, "setup", input, v); err != nil {
				return nil, err
			}
			setups, setupWalls = append(setups, v.SetupS), append(setupWalls, v.SetupWallS)
		}
		last = time.Since(t0)
	}

	r := d.newReport(endToEndMetrics)
	lat := trace.NewHistogram("pooled op latency")
	var ops, goodput, steps int64
	var windowMs float64
	digest := uint64(fnvOffset)
	for _, s := range runs[:subRuns] {
		r.account(s)
		for _, ns := range s.Latencies {
			lat.Add(sim.Time(ns))
		}
		ops, goodput, steps = ops+s.Ops, goodput+s.Goodput, steps+s.Steps
		windowMs += s.WindowMs
		for _, c := range s.Digest {
			digest = (digest ^ uint64(c)) * fnvPrime
		}
	}
	for i, s := range runs[subRuns:] {
		if diff := virtualDiff(runs[i%subRuns], s); diff != "" {
			r.fail("input %d differs in virtual time when run again: %s", i%subRuns, diff)
		}
	}
	per := func(f func(s *sample) float64) float64 {
		v := make([]float64, len(runs))
		for i, s := range runs {
			v[i] = f(s)
		}
		return median(v)
	}
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	windowS := windowMs / 1e3
	r.metrics = map[string]float64{
		"sim_ms_per_wall_s":     per(func(s *sample) float64 { return s.WindowMs / s.WallS }),
		"events_per_s":          per(func(s *sample) float64 { return float64(s.Events) / s.WallS }),
		"allocs_per_event":      per(func(s *sample) float64 { return float64(s.Mallocs) / float64(s.Events) }),
		"alloc_bytes_per_event": per(func(s *sample) float64 { return float64(s.AllocBytes) / float64(s.Events) }),
		"peak_rss_mb":           per(func(s *sample) float64 { return s.PeakRSSMB }),
		"setup_s":               median(setups),
		"sim_ops_per_s":         float64(ops) / windowS,
		"sim_p50_us":            us(lat.Quantile(0.50)),
		"sim_p99_us":            us(lat.Quantile(0.99)),
		"sim_goodput_mbps":      float64(goodput) * 8 / windowS / 1e6,
	}
	r.notes = append(r.notes,
		fmt.Sprintf("processes=%d inputs=%d setups=%d setup_wall_s=%.6g ops=%d coll_steps=%d coll_steps_per_s=%.6g fail_frac=%.6g digest=%016x",
			len(runs), subRuns, len(setups), median(setupWalls), ops, steps, float64(steps)/windowS, r.failFrac(), digest))
	r.check()
	return r, nil
}

// perLayer makes one untraced and one traced run of the run's first input
// and reports the traced run's per-layer metrics.
func (d *driver) perLayer(ctx context.Context) (*report, error) {
	dark, traced := new(sample), new(sample)
	if err := d.spawn(ctx, "run", subSeed(d.seed, 0), dark); err != nil {
		return nil, err
	}
	if err := d.spawn(ctx, "traced", subSeed(d.seed, 0), traced); err != nil {
		return nil, err
	}
	r := d.newReport(perLayerMetrics)
	r.account(traced)
	r.metrics = map[string]float64{}
	for k, v := range traced.Layers {
		r.metrics[k] = v
	}
	darkRate, tracedRate := dark.WindowMs/dark.WallS, traced.WindowMs/traced.WallS
	r.metrics["trace_overhead_pct"] = 100 * (darkRate/tracedRate - 1)
	if diff := virtualDiff(dark, traced); diff != "" {
		r.fail("traced run differs from untraced run (armed-vs-dark identity): %s", diff)
	}
	var sum float64
	for _, l := range hostLayers {
		sum += traced.Layers[l+".self_pct"]
	}
	for _, b := range []string{"sim.switch_pct", "rt.alloc_pct", "rt.gc_pct", "rt.other_pct", "host.unattributed_pct"} {
		sum += traced.Layers[b]
	}
	if math.Abs(sum-100) > 1 {
		r.fail("host shares sum to %.3f%%, want 100 +- 1", sum)
	}
	if u := traced.Layers["host.unattributed_pct"]; u > maxUnattributedPct {
		r.fail("%.2f%% of CPU samples fall outside every layer (limit %d%%)", u, maxUnattributedPct)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("cpu_samples=%.0f traced_msgs=%.0f host_share_sum=%.3f%% digest=%s",
			traced.Layers["host.cpu_samples"], traced.Layers["trace.msgs"], sum, traced.Digest))
	r.check()
	return r, nil
}

func (d *driver) newReport(defs []metric) *report {
	return &report{w: d.w, seed: d.seed, defs: defs, correct: true}
}

// account adds one input's operations to the report and checks them.
func (r *report) account(s *sample) {
	r.attempted += s.attempted()
	r.failed += s.failed()
	if s.WrongSums > 0 {
		r.fail("seed %d: %d allreduce results had a wrong sum", s.Seed, s.WrongSums)
	}
	if s.Ops == 0 {
		r.fail("seed %d: no operation completed", s.Seed)
	}
	if r.w.bspBytes > 0 && s.Steps == 0 {
		r.fail("seed %d: no collective superstep completed", s.Seed)
	}
}

func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// check fails the report when a declared metric is missing or not finite,
// or when an end-to-end metric is not positive.
func (r *report) check() {
	for _, m := range r.defs {
		v, ok := r.metrics[m.name]
		switch {
		case !ok:
			r.fail("metric %s missing", m.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is not finite: %v", m.name, v)
		case v <= 0 && isEndToEnd(m.name):
			r.fail("metric %s is %v, want > 0", m.name, v)
		}
	}
}

func isEndToEnd(name string) bool {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// virtualDiff names the first virtual-time result in which two runs of
// one input differ, or returns "" when they agree bit for bit.
func virtualDiff(a, b *sample) string {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"digest", a.Digest, b.Digest}, {"ops", a.Ops, b.Ops}, {"errors", a.Errors, b.Errors},
		{"shed", a.Shed, b.Shed}, {"goodput", a.Goodput, b.Goodput}, {"p50", a.P50Us, b.P50Us},
		{"p99", a.P99Us, b.P99Us}, {"supersteps", a.Steps, b.Steps}, {"superstep errors", a.StepErrs, b.StepErrs},
	} {
		if f.x != f.y {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y)
		}
	}
	return ""
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the JSON object printed as the last line.
func (r *report) result() result {
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	for _, m := range r.defs {
		if v, ok := r.metrics[m.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	return out
}

// text renders the stamp, every metric by name with unit and direction,
// and any failed check.
func (r *report) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench workload=%s seed=%d %s\n", r.w.name, r.seed, stamp())
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, m := range r.defs {
		fmt.Fprintf(&b, "  %-34s %16.6g %-8s (%s is better)\n", m.name, r.metrics[m.name], m.unit, m.better)
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "  FAIL: %s\n", p)
	}
	fmt.Fprintf(&b, "  correct=%v attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
	return b.String()
}

// stamp identifies the build and the machine a result was measured on.
func stamp() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s src=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit(), sourceHash())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision of the working directory, or "none" outside
// a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under the working
// directory (build output excluded), identifying the code measured even
// where there is no git history.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
