// Command perfbench is the repository's end-to-end benchmark. It runs one
// reference workload against the simulator's Go API (core.New, load.Run,
// coll, topo), checks its outputs, and reports the benchmark's metrics in
// both clocks: host time (how fast the simulator runs) and virtual time
// (what the modelled Nectar system does).
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every measurement runs in a fresh child process of this binary, so peak
// RSS and garbage-collector state are never inherited. With --trace 0 it
// repeats the workload in new processes until --seconds have passed and
// prints the end-to-end metrics (medians over the processes). With
// --trace 1 it makes one untraced and one traced run and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when a correctness check fails. run.sh builds and runs it; see
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (stream-2cab, rpc-bsp-64cab, scale-1024cab-observed)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 10, "host seconds to keep repeating the untraced workload")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		child   = flag.String("child", "", "internal: run one measurement in this process (run, traced or setup)")
		short   = flag.Int("shorten", 1, "internal: divide the workload's simulated duration by this (smoke test)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *short > 1 {
		w = w.shortened(*short)
	}
	if *child != "" {
		if err := runChild(w, *child, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	d := &driver{w: w, seed: *seed, shorten: *short}
	var rep *report
	if *traced == 1 {
		rep, err = d.perLayer(ctx)
	} else {
		rep, err = d.endToEnd(ctx, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	fmt.Print(rep.text())
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		cancel()
		os.Exit(1)
	}
}

// runChild performs one measurement in this process and prints it as JSON.
func runChild(w *workload, mode string, seed int64) error {
	var out any
	switch mode {
	case "run":
		s, err := w.run(seed, nil, nil, nil)
		if err != nil {
			return err
		}
		out = s
	case "traced":
		s, err := w.runTraced(seed)
		if err != nil {
			return err
		}
		out = s
	case "setup":
		s, err := w.setupOnly().run(seed, nil, nil, nil)
		if err != nil {
			return err
		}
		out = &sample{Workload: w.name, Seed: seed, SetupS: s.SetupS, SetupWallS: s.SetupWallS}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
