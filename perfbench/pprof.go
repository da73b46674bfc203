package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Reading the CPU profile: `go tool pprof -traces`, from the Go toolchain
// that builds the benchmark, prints every sample's stack as text offline,
// and readProfile parses that text.

// stackSample is one profile sample: its stack of function names (leaf
// first, inlined frames expanded) and its value in CPU nanoseconds.
type stackSample struct {
	funcs []string
	value int64
}

// readProfile writes a CPU profile next to this binary, has pprof print
// its samples, and parses them.
func readProfile(prof []byte) ([]stackSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(exe), "cpu-*.pprof")
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w\n%s", err, stderr.Bytes())
	}
	return parseTraces(string(out))
}

// tracesSeparator opens each sample in pprof -traces output.
const tracesSeparator = "-----------+-------------------------------------------------------"

// parseTraces parses pprof -traces output. After a header, each sample is
// a separator line and then its stack, leaf first: the first stack line
// carries the value ("  10000000ns   runtime.futex"), the others only a
// function, inlined ones marked " (inline)".
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	for _, line := range strings.Split(text, "\n") {
		if line == tracesSeparator {
			out = append(out, stackSample{})
			continue
		}
		line = strings.TrimSpace(line)
		if len(out) == 0 || line == "" {
			continue // header, or the end
		}
		s := &out[len(out)-1]
		if len(s.funcs) == 0 {
			v, fn, ok := strings.Cut(line, " ")
			ns, err := strconv.ParseFloat(strings.TrimSuffix(v, "ns"), 64)
			if !ok || !strings.HasSuffix(v, "ns") || err != nil {
				return nil, fmt.Errorf("profile: unexpected pprof line %q", line)
			}
			s.value, line = int64(ns), strings.TrimSpace(fn)
		}
		s.funcs = append(s.funcs, strings.TrimSuffix(line, " (inline)"))
	}
	return out, nil
}
