package main

import (
	"fmt"
	"math/rand"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/topo"
)

// workload is one reference workload: the system it assembles (timed as
// set-up) and the traffic it drives through load.Run. Everything it does is
// a pure function of the seed, so its virtual-time results and digest
// repeat bit-identically.
type workload struct {
	name string
	// topo is the system shape; opts arm its options (routing, telemetry).
	topo core.Topology
	opts []core.Option
	// cfg returns the load configuration for a seed.
	cfg func(seed int64) load.Config
	// bspBytes > 0 adds one bulk-synchronous worker per CAB running
	// allreduce supersteps of this payload over all CABs (see bsp).
	bspBytes int
	// setupsPerRun is how many extra fresh processes only set the system
	// up after each run process, so setup_s is a median over enough cold
	// set-ups. (An assembled system is never freed, its processes being
	// goroutines parked for good, so repeated set-ups in one process would
	// each run on a larger heap.)
	setupsPerRun int
}

// bspGroupID is the collective group the benchmark's BSP workers use
// (load reserves 14 for its own BSP mode, which the benchmark does not
// arm).
const bspGroupID = 13

var workloads = []*workload{
	{
		// The per-byte packet path at the largest packet size: DMA,
		// checksum, stream reassembly, go-back-N, fiber serialization.
		// Two closed-loop clients, no routing, no collective.
		name: "stream-2cab",
		topo: core.SingleHub(2),
		cfg: func(seed int64) load.Config {
			return load.Config{
				Seed:        seed,
				Arrival:     load.ClosedLoop,
				Workers:     1,
				Mix:         load.Mix{Stream: 1},
				StreamBytes: streamBytes(seed),
				Warmup:      20 * sim.Millisecond,
				Duration:    3300 * sim.Millisecond,
			}
		},
		setupsPerRun: 2,
	},
	{
		// Smallest packets, one kernel thread per arrival, multi-hop
		// adaptive routing on a 3-D torus, and endpoint allreduces.
		name: "rpc-bsp-64cab",
		topo: core.Torus3D(4, 4, 4, 1),
		opts: []core.Option{core.WithRouting(topo.PolicyAdaptive)},
		cfg: func(seed int64) load.Config {
			return load.Config{
				Seed:       seed,
				Arrival:    load.OpenLoop,
				RatePerCAB: 20000,
				Mix:        load.Mix{ReqResp: 6, VMTP: 1},
				ReqBytes:   64,
				RespBytes:  256,
				Warmup:     2 * sim.Millisecond,
				Duration:   20 * sim.Millisecond,
			}
		},
		bspBytes:     64,
		setupsPerRun: 2,
	},
	{
		// S1's headline point with the observability plane armed, the
		// way nectar-fleet -slo and nectar-top users run it: set-up and
		// memory dominate.
		name: "scale-1024cab-observed",
		topo: core.Torus3D(4, 4, 8, 8),
		opts: []core.Option{
			core.WithRouting(topo.PolicyAdaptive),
			core.WithMetrics(),
			core.WithObservatory(),
			core.WithSLO(slo.Params{Objectives: []slo.Objective{{
				Name: "rpc", Kind: slo.KindReqResp, Class: slo.AnyClass,
				LatencyBound: 200 * sim.Microsecond,
			}}}),
		},
		cfg: func(seed int64) load.Config {
			return load.Config{
				Seed:       seed,
				Arrival:    load.OpenLoop,
				RatePerCAB: 2000,
				Mix:        load.Mix{ReqResp: 1},
				ReqBytes:   64,
				RespBytes:  64,
				Warmup:     500 * sim.Microsecond,
				Duration:   5 * sim.Millisecond,
			}
		},
		setupsPerRun: 1,
	},
}

// streamBytes is the stream-2cab message size of an input: 63 to 64 KiB,
// drawn from the seed of the run the input belongs to. The workload draws
// nothing else at random, so the seed has to pick something, and the inputs
// of one run are replicas. Stream latency is set by the packet count, so
// inputs of different sizes would pool into a p99 pinned to the largest.
func streamBytes(input int64) int {
	return 63<<10 + rand.New(rand.NewSource(runSeed(input))).Intn(1<<10+1)
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bsp is the state of the benchmark's bulk-synchronous workers: one per
// CAB, each looping an exponential compute phase (mean 50us) then an
// allreduce of bspBytes over every CAB. Every rank checks every lane of its
// result against the closed-form sum.
type bsp struct {
	group *coll.Group
	mark  sim.Time // supersteps completing before mark are warm-up
	end   sim.Time

	steps     int64 // supersteps rank 0 completed in the window
	errors    int64 // allreduces that returned an error (any rank, in the window)
	wrongSums int64 // results with a wrong lane (any rank, any time)
	digest    uint64
}

// newBSP creates the collective group; start spawns the workers. The
// group is built during set-up, the workers just before the load starts.
func newBSP(sys *core.System) *bsp {
	cabs := make([]int, sys.NumCABs())
	for i := range cabs {
		cabs[i] = i
	}
	return &bsp{group: coll.NewGroup(sys, bspGroupID, cabs), digest: fnvOffset}
}

const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3

func (b *bsp) fold64(v uint64) {
	for i := 0; i < 8; i++ {
		b.digest = (b.digest ^ (v >> (8 * i) & 0xff)) * fnvPrime
	}
}

func (b *bsp) start(sys *core.System, seed int64, payload int, mark, end sim.Time) {
	b.mark, b.end = mark, end
	n := b.group.Size()
	lanes := payload / 8
	for rank := 0; rank < n; rank++ {
		rank := rank
		c := b.group.Member(rank)
		rng := rand.New(rand.NewSource(seed*1000003 + int64(rank)))
		sys.CAB(b.group.CABOf(rank)).Kernel.SpawnDaemon(fmt.Sprintf("bench-bsp-%d", rank), func(th *kernel.Thread) {
			in := make([]int64, lanes)
			for s := int64(1); ; s++ {
				th.Compute("bsp-compute", sim.Time(rng.ExpFloat64()*float64(50*sim.Microsecond)))
				for j := range in {
					in[j] = int64(rank+1)*s + int64(j)
				}
				t0 := th.Proc().Now()
				out, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
				now := th.Proc().Now()
				inWindow := now >= b.mark && now <= b.end
				if err != nil {
					if inWindow {
						b.errors++
					}
					continue
				}
				got := coll.BytesInt64(out)
				ok := len(got) == lanes
				for j := 0; ok && j < lanes; j++ {
					ok = got[j] == int64(n*(n+1)/2)*s+int64(n*j)
				}
				if !ok {
					b.wrongSums++
					continue
				}
				if rank == 0 && inWindow {
					b.steps++
					b.fold64(uint64(s))
					b.fold64(uint64(now - t0))
				}
			}
		})
	}
}

// setupOnly returns a copy of w whose load stops a nanosecond after it
// starts: a run of it times set-up and hardly anything else.
func (w *workload) setupOnly() *workload {
	c := *w
	c.cfg = func(seed int64) load.Config {
		cfg := w.cfg(seed)
		cfg.Warmup, cfg.Duration = 1, 1
		return cfg
	}
	return &c
}

// shortened returns a copy of w whose warm-up and measured window are k
// times shorter, for the smoke test.
func (w *workload) shortened(k int) *workload {
	c := *w
	c.cfg = func(seed int64) load.Config {
		cfg := w.cfg(seed)
		cfg.Warmup /= sim.Time(k)
		cfg.Duration /= sim.Time(k)
		return cfg
	}
	return &c
}
