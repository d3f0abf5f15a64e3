package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Operation kinds; a workload's percentiles are also split by kind.
const (
	kindCall = iota // one service.Client call
	kindGet         // one catalog Get
	kindSet         // one catalog Set
	numKinds
)

var kindNames = [numKinds]string{"call", "get", "set"}

// cluster is one running SNIPE deployment a workload drives.
type cluster interface {
	// newCaller returns caller id's state; its inputs come from the seed.
	newCaller(id int) caller
	// check quiesces the cluster after the window and verifies its
	// final state, returning how many checked items were wrong.
	check() (failed int, err error)
	// counters snapshots the public metrics of every layer.
	counters() counterSet
	// ladder measures the per-layer rows at this workload's sizes and keys.
	ladder(tr *tracer) (map[string]metric, error)
	close()
}

// caller issues one closed-loop caller's operations.
type caller interface {
	// op performs the caller's next operation and checks its result.
	// tr is nil in untraced runs. bytes is the request payload size.
	op(ctx context.Context, tr *tracer) (kind, bytes int, err error)
}

// workloadSpec describes one workload. BENCHMARK.json gives the reason
// each workload exists.
type workloadSpec struct {
	callers    int
	setups     int // cluster set-ups per measured run; setup_s is their median
	warmOps    int // ops per caller run before timing starts
	replicas   int // service replicas (svc-*)
	reqBytes   int
	respBytes  int
	groups     int // catalog shard groups (catalog-mix)
	uris       int // catalog preload (catalog-mix)
	setShare   float64
	zipfS      float64
	newCluster func(spec workloadSpec, seed int64) (cluster, error)
}

var workloads = map[string]workloadSpec{
	"svc-small": {
		callers: 2, setups: 3, warmOps: 1500,
		replicas: 3, reqBytes: 64, respBytes: 512,
		newCluster: newSvcCluster,
	},
	"svc-bulk": {
		callers: 2, setups: 3, warmOps: 40,
		replicas: 1, reqBytes: 1 << 20, respBytes: 16,
		newCluster: newSvcCluster,
	},
	"catalog-mix": {
		callers: 2, setups: 3, warmOps: 2000,
		groups: 2, uris: 50000, setShare: 0.10, zipfS: 1.1,
		newCluster: newCatalogCluster,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opTimeout bounds one operation; a timeout counts as a failure.
const opTimeout = 10 * time.Second

// warm runs spec.warmOps operations per caller, so that connections,
// route caches and pools are filled before timing starts. Any failure
// aborts the set-up.
func warm(cl cluster, spec workloadSpec) error {
	errs := make(chan error, spec.callers)
	var wg sync.WaitGroup
	for id := 0; id < spec.callers; id++ {
		c := cl.newCaller(spec.callers + id) // warm-up inputs differ from the measured ones
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spec.warmOps; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				_, _, err := c.op(ctx, nil)
				cancel()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// sample is one completed operation.
type sample struct {
	end    time.Duration // since the window opened
	lat    time.Duration
	bytes  int32
	kind   uint8
	failed bool
}

// window is the outcome of one measured closed-loop window.
type window struct {
	attempted, failed int
	firstErr          error
	slices            []sliceStats
	// Medians over the one-second slices.
	opsPerSec, p50, goodput, cpuPerOp float64
	pooled                            map[string]latencySummary
	memBefore, memAfter               runtime.MemStats
}

type sliceStats struct {
	ops   int
	bytes int64
	lat   []float64 // µs, successful ops
}

// measure runs the closed loop for d: each caller sends its next
// request only after the previous reply, until d has passed. The window
// is cut into one-second slices; each end-to-end figure is the median
// over slices, so one disturbed second does not move it.
func measure(cl cluster, spec workloadSpec, d time.Duration, tr *tracer) window {
	nSlices := max(int(d/time.Second), 1)
	sliceLen := d / time.Duration(nSlices)
	callers := make([]caller, spec.callers)
	for id := range callers {
		callers[id] = cl.newCaller(id)
	}
	per := make([][]sample, spec.callers)
	errs := make([]error, spec.callers)

	var w window
	runtime.GC()
	runtime.ReadMemStats(&w.memBefore)
	start := time.Now()
	deadline := start.Add(d)
	cpuMarks := make([]float64, nSlices+1)
	cpuMarks[0] = cpuSeconds()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 1; k <= nSlices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
			cpuMarks[k] = cpuSeconds()
		}
	}()
	var wg sync.WaitGroup
	for id, c := range callers {
		wg.Add(1)
		go func(id int, c caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				t0 := time.Now()
				kind, n, err := c.op(ctx, tr)
				t1 := time.Now()
				cancel()
				if err != nil && errs[id] == nil {
					errs[id] = err
				}
				per[id] = append(per[id], sample{
					end: t1.Sub(start), lat: t1.Sub(t0), bytes: int32(n),
					kind: uint8(kind), failed: err != nil,
				})
			}
		}(id, c)
	}
	wg.Wait()
	sampler.Wait()
	runtime.ReadMemStats(&w.memAfter)

	w.slices = make([]sliceStats, nSlices)
	var byKind [numKinds][]float64
	for id, ss := range per {
		if errs[id] != nil && w.firstErr == nil {
			w.firstErr = errs[id]
		}
		for _, s := range ss {
			w.attempted++
			if s.failed {
				w.failed++
				continue
			}
			us := float64(s.lat) / 1e3
			byKind[s.kind] = append(byKind[s.kind], us)
			k := int(s.end / sliceLen)
			if k >= nSlices {
				continue // completed after the window closed
			}
			sl := &w.slices[k]
			sl.ops++
			sl.bytes += int64(s.bytes)
			sl.lat = append(sl.lat, us)
		}
	}
	var ops, p50s, good, cpu []float64
	for k := range w.slices {
		sl := &w.slices[k]
		if sl.ops == 0 {
			continue
		}
		secs := sliceLen.Seconds()
		sort.Float64s(sl.lat)
		ops = append(ops, float64(sl.ops)/secs)
		good = append(good, float64(sl.bytes)/secs/1e6)
		p50s = append(p50s, quantile(sl.lat, 0.50))
		cpu = append(cpu, (cpuMarks[k+1]-cpuMarks[k])*1e6/float64(sl.ops))
	}
	w.opsPerSec, w.goodput = median(ops), median(good)
	w.p50, w.cpuPerOp = median(p50s), median(cpu)
	w.pooled = make(map[string]latencySummary)
	var all []float64
	for k, lat := range byKind {
		if len(lat) > 0 {
			w.pooled[kindNames[k]] = summarize(lat)
			all = append(all, lat...)
		}
	}
	w.pooled["all"] = summarize(all)
	return w
}

// sliceOps lists the completed operations of each one-second slice.
func sliceOps(w window) []int {
	out := make([]int, len(w.slices))
	for i, sl := range w.slices {
		out[i] = sl.ops
	}
	return out
}

// latencySummary reports a timing with its sample count, its median and
// the highest percentile that has at least ten samples beyond it.
type latencySummary struct {
	Count   int     `json:"count"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	TailQ   string  `json:"tail_q"`
	TailVal float64 `json:"tail"`
}

func summarize(lat []float64) latencySummary {
	sort.Float64s(lat)
	s := latencySummary{Count: len(lat)}
	if len(lat) == 0 {
		return s
	}
	s.P50, s.P99 = quantile(lat, 0.50), quantile(lat, 0.99)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}, {"p9999", 0.9999}} {
		if float64(len(lat))*(1-q.q) >= 10 {
			s.TailQ, s.TailVal = q.name, quantile(lat, q.q)
		}
	}
	return s
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// startProfile starts CPU, mutex and block profiling into dir; the
// returned function stops it and writes the files. An empty dir does
// nothing.
func startProfile(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	runtime.SetMutexProfileFraction(5)
	runtime.SetBlockProfileRate(int(10 * time.Microsecond))
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		for _, name := range []string{"mutex", "block"} {
			f, err := os.Create(filepath.Join(dir, name+".pprof"))
			if err != nil {
				return err
			}
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench: profiles written to", dir)
		return nil
	}, nil
}
