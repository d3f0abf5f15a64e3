// Command perfbench is SNIPE's repository benchmark. It brings up a real
// in-process SNIPE cluster (RC catalog replicas, comm endpoints over tcp
// on the loopback interface, service replicas), drives one seeded,
// closed-loop workload against it from 2 callers, checks every response,
// and prints one JSON object with the run's metrics as its last line.
//
//	perfbench --workload svc-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics instead: counters over an untraced
// window, spans over a traced window, and a ladder that replays the
// workload's sizes or key sequence one layer at a time. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records what a result was measured under.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Transport  string `json:"transport"`
	Callers    int    `json:"callers"`
	Loop       string `json:"loop"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // span file of a traced run
	profile  string // directory for CPU, mutex and block profiles
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>.json)")
	flag.StringVar(&o.profile, "profile", "", "write cpu, mutex and block profiles of the measured window into this directory, which must lie outside the working directory")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	spec := workloads[o.workload]
	run := runMeasured
	if o.trace {
		run = runTraced
	}
	res, diag, err := run(spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	diag["context"] = runContext{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Transport:  "tcp over loopback",
		Callers:    spec.callers,
		Loop:       "closed",
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"diagnostics": diag}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (o *options) validate() error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", o.workload+".json")
	}
	if o.profile != "" {
		if o.trace {
			return fmt.Errorf("--profile profiles an untraced run; drop --trace")
		}
		abs, err := filepath.Abs(o.profile)
		if err != nil {
			return err
		}
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if rel, err := filepath.Rel(wd, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return fmt.Errorf("--profile %s lies inside the working directory; profiles go outside the checkout", o.profile)
		}
		o.profile = abs
	}
	return nil
}

// runMeasured sets the cluster up spec.setups times (setup_s is their
// median), keeps the last one, and measures the closed loop over it.
func runMeasured(spec workloadSpec, o options) (result, map[string]any, error) {
	var setups []float64
	var cl cluster
	for i := 0; i < spec.setups; i++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		c, err := spec.newCluster(spec, o.seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		cl = c
		if err := warm(cl, spec); err != nil {
			cl.close()
			return result{}, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.close()

	stopProfile, err := startProfile(o.profile)
	if err != nil {
		return result{}, nil, err
	}
	w := measure(cl, spec, time.Duration(o.seconds)*time.Second, nil)
	if err := stopProfile(); err != nil {
		return result{}, nil, err
	}
	checkFailed, checkErr := cl.check()

	res := result{
		Correct:   checkErr == nil && w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed + checkFailed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ops_per_s":        {w.opsPerSec, "ops/s"},
			"p50_us":           {w.p50, "us"},
			"goodput_mb_per_s": {w.goodput, "MB/s"},
			"cpu_us_per_op":    {w.cpuPerOp, "us"},
			"max_rss_mb":       {maxRSSMB(), "MB"},
		},
	}
	diag := map[string]any{
		"setup_s_each": setups,
		"failed_ratio": float64(res.Failed) / float64(max(res.Attempted, 1)),
		"latency_us":   w.pooled,
		"slice_ops":    sliceOps(w),
	}
	if checkErr != nil {
		diag["check_error"] = checkErr.Error()
	}
	if w.firstErr != nil {
		diag["first_op_error"] = w.firstErr.Error()
	}
	return res, diag, nil
}

// runTraced reports the per-layer metrics of one set-up: counters over an
// untraced window, spans over a traced window of the same length, then
// the ladder. The ratio of the two windows' throughput is the tracing
// overhead.
func runTraced(spec workloadSpec, o options) (result, map[string]any, error) {
	cl, err := spec.newCluster(spec, o.seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer cl.close()
	if err := warm(cl, spec); err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	// Both windows are short: the traced one keeps every span in memory
	// and writes them all out.
	half := time.Duration(min(max(o.seconds/2, 1), 3)) * time.Second

	before := cl.counters()
	w := measure(cl, spec, half, nil)
	after := cl.counters()
	metrics := counterMetrics(before, after, w.attempted, w.pooled["set"].Count, &w.memBefore, &w.memAfter)

	tr := newTracer()
	svc, _ := cl.(*svcCluster)
	if svc != nil {
		svc.tr.Store(tr)
	}
	wt := measure(cl, spec, half, tr)
	if svc != nil {
		svc.tr.Store(nil)
	}
	checkFailed, checkErr := cl.check()
	ladder, err := cl.ladder(tr)
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range ladder {
		metrics[k] = v
	}
	if err := tr.write(o.spans); err != nil {
		return result{}, nil, err
	}
	spans, err := readSpans(o.spans)
	if err != nil {
		return result{}, nil, err
	}
	self, roots := selfTimes(spans, "op")
	for _, layer := range traceLayers {
		metrics["trace."+layer+".self_us"] = metric{self[layer], "us"}
	}
	metrics["trace.overhead_ratio"] = metric{ratio(w.opsPerSec, wt.opsPerSec), "ratio"}
	metrics["trace.spans"] = metric{float64(len(spans)), "count"}

	res := result{
		Correct:   checkErr == nil && w.failed == 0 && wt.failed == 0,
		Attempted: w.attempted + wt.attempted,
		Failed:    w.failed + wt.failed + checkFailed,
		Metrics:   metrics,
	}
	diag := map[string]any{
		"untraced_ops_per_s": w.opsPerSec,
		"traced_ops_per_s":   wt.opsPerSec,
		"latency_us":         w.pooled,
		"traced_ops":         roots,
		"span_file":          o.spans,
		"self_us_per_op":     self,
		"failed_ratio":       float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	if checkErr != nil {
		diag["check_error"] = checkErr.Error()
	}
	for _, e := range []error{w.firstErr, wt.firstErr} {
		if e != nil {
			diag["first_op_error"] = e.Error()
		}
	}
	return res, diag, nil
}
