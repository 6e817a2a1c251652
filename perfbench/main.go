// Command perfbench is the repository's benchmark: it runs one workload
// against the leapme matcher for a fixed time, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload match-hot --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics, checks and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow set-up (first-touch page faults, a GC) does
// not decide it.
const setupRepeats = 3

// runner is one set-up workload, ready to measure.
type runner interface {
	// run executes whole rounds of the workload's operations while they
	// fit before the deadline (see roundFits), recording each operation
	// in log.
	run(ctx context.Context, deadline time.Time, log *opLog) error
	// finish applies the checks that need every answer of the window and
	// returns the workload's F1 against the generator's truth.
	finish(ctx context.Context) (f1 float64, err error)
	// replay drives the workload's inputs through each layer's public
	// functions, timing every call into tr.
	replay(ctx context.Context, tr *tracer) error
	close() error
}

// defaultSeed is the input seed when --seed is 0 or absent.
const defaultSeed = 1

type workload struct {
	name string
	// setup builds the fixture and the inputs; tr is non-nil in traced
	// runs, where handlers are wrapped to record spans.
	setup func(ctx context.Context, seed int64, tr *tracer) (runner, error)
}

var workloads = []workload{
	{name: "match-hot", setup: setupMatchHot},
	{name: "match-all", setup: setupMatchAll},
	{name: "eval", setup: setupEval},
}

// opLog records the operations of a timed window. Safe for concurrent
// clients.
type opLog struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful operations only
	attempted int
	failed    int
	pairs     int64 // pairs scored by successful operations
	firstErr  error
}

func (l *opLog) ok(d time.Duration, pairs int) {
	l.mu.Lock()
	l.attempted++
	l.latencies = append(l.latencies, float64(d)/1e6)
	l.pairs += int64(pairs)
	l.mu.Unlock()
}

func (l *opLog) fail(err error) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// roundFits reports whether another round, as long as the one that
// started at start, would end by the deadline. Every window runs whole
// rounds: at least one, then as many more as fit.
func roundFits(start, deadline time.Time) bool {
	now := time.Now()
	return !now.Add(now.Sub(start)).After(deadline)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: match-hot, match-all or eval")
	seed := flag.Int64("seed", defaultSeed, "input seed (0 = the default)")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	flag.Parse()
	res, ok, err := runWorkload(context.Background(), *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !ok {
		os.Exit(2)
	}
}

// runWorkload sets the workload up setupRepeats times, measures one
// window on the last set-up and returns the result. A non-nil error means
// no result could be produced; ok is false when an output check failed.
func runWorkload(ctx context.Context, name string, seed int64, window time.Duration, traced bool, stampOut *os.File) (result, bool, error) {
	var wl *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return result{}, false, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if seed == 0 {
		seed = defaultSeed
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var r runner
	var setupTimes []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, false, err
			}
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, err := wl.setup(ctx, seed, tr)
		if err != nil {
			return result{}, false, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		r = next
	}
	defer r.close()
	if tr != nil {
		tr.reset() // keep only the window's and the replay's spans
	}

	// The window: whole rounds of operations up to the deadline.
	runtime.GC()
	log := &opLog{}
	st := newStamp(name, seed, traced)
	heap := startHeapSampler()
	cpu0, cpuOK0 := readCPUTimes()
	alloc0 := allocatedBytes()
	t0 := time.Now()
	runErr := r.run(ctx, t0.Add(window), log)
	elapsed := time.Since(t0)
	alloc1 := allocatedBytes()
	cpu1, cpuOK1 := readCPUTimes()
	peak := heap.Stop()
	if runErr != nil {
		return result{}, false, fmt.Errorf("%s: %w", name, runErr)
	}
	st.WindowS = elapsed.Seconds()
	st.StealPct = stealPercent(cpu0, cpu1, cpuOK0 && cpuOK1)

	correct := true
	report := func(err error) {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	if log.failed > 0 {
		report(fmt.Errorf("%d of %d operations failed, first: %v", log.failed, log.attempted, log.firstErr))
	}
	if log.attempted == 0 || len(log.latencies) == 0 {
		return result{}, false, fmt.Errorf("%s: no operation completed", name)
	}
	f1, err := r.finish(ctx)
	if err != nil {
		report(err)
	}

	res := result{Attempted: log.attempted, Failed: log.failed}
	if traced {
		if err := r.replay(ctx, tr); err != nil {
			return result{}, false, fmt.Errorf("%s replay: %w", name, err)
		}
		// Against the untraced run's p50_ms, the tracing overhead.
		tr.set("trace.window_p50_ms", median(log.latencies))
		res.Metrics = tr.metrics()
		data, err := tr.marshal()
		if err != nil {
			return result{}, false, err
		}
		path, err := writeSpans(fmt.Sprintf("%s-seed%d.json", name, seed), data)
		if err != nil {
			return result{}, false, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.count(), path)
	} else {
		res.Metrics = map[string]metric{
			"setup_s":         {median(setupTimes), "s"},
			"p50_ms":          {median(log.latencies), "ms"},
			"tail_ms":         {tail(log.latencies, log.failed, float64(elapsed)/1e6), "ms"},
			"pairs_per_s":     {float64(log.pairs) / elapsed.Seconds(), "1/s"},
			"alloc_mb_per_op": {float64(alloc1-alloc0) / 1e6 / float64(log.attempted), "MB"},
			"heap_peak_mb":    {peak, "MB"},
			"f1":              {f1, "ratio"},
		}
	}
	res.Correct = correct
	if stampOut != nil {
		pct := map[string]float64{}
		sorted := append([]float64(nil), log.latencies...)
		sort.Float64s(sorted)
		for _, q := range []int{50, 75, 90, 99} {
			pct[fmt.Sprintf("p%d", q)] = sorted[(len(sorted)-1)*q/100]
		}
		line, err := json.Marshal(map[string]any{"stamp": st, "setup_runs_s": setupTimes, "ops": len(log.latencies), "latency_ms": pct})
		if err != nil {
			return result{}, false, err
		}
		fmt.Fprintln(stampOut, string(line))
	}
	return res, correct, nil
}
