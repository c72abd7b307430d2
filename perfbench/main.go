// Command perfbench is the repository benchmark: one command that drives
// the CANELy reproduction through four workloads and prints end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs).
//
//	perfbench --workload steady|churn|explore|live --seed N --seconds S --trace 0|1
//
// Every run executes all four parts so that every declared metric is
// printed: each part measures for a fixed base time, and the named
// workload, the primary part, for --seconds more. setup_s and heap_mb
// describe the primary part. The last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}; the lines before it
// carry the host block, the raw (unscaled) values, the simulated-statistics
// digest, known defects and, in traced runs, the per-layer span summary.
// See NOTES.md for why each workload exists and which layer metric should
// move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// nproc is the worker and connection budget of every workload; GOMAXPROCS
// is pinned to it so hosts with more CPUs measure the same configuration.
const nproc = 2

// parts lists the workloads in the order a run executes them.
var parts = []string{"steady", "churn", "explore", "live"}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the span dump of traced runs.
	outDir string
	// scale shrinks fixed work sizes (base budgets, batch sizes, the
	// explore depth) for the self-test; 1 in real runs.
	scale float64
}

// budget returns how long a part measures in a run: a fixed base so that
// every part's metrics are printed, plus --seconds for the primary part.
// Explore turns its budget into a fixed count of units (exploreUnits).
func (o *options) budget(part string) time.Duration {
	b := time.Duration(o.scale * float64(base[part]))
	if part == o.workload {
		b += time.Duration(o.seconds * float64(time.Second))
	}
	return b
}

// base is the measured time every run gives a part.
var base = map[string]time.Duration{
	"steady":  2 * time.Second,
	"churn":   3 * time.Second,
	"explore": exploreUnit,
	"live":    2 * time.Second,
}

// output is the final result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "steady, churn, explore or live")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time of the primary part")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced pass")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.scale = 1
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run validates the invocation, executes every part and prints the result.
func run(o *options, w io.Writer) error {
	known := false
	for _, p := range parts {
		known = known || p == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want steady, churn, explore or live)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if o.outDir == "" {
		o.outDir = os.Getenv("CARGO_TARGET_DIR")
		if o.outDir == "" {
			o.outDir = ".bench_build"
		}
	}
	runtime.GOMAXPROCS(nproc)

	res := newResult()
	printLine(w, "host", hostBlock())
	if err := execute(o, res, nil); err != nil {
		return err
	}
	if o.trace {
		tr := newTracer()
		traced := newResult()
		if err := execute(o, traced, tr); err != nil {
			return err
		}
		res.merge(traced)
		res.layer["trace.overhead_ratio"] = overheadRatio(o.workload, res.e2e, traced.e2e)
		res.layer["trace.spans"] = float64(tr.count())
		printLine(w, "spans", tr.selfTimes())
		path := filepath.Join(o.outDir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.dump(path); err != nil {
			return err
		}
	}
	printLine(w, "raw", res.raw)
	printLine(w, "digest", res.digest)
	for _, d := range res.defects {
		printLine(w, "known_defect", d)
	}
	metrics := res.emit(o.trace) // counts a missing metric as a failure
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	out := output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// part is one workload's measurement. Parts are driven in interleaved
// slots, so every metric draws its samples from across the whole run
// rather than from one stretch of it.
type part interface {
	// setup builds and warms the part's system.
	setup() error
	// measure runs whole operations until the deadline, at least one;
	// explore runs its share of a fixed unit count instead.
	measure(until time.Time) error
	// finish turns the samples into metrics.
	finish() error
	close()
}

// env is what every part shares.
type env struct {
	o      *options
	res    *result
	tr     *tracer
	traced bool
	// heap tracks the heap high-water mark of the primary part; nil for
	// the others.
	heap *setupTimer
}

// slots is how many measured stretches a part gets in a run.
const slots = 4

func newPart(name string, e env) part {
	switch name {
	case "steady":
		return &steadyPart{env: e, cal: newCalibrator()}
	case "churn":
		return newChurn(e)
	case "explore":
		return newExplore(e)
	default:
		return &livePart{env: e}
	}
}

// execute runs the four parts once, traced when tr is non-nil. A part is
// set up just before its first slot.
func execute(o *options, res *result, tr *tracer) error {
	var st setupTimer
	ps := make([]part, len(parts))
	setupHost := 1.0
	defer func() {
		for _, p := range ps {
			if p != nil {
				p.close()
			}
		}
	}()
	for slot := 0; slot < slots; slot++ {
		for i, name := range parts {
			primary := name == o.workload
			if slot == 0 {
				e := env{o: o, res: res, tr: tr, traced: tr != nil}
				if primary {
					e.heap = &st
				}
				ps[i] = newPart(name, e)
				track := startTracker()
				for r := 0; r < setupRounds(primary); r++ {
					t0 := time.Now()
					if err := ps[i].setup(); err != nil {
						return fmt.Errorf("%s set-up: %w", name, err)
					}
					if primary {
						st.add(time.Since(t0))
					}
				}
				// Live set-up waits on timers and sockets, not on the CPU,
				// so only the other parts' set-up is scaled to host speed.
				if host := track.end(); primary && name != "live" {
					setupHost = host
				}
				if primary {
					st.sampleHeap()
				}
			}
			if err := ps[i].measure(time.Now().Add(o.budget(name) / slots)); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	for i, name := range parts {
		if err := ps[i].finish(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	st.report(res, setupHost)
	return nil
}

// printLine writes one labelled JSON diagnostic line.
func printLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s %s\n", label, b)
}
