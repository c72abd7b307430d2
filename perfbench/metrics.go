package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// def declares one printed metric. The BENCHMARK.json at the repository
// root lists the same names and units; the self-test keeps them in step.
type def struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs.
var endToEnd = []def{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"fast_vsps", "vs/s"},
	{"bit_vsps", "vs/s"},
	{"gossip_vsps", "vs/s"},
	{"ctrl_util", "fraction"},
	{"runs_per_s", "1/s"},
	{"vdetect_ms_p50", "ms"},
	{"vdetect_ms_p99", "ms"},
	{"canely_exhaust_s", "s"},
	{"gossip_exhaust_s", "s"},
	{"fwd_us_p50", "us"},
	{"fwd_us_p90", "us"},
	{"detect_ms_p50", "ms"},
	{"detect_ms_p90", "ms"},
}

// coreKinds are the event kinds timed separately by core.ns_per_step.<kind>:
// every kind holding at least 1% of the steady-state steps.
var coreKinds = []string{"data-nty", "data-ind", "rtr-ind", "timer"}

// perLayer are the metrics of single layers, printed by traced runs.
var perLayer = func() []def {
	d := []def{
		// sim (steady fast arm; churn runs)
		{"sim.events_per_vs", "1/vs"},
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_run", "count"},
		// fastbus / bus / datagram (steady)
		{"fastbus.frames_per_vs", "1/vs"},
		{"fastbus.util", "fraction"},
		{"fastbus.ns_per_frame", "ns"},
		{"fastbus.bits.els_per_vs", "bit/vs"},
		{"fastbus.bits.data_per_vs", "bit/vs"},
		{"fastbus.bits.fda_per_run", "bit"},
		{"fastbus.bits.rha_per_run", "bit"},
		{"fastbus.bits.join_per_run", "bit"},
		{"fastbus.bits.leave_per_run", "bit"},
		{"bus.frames_per_vs", "1/vs"},
		{"bus.ns_per_frame", "ns"},
		{"bus.allocs_per_vs", "1/vs"},
		{"bus.bytes_per_vs", "B/vs"},
		{"datagram.msgs_per_vs", "1/vs"},
		{"datagram.dropped_per_vs", "1/vs"},
		{"gossip.ns_per_event", "ns"},
		// stack (steady fast arm)
		{"stack.indications_per_vs", "1/vs"},
		{"stack.data_nty_per_vs", "1/vs"},
		{"stack.rest_ns_per_vs", "ns"},
		// core (steady fast arm capture re-stepped; explore capture)
		{"core.steps_per_vs", "1/vs"},
		{"core.cmds_per_step", "count"},
		{"core.ns_per_step", "ns"},
	}
	for _, k := range coreKinds {
		d = append(d, def{"core.ns_per_step." + k, "ns"})
	}
	d = append(d, []def{
		{"core.share", "fraction"},
		{"core.clone_ns", "ns"},
		{"core.fingerprint_ns", "ns"},
		// fault / fd / membership (churn)
		{"fault.corrupt_per_run", "count"},
		{"fault.inconsistent_per_run", "count"},
		{"fd.fda_per_run", "count"},
		{"fd.mistakes_per_run", "count"},
		{"membership.view_changes_per_run", "count"},
		{"membership.rha_frames_per_run", "count"},
		// canely facade / campaign (churn)
		{"facade.setup_us", "us"},
		{"facade.run_us", "us"},
		{"facade.allocs_per_run", "count"},
		{"facade.bytes_per_run", "B"},
		{"campaign.busy", "fraction"},
		{"campaign.imbalance", "ratio"},
		{"campaign.overhead_us_per_run", "us"},
		// explore (depth-25 CANELy tree)
		{"explore.schedules", "count"},
		{"explore.pruned", "count"},
		{"explore.slept", "count"},
		{"explore.distinct", "count"},
		{"explore.steps", "count"},
		{"explore.resumed", "count"},
		{"explore.snapshots", "count"},
		{"explore.useful", "fraction"},
		{"explore.ns_per_step", "ns"},
		{"explore.snapshot_ns", "ns"},
		{"explore.restore_ns", "ns"},
		{"explore.fingerprint_ns", "ns"},
		{"explore.peak_frontier", "count"},
		// rt / wire (live)
		{"rt.send_us_p50", "us"},
		{"rt.call_us_p50", "us"},
		{"broker.frames", "count"},
		{"broker.msgs_sent", "count"},
		{"broker.fanout", "ratio"},
		{"broker.queue_max", "count"},
		{"broker.drops", "count"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"live.fwd_us_p99", "us"},
		{"live.gen_late_us_p50", "us"},
		{"live.gen_late_us_p99", "us"},
		{"live.join_ms_p50", "ms"},
		// tracing itself
		{"trace.overhead_ratio", "ratio"},
		{"trace.spans", "count"},
		// host-speed calibration
		{"host.speed", "ratio"},
	}...)
	return d
}()

// result accumulates one pass over the parts.
type result struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	// raw holds the end-to-end metrics before host normalization, and the
	// host speeds measured.
	raw     map[string]float64
	digest  map[string]any
	defects []any
}

func newResult() *result {
	return &result{
		e2e:    make(map[string]float64),
		layer:  make(map[string]float64),
		raw:    make(map[string]float64),
		digest: make(map[string]any),
	}
}

// op counts one checked operation; a non-nil err marks it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// put stores an end-to-end metric from a part's raw samples: stat of the
// samples, scaled to nominal host speed (speeds divided by the host speed,
// durations multiplied by it), with the unscaled value kept on the raw
// line.
func (r *result) put(name string, samples []float64, stat func([]float64) float64, host float64, duration bool) {
	v := stat(samples)
	r.raw[name] = v
	if duration {
		r.e2e[name] = v * host
	} else {
		r.e2e[name] = v / host
	}
}

// merge folds a traced pass into the untraced result: operations and
// failures add up, per-layer metrics and digest come from the traced pass.
func (r *result) merge(t *result) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.failures = append(r.failures, t.failures...)
	for k, v := range t.layer {
		r.layer[k] = v
	}
	for k, v := range t.digest {
		if _, ok := r.digest[k]; !ok {
			r.digest[k] = v
		}
	}
	r.defects = append(r.defects, t.defects...)
}

// emit returns the declared metrics of the requested family. A declared
// metric no part produced is reported as a failed operation, never
// silently dropped.
func (r *result) emit(traced bool) map[string]metric {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.op(fmt.Errorf("metric %s was not measured", d.name))
			v = -1
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// overheadRatio compares the primary part's headline metric between the
// traced and the untraced pass: above 1 means tracing slowed it.
func overheadRatio(workload string, plain, traced map[string]float64) float64 {
	switch workload {
	case "steady":
		return plain["fast_vsps"] / traced["fast_vsps"]
	case "churn":
		return plain["runs_per_s"] / traced["runs_per_s"]
	case "explore":
		return traced["canely_exhaust_s"] / plain["canely_exhaust_s"]
	default:
		return traced["fwd_us_p50"] / plain["fwd_us_p50"]
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// speed is the throughput estimate of a run from many short samples of one
// operation: the 90th percentile of per-sample speed, i.e. the speed at
// the 10th percentile of sample time. The host this benchmark was tuned on
// shares its cores with other tenants and its speed drifts by ±25% over
// tens of seconds; the median of short samples followed that drift from
// run to run (4-5% spread), this quantile stayed within about 1%, and an
// optimization of the code moves it just the same.
func speed(xs []float64) float64 { return quantile(xs, 0.9) }

// fastest is the shortest of a run's repeated long operations, on the
// same grounds as speed.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// heapMiB returns the live heap after a full collection. It collects
// twice: the first collection only moves sync.Pool contents to the pools'
// victim caches, the second frees them, so pooled garbage left by an
// earlier part does not count.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocCounter measures allocations across a code region (traced passes
// only: ReadMemStats stops the world).
type allocCounter struct{ mallocs, bytes uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocCounter) since() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc - a.bytes)
}

// setupTimer collects the primary part's repeated set-ups and its heap
// high-water mark into the result.
type setupTimer struct {
	samples []float64
	heap    float64
}

func (s *setupTimer) add(d time.Duration) { s.samples = append(s.samples, d.Seconds()) }

// sampleHeap raises the heap high-water mark; a nil timer (a probe part)
// samples nothing.
func (s *setupTimer) sampleHeap() {
	if s == nil {
		return
	}
	if h := heapMiB(); h > s.heap {
		s.heap = h
	}
}

// setupRounds is how many times a part sets up: the primary part repeats
// its set-up and reports the median, a probe sets up once.
func setupRounds(primary bool) int {
	if primary {
		return 5
	}
	return 1
}

// report stores setup_s, scaled by the primary part's host speed, and
// heap_mb.
func (s *setupTimer) report(r *result, host float64) {
	r.put("setup_s", s.samples, median, host, true)
	r.e2e["heap_mb"] = s.heap
}
