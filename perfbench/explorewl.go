package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sync"
	"time"

	"canely"
	"canely/internal/can"
	"canely/internal/explore"
)

// Explore workload: explore.Engine with nproc workers, pruning and POR on,
// exhausts the CANELy join+crash tree at its default depth and the SWIM
// gossip tree at depth 60 (repeated, since it saturates early). Only the
// explorer and the cores' StepInto/Clone/Fingerprint work here: no
// simulator, medium or stack.
const (
	gossipDepth  = 60
	gossipRepeat = 5
	// exploreUnit is the nominal time of one unit (one CANELy and
	// gossipRepeat gossip exhaustions) on the tuning host.
	exploreUnit = 5500 * time.Millisecond
	// defectDepth is the depth at which the search finds the known
	// false-suspicion divergence (see NOTES.md).
	defectDepth = 26
)

// search runs one exploration and reports its wall time. When poll is set
// the frontier is sampled every millisecond for its peak. after, when
// non-nil, runs once the search ends while the engine is still live (the
// heap high-water mark includes its visited set).
//
// host is the mean host speed tracked while the search ran.
func search(sc explore.Scenario, target uint64, poll bool, after func()) (res explore.Result, d time.Duration, host float64, peak int64, err error) {
	e, err := explore.New(explore.Config{Scenario: sc, Workers: nproc, Prune: true, POR: true, Target: target})
	if err != nil {
		return explore.Result{}, 0, 1, 0, err
	}
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	if poll {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					peak = max(peak, e.Stats().Frontier)
				}
			}
		}()
	}
	track := startTracker()
	t0 := time.Now()
	res, err = e.Run(context.Background())
	d = time.Since(t0)
	host = track.end()
	close(stop)
	wg.Wait()
	if after != nil {
		after()
		runtime.KeepAlive(e)
	}
	return res, d, host, peak, err
}

// exhausted is the explore output check.
func exhausted(name string, r explore.Result) error {
	if r.Violation != nil {
		return fmt.Errorf("explore %s: violation %q, decision vector %v", name, r.Violation.Msg, r.Violation.Vec)
	}
	if !r.Exhausted {
		return fmt.Errorf("explore %s: tree not exhausted after %d runs", name, r.Runs())
	}
	return nil
}

func gossipScenario() explore.Scenario {
	sc := explore.DefaultGossipScenario()
	sc.MaxDepth = gossipDepth
	return sc
}

// explorePart exhausts both trees once per unit.
type explorePart struct {
	env
	canely           explore.Scenario
	units, target    int
	canelyT, gossipT []float64
	// canelyN and gossipN are the exhaustion times scaled by the host
	// speed tracked during each search.
	canelyN, gossipN, hosts []float64
}

func newExplore(e env) *explorePart {
	sc := explore.DefaultScenario()
	if e.o.scale < 1 {
		sc.MaxDepth = 12
	}
	return &explorePart{env: e, canely: sc, target: exploreUnits(e.o)}
}

// setup builds both engines' initial systems and warms the explorer's
// pools with a bounded search.
func (p *explorePart) setup() error {
	if _, _, _, _, err := search(p.canely, 20000, false, nil); err != nil {
		return err
	}
	_, err := explore.New(explore.Config{Scenario: gossipScenario(), Workers: nproc})
	return err
}

func (p *explorePart) close() {}

// exploreUnits is how many units a run makes: the part's budget in
// nominal units, at least one. A unit takes 4.6-9 s as the host's speed
// drifts, so a time budget would make the unit count, and with it the
// fastest-exhaustion estimators, jump between runs; a fixed count does
// not.
func exploreUnits(o *options) int {
	return max(1, int(math.Round(float64(o.budget("explore"))/float64(exploreUnit))))
}

// measure runs the slot's share of the run's units; deadlines do not
// apply.
func (p *explorePart) measure(time.Time) error {
	perSlot := (p.target + slots - 1) / slots
	for i := 0; i < perSlot && p.units < p.target; i++ {
		if err := p.unit(); err != nil {
			return err
		}
	}
	return nil
}

// unit exhausts the CANELy tree once and the gossip tree gossipRepeat
// times.
func (p *explorePart) unit() error {
	res, firstUnit := p.res, p.units == 0
	p.units++
	var after func()
	if firstUnit {
		after = p.heap.sampleHeap
	}
	sp := p.tr.root("explore.search/canely")
	r, d, host, peak, err := search(p.canely, 0, p.traced && firstUnit, after)
	sp.end()
	if err != nil {
		return err
	}
	res.op(exhausted("canely", r))
	p.canelyT = append(p.canelyT, d.Seconds())
	p.canelyN = append(p.canelyN, d.Seconds()*host)
	p.hosts = append(p.hosts, host)
	if firstUnit {
		res.digest["explore.canely"] = counts(r)
		if p.traced {
			exploreLayers(res, r, d, peak, p.canely)
		}
	}
	for g := 0; g < gossipRepeat; g++ {
		sp := p.tr.root("explore.search/gossip")
		r, d, host, _, err := search(gossipScenario(), 0, false, nil)
		sp.end()
		if err != nil {
			return err
		}
		res.op(exhausted("gossip", r))
		p.gossipT = append(p.gossipT, d.Seconds())
		p.gossipN = append(p.gossipN, d.Seconds()*host)
		if firstUnit && g == 0 {
			res.digest["explore.gossip"] = counts(r)
		}
	}
	return nil
}

func (p *explorePart) finish() error {
	p.res.raw["canely_exhaust_s"] = fastest(p.canelyT)
	p.res.raw["gossip_exhaust_s"] = fastest(p.gossipT)
	p.res.e2e["canely_exhaust_s"] = fastest(p.canelyN)
	p.res.e2e["gossip_exhaust_s"] = fastest(p.gossipN)
	p.res.raw["host.explore"] = median(p.hosts)
	if p.traced {
		exploreCore(p.res)
	}
	if p.o.workload == "explore" && p.o.scale == 1 && !p.traced {
		knownDefect(p.res, p.tr)
	}
	return nil
}

func counts(r explore.Result) map[string]uint64 {
	return map[string]uint64{
		"schedules": r.Schedules, "pruned": r.Pruned, "slept": r.Slept, "distinct": r.Distinct,
	}
}

// exploreLayers derives the explorer's per-layer metrics from the first
// CANELy exhaustion.
func exploreLayers(res *result, r explore.Result, d time.Duration, peak int64, sc explore.Scenario) {
	res.layer["explore.schedules"] = float64(r.Schedules)
	res.layer["explore.pruned"] = float64(r.Pruned)
	res.layer["explore.slept"] = float64(r.Slept)
	res.layer["explore.distinct"] = float64(r.Distinct)
	res.layer["explore.steps"] = float64(r.Steps)
	res.layer["explore.resumed"] = float64(r.Resumed)
	res.layer["explore.snapshots"] = float64(r.Snapshots)
	res.layer["explore.useful"] = float64(r.Schedules) / float64(r.Runs())
	res.layer["explore.ns_per_step"] = float64(d.Nanoseconds()) * nproc / float64(r.Steps)
	res.layer["explore.peak_frontier"] = float64(peak)

	// System.Snapshot/Restore/Fingerprint at the scenario's initial state:
	// the explorer exports no stepping, so deeper states are out of reach
	// from outside the package.
	sys, err := explore.NewSystem(&sc, nil)
	if err != nil {
		res.op(err)
		return
	}
	const n = 2000
	t0 := time.Now()
	var snap *explore.System
	for i := 0; i < n; i++ {
		snap = sys.Snapshot()
	}
	res.layer["explore.snapshot_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for i := 0; i < n; i++ {
		snap.Restore(sys)
	}
	res.layer["explore.restore_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	var h maphash.Hash
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Reset()
		sys.Fingerprint(&h)
	}
	res.layer["explore.fingerprint_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}

// exploreCore times core.Node Clone and Fingerprint on states sampled
// along a recorded run of the explorer's scenario shape: three nodes, two
// bootstrapped, one joining, one crashing.
func exploreCore(res *result) {
	cfg := canely.DefaultConfig()
	cfg.Substrate = canely.SubstrateFast
	cfg.Record = true
	net := canely.NewNetwork(cfg, 3)
	view := can.MakeSet(0, 1)
	net.Node(0).Bootstrap(view)
	net.Node(1).Bootstrap(view)
	net.Node(2).Join()
	net.Run(200 * time.Millisecond)
	net.Node(1).Crash()
	net.Run(300 * time.Millisecond)
	st, err := restep(net.EventLog(), 0, 1)
	res.op(err)
	if err == nil {
		res.layer["core.clone_ns"] = st.cloneNS
		res.layer["core.fingerprint_ns"] = st.fpNS
	}
}

// defect is the known-defect report line.
type defect struct {
	Operation string  `json:"operation"`
	Status    string  `json:"status"`
	Violation string  `json:"violation,omitempty"`
	Vector    []int   `json:"decision_vector,omitempty"`
	Runs      uint64  `json:"runs"`
	Replay    string  `json:"replay,omitempty"`
	Seconds   float64 `json:"seconds"`
}

// knownDefect runs the depth-26 CANELy search, which finds a real
// divergence (a surveillance expiry racing the victim's life-sign at the
// same instant). It is reported on its own line as a failed operation with
// its decision vector and replay verdict, and never aborts the workload.
func knownDefect(res *result, tr *tracer) {
	sc := explore.DefaultScenario()
	sc.MaxDepth = defectDepth
	sp := tr.root("explore.search/depth26")
	r, d, _, _, err := search(sc, 0, false, nil)
	sp.end()
	dr := defect{Operation: fmt.Sprintf("explore canely depth %d", defectDepth), Runs: r.Runs(), Seconds: d.Seconds()}
	switch {
	case err != nil:
		dr.Status, dr.Violation = "error", err.Error()
	case r.Violation != nil:
		dr.Status, dr.Violation, dr.Vector = "failed", r.Violation.Msg, r.Violation.Vec
		dr.Replay = "OK"
		if verr := r.Violation.Log.Verify(); verr != nil {
			dr.Replay = verr.Error()
		}
	default:
		dr.Status = "passed"
	}
	res.defects = append(res.defects, dr)
}
