package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
)

// Churn workload: campaign.Runner with nproc workers runs many short,
// independent, seeded runs. Each builds a 16-node fastbus network with one
// pre-attached joiner under stochastic consistent and inconsistent
// omissions (bounded by K and J); at a seed-drawn phase one node crashes,
// one leaves and the joiner joins, and the run continues until membership
// settles. This is the membership write path: FDA diffusion, RHA rounds,
// JOIN/LEAVE, fault injection, per-run network set-up and the worker pool.
const (
	churnNodes   = 16
	churnBatch   = 200
	churnMaxTail = time.Second
	churnStep    = 10 * time.Millisecond
	// vdetectRuns is the fixed run population the exact virtual detection
	// quantiles are taken over; it is always completed, whatever the
	// host's speed.
	vdetectRuns = 1000
	// mistakeBudget is the number of false failure notifications (fd-can.nty
	// for a node that did not crash) a run may produce: omissions stay
	// within the K/J bounds the detector is designed for, so none.
	mistakeBudget = 0
)

// churnConfig is the per-run base configuration.
func churnConfig() canely.Config {
	cfg := canely.DefaultConfig()
	cfg.Substrate = canely.SubstrateFast
	cfg.PCorrupt = 0.01
	cfg.PInconsistent = 0.01
	return cfg
}

// churnRun executes one run; filter, when set, is installed as the
// stack's FilterIndication (the self-test's sabotage).
func churnRun(p campaign.Params, tr *tracer, filter func(can.NodeID, can.Frame, bool) bool) (map[string]float64, error) {
	sp := tr.root("churn.run")
	defer sp.end()
	r := newRand(p.Seed, "churn/run")
	perm := r.Perm(churnNodes)
	victim, leaver := can.NodeID(perm[0]), can.NodeID(perm[1])
	joiner := can.NodeID(churnNodes)
	phase := 100*time.Millisecond + time.Duration(r.Int64N(int64(100*time.Millisecond)))
	observer := can.NodeID(0)
	for observer == victim || observer == leaver {
		observer++
	}

	var (
		net                             *canely.Network
		crashed                         bool
		detectedAt                      time.Duration
		detected                        bool
		fda, mistakes, views, rhaFrames int
		mistaken                        = make(map[[2]can.NodeID]bool)
	)
	cfg := p.Config
	cfg.Hooks = &canely.Hooks{
		FilterIndication: filter,
		OnFDANotify:      func(can.NodeID, can.NodeID) { fda++ },
		OnFDNotify: func(node, failed can.NodeID) {
			if crashed && failed == victim {
				if node == observer && !detected {
					detected, detectedAt = true, net.Now()
				}
				return
			}
			if k := [2]can.NodeID{node, failed}; !mistaken[k] {
				mistaken[k] = true
				mistakes++
			}
		},
		OnViewChange: func(can.NodeID, canely.Change) { views++ },
		OnIndication: func(_ can.NodeID, f can.Frame, own bool) {
			if own && !f.RTR {
				if mid, err := can.DecodeMID(f.ID); err == nil && mid.Type == can.TypeRHA {
					rhaFrames++
				}
			}
		},
	}

	t0 := time.Now()
	setup := sp.child("facade.setup")
	net = canely.NewNetwork(cfg, churnNodes)
	j := net.AddNode(joiner)
	var view can.NodeSet
	for i := 0; i < churnNodes; i++ {
		view = view.Add(can.NodeID(i))
	}
	for i := 0; i < churnNodes; i++ {
		net.Node(can.NodeID(i)).Bootstrap(view)
	}
	setup.end()
	setupDur := time.Since(t0)

	run := sp.child("facade.run")
	net.Run(phase)
	crashAt := net.Now()
	net.Node(victim).Crash()
	crashed = true
	net.Node(leaver).Leave()
	j.Join()
	want := view.Remove(victim).Remove(leaver).Add(joiner)
	settled := false
	for net.Now()-crashAt < churnMaxTail {
		net.Run(churnStep)
		if detected && agreed(net, want, leaver) {
			settled = true
			break
		}
	}
	run.end()
	runDur := time.Since(t0) - setupDur

	if !settled {
		return nil, fmt.Errorf("churn seed %d: membership did not settle on %v within %v (detected=%v)",
			p.Seed, want, churnMaxTail, detected)
	}
	vdetect := detectedAt - crashAt
	if bound := cfg.DetectionLatencyBound(); vdetect > bound {
		return nil, fmt.Errorf("churn seed %d: crash of %v detected after %v, bound %v", p.Seed, victim, vdetect, bound)
	}
	if mistakes > mistakeBudget {
		return nil, fmt.Errorf("churn seed %d: %d false failure notifications, budget %d", p.Seed, mistakes, mistakeBudget)
	}
	st := net.Stats()
	return map[string]float64{
		"vdetect_ms":   float64(vdetect) / float64(time.Millisecond),
		"fda":          float64(fda),
		"mistakes":     float64(mistakes),
		"views":        float64(views),
		"rha_frames":   float64(rhaFrames),
		"corrupt":      float64(st.FramesError),
		"inconsistent": float64(st.FramesInconsistent),
		"events":       float64(net.Scheduler().Fired()),
		"bits_fda":     float64(st.BitsByType[can.TypeFDA]),
		"bits_rha":     float64(st.BitsByType[can.TypeRHA]),
		"bits_join":    float64(st.BitsByType[can.TypeJoin]),
		"bits_leave":   float64(st.BitsByType[can.TypeLeave]),
		"setup_us":     float64(setupDur.Microseconds()),
		"run_us":       float64(runDur.Microseconds()),
	}, nil
}

// agreed reports whether every operational member holds want and the
// leaver has withdrawn.
func agreed(net *canely.Network, want can.NodeSet, leaver can.NodeID) bool {
	if net.Node(leaver).Member() {
		return false
	}
	for s := want; !s.Empty(); {
		id := s.Lowest()
		s = s.Remove(id)
		nd := net.Node(id)
		if !nd.Member() || nd.View() != want {
			return false
		}
	}
	return true
}

// churnSpec is batch b of the seed sweep.
func churnSpec(seed int64, b, n int, tr *tracer) *campaign.Spec {
	return &campaign.Spec{
		Name:  "perfbench-churn",
		Base:  churnConfig(),
		Seeds: campaign.SeedRange{Base: subSeed(seed, "churn") + int64(b*n), N: n},
		Run: func(p campaign.Params) (map[string]float64, error) {
			return churnRun(p, tr, nil)
		},
	}
}

// churnPart runs campaign batches and accumulates their results.
type churnPart struct {
	env
	batch, minRuns int

	b, runs, total int
	rates, vdetect []float64
	// norm holds the batch rates scaled by the host speed tracked during
	// each batch.
	norm, hosts    []float64
	sums           map[string]float64
	busyUS, wallUS float64
	minW, maxW     int
	mallocs, bytes float64
	digestEvents   float64
}

func newChurn(e env) *churnPart {
	batch := int(math.Max(8, float64(churnBatch)*e.o.scale))
	return &churnPart{
		env:     e,
		batch:   batch,
		minRuns: int(math.Max(float64(batch), float64(vdetectRuns)*e.o.scale)),
		sums:    make(map[string]float64),
		minW:    math.MaxInt,
	}
}

// setup runs a warm-up campaign that grows every worker's pooled
// scheduler and the runtime's heap to the workload's working set.
func (p *churnPart) setup() error {
	r := campaign.Runner{Workers: nproc}
	_, err := r.Run(context.Background(), churnSpec(p.o.seed^0x5eed, 0, p.batch/2, nil))
	return err
}

func (p *churnPart) close() {}

func (p *churnPart) measure(until time.Time) error {
	for first := true; first || time.Now().Before(until); first = false {
		if err := p.runBatch(true); err != nil {
			return err
		}
	}
	p.heap.sampleHeap()
	return nil
}

// runBatch runs the next batch of the seed sweep; timed batches feed
// runs_per_s.
func (p *churnPart) runBatch(timed bool) error {
	var ac allocCounter
	if p.traced {
		ac = startAllocs()
	}
	r := campaign.Runner{Workers: nproc}
	track := startTracker()
	t0 := time.Now()
	results, err := r.Run(context.Background(), churnSpec(p.o.seed, p.b, p.batch, p.tr))
	wall := time.Since(t0)
	host := track.end()
	p.b++
	if err != nil {
		return err
	}
	if p.traced {
		m, by := ac.since()
		p.mallocs += m
		p.bytes += by
	}
	if timed {
		rate := float64(len(results)) / wall.Seconds()
		p.rates = append(p.rates, rate)
		p.norm = append(p.norm, rate/host)
		p.hosts = append(p.hosts, host)
	}
	p.wallUS += float64(wall.Microseconds())
	for _, w := range r.WorkerRuns {
		p.minW, p.maxW = min(p.minW, w), max(p.maxW, w)
	}
	for _, rr := range results {
		p.total++
		if rr.Failed() {
			p.res.op(fmt.Errorf("%s", rr.Err))
			continue
		}
		p.res.op(nil)
		if p.total <= p.minRuns {
			p.vdetect = append(p.vdetect, rr.Metrics["vdetect_ms"])
			p.digestEvents += rr.Metrics["events"]
		}
		p.runs++
		for k, v := range rr.Metrics {
			p.sums[k] += v
		}
		p.busyUS += rr.Metrics["setup_us"] + rr.Metrics["run_us"]
	}
	return nil
}

func (p *churnPart) finish() error {
	// The exact detection quantiles cover a fixed run population: top it
	// up (untimed) when the measured slots ended short of it.
	for p.total < p.minRuns {
		if err := p.runBatch(false); err != nil {
			return err
		}
	}
	res := p.res
	res.raw["runs_per_s"] = speed(p.rates)
	res.e2e["runs_per_s"] = speed(p.norm)
	res.raw["host.churn"] = median(p.hosts)
	if len(p.vdetect) > 0 {
		p50, p99 := quantile(p.vdetect, 0.5), quantile(p.vdetect, 0.99)
		res.e2e["vdetect_ms_p50"] = p50
		res.e2e["vdetect_ms_p99"] = p99
		res.digest["churn.vdetect_ms_p50"] = p50
		res.digest["churn.vdetect_ms_p99"] = p99
		res.digest["churn.vdetect_runs"] = len(p.vdetect)
		res.digest["churn.sim_events"] = p.digestEvents
	}
	if !p.traced || p.runs == 0 {
		return nil
	}
	n := float64(p.runs)
	per := func(k string) float64 { return p.sums[k] / n }
	res.layer["sim.events_per_run"] = per("events")
	res.layer["fastbus.bits.fda_per_run"] = per("bits_fda")
	res.layer["fastbus.bits.rha_per_run"] = per("bits_rha")
	res.layer["fastbus.bits.join_per_run"] = per("bits_join")
	res.layer["fastbus.bits.leave_per_run"] = per("bits_leave")
	res.layer["fault.corrupt_per_run"] = per("corrupt")
	res.layer["fault.inconsistent_per_run"] = per("inconsistent")
	res.layer["fd.fda_per_run"] = per("fda")
	res.layer["fd.mistakes_per_run"] = per("mistakes")
	res.layer["membership.view_changes_per_run"] = per("views")
	res.layer["membership.rha_frames_per_run"] = per("rha_frames")
	res.layer["facade.setup_us"] = per("setup_us")
	res.layer["facade.run_us"] = per("run_us")
	res.layer["facade.allocs_per_run"] = p.mallocs / n
	res.layer["facade.bytes_per_run"] = p.bytes / n
	res.layer["campaign.busy"] = p.busyUS / (nproc * p.wallUS)
	res.layer["campaign.imbalance"] = float64(p.maxW) / float64(max(p.minW, 1))
	res.layer["campaign.overhead_us_per_run"] = (nproc*p.wallUS - p.busyUS) / n
	return nil
}
