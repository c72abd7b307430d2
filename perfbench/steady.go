package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"canely"
	"canely/internal/can"
	"canely/internal/datagram"
	"canely/internal/gossip"
)

// Steady workload: a closed batch loop on one goroutine advancing three
// bootstrapped 32-node systems in fixed virtual-time slices — CANELy on
// fastbus, CANELy on the bit-accurate bus, and SWIM gossip cores on the
// lossy datagram medium. No faults, joins or crashes: the simulator, the
// media, the stack binding and the cores' steady path do all the work.
const (
	steadyNodes   = 32
	steadyWarm    = 500 * time.Millisecond
	fastSlice     = 250 * time.Millisecond
	bitSlice      = 50 * time.Millisecond
	gossipSlice   = 250 * time.Millisecond
	trafficPeriod = 5 * time.Millisecond
	// gossipDrop is the datagram loss rate. At 1% SWIM's own suspicion
	// mechanism declares a live node dead about once per hundred virtual
	// seconds of this 32-node cluster, which the equal-views check reports
	// as a failure; 0.1% keeps loss, retries and refutation in play without
	// false deaths.
	gossipDrop = 0.001
	// digestSlices is the fixed virtual window (fast slices after warm-up)
	// the exact simulated statistics are taken over, whatever the host's
	// speed.
	digestSlices = 4
)

// subSeed derives an independent stream seed for one input from the
// workload seed.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

func newRand(seed int64, label string) *rand.Rand {
	s := uint64(subSeed(seed, label))
	return rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15))
}

// steadyCounters are the traced pass's hook counters, shared by every node
// of one network (the network is single-goroutine).
type steadyCounters struct {
	indications, dataNty int64
}

// steadySystem is one set-up of the three arms.
type steadySystem struct {
	fast, bit *canely.Network
	gnet      *gossip.Network
	fastCount steadyCounters
	all       can.NodeSet
}

// buildCANELy builds, bootstraps and starts traffic on one CANELy arm.
// Half the nodes, chosen from the seed, send 8-byte cyclic data every 5 ms;
// the rest fall back to explicit life-signs.
func buildCANELy(seed int64, sub canely.Substrate, hooks *canely.Hooks, record bool) *canely.Network {
	cfg := canely.DefaultConfig()
	cfg.Seed = subSeed(seed, "steady/net")
	cfg.Substrate = sub
	cfg.Hooks = hooks
	cfg.Record = record
	net := canely.NewNetwork(cfg, steadyNodes)
	net.BootstrapAll()
	r := newRand(seed, "steady/traffic")
	senders := r.Perm(steadyNodes)[:steadyNodes/2]
	for _, id := range senders {
		payload := make([]byte, 8)
		for i := range payload {
			payload[i] = byte(r.IntN(256))
		}
		net.Node(canely.NodeID(id)).StartCyclicTraffic(uint8(id%4), trafficPeriod, payload)
	}
	return net
}

func buildGossip(seed int64) (*gossip.Network, error) {
	gn, err := gossip.NewNetwork(gossip.NetworkConfig{
		Nodes: steadyNodes,
		Core:  gossip.DefaultConfig(),
		Rate:  can.Rate1Mbps,
		Link: datagram.LinkParams{
			Drop:        gossipDrop,
			DelayMin:    200 * time.Microsecond,
			DelayJitter: 300 * time.Microsecond,
		},
		Seed: subSeed(seed, "steady/datagram"),
	})
	if err != nil {
		return nil, err
	}
	var all can.NodeSet
	for i := 0; i < steadyNodes; i++ {
		all = all.Add(can.NodeID(i))
	}
	gn.Bootstrap(all)
	return gn, nil
}

func setupSteady(seed int64, traced bool) (*steadySystem, error) {
	s := &steadySystem{}
	for i := 0; i < steadyNodes; i++ {
		s.all = s.all.Add(can.NodeID(i))
	}
	var hooks *canely.Hooks
	if traced {
		c := &s.fastCount
		hooks = &canely.Hooks{
			OnIndication: func(can.NodeID, can.Frame, bool) { c.indications++ },
			OnDataNty:    func(can.NodeID, can.MID) { c.dataNty++ },
		}
	}
	s.fast = buildCANELy(seed, canely.SubstrateFast, hooks, false)
	s.bit = buildCANELy(seed, canely.SubstrateBitAccurate, nil, false)
	gn, err := buildGossip(seed)
	if err != nil {
		return nil, err
	}
	s.gnet = gn
	s.fast.Run(steadyWarm)
	s.bit.Run(steadyWarm)
	gn.RunFor(steadyWarm)
	s.fastCount = steadyCounters{}
	return s, nil
}

// checkViews is the steady output check: every node of the arm holds the
// full bootstrapped view.
func checkViews(arm string, net *canely.Network, all can.NodeSet) error {
	for _, nd := range net.Nodes() {
		if v := nd.View(); v != all || !nd.Member() {
			return fmt.Errorf("steady %s: node %v view %v member=%v at %v, want %v",
				arm, nd.ID(), v, nd.Member(), net.Now(), all)
		}
	}
	return nil
}

func checkGossipViews(gn *gossip.Network, all can.NodeSet) error {
	for i := 0; i < steadyNodes; i++ {
		c := gn.Core(can.NodeID(i))
		if c.View() != all || !c.Dead().Empty() {
			return fmt.Errorf("steady gossip: node %d view %v dead %v at %v, want %v",
				i, c.View(), c.Dead(), gn.Sched.Now(), all)
		}
	}
	return nil
}

// ctrlTypes are the CANELy control message types whose wire time
// ctrl_util (Figure 10's bandwidth cost) adds up.
var ctrlTypes = []can.MsgType{can.TypeELS, can.TypeFDA, can.TypeRHA, can.TypeJoin, can.TypeLeave}

// steadyPart measures the three arms slice by slice. Each slot runs on
// a freshly built system that is dropped when the slot ends: the bit-accurate
// bus keeps its whole event trace, and a system kept across slots would
// grow with the host's speed and weigh on every other part's heap.
type steadyPart struct {
	env
	// s is the current slot's system; nil between slots.
	s *steadySystem
	// cal interleaves one reference operation with every slice.
	cal *calibrator

	// Baselines of the current system, taken when its slot began.
	fastStats0, bitStats0, gosStats0 canely.BusStats
	fastFired0, gosFired0            uint64
	gosDrop0                         int
	counts0                          steadyCounters

	// Totals over all slots.
	slices                         int
	bitFrames, gosMsgs, gosDropped float64
	gosEvents                      float64
	fastV, bitV, gossipV           []float64
	fastNS, bitNS, gosNS           int64
	bitMallocs, bitBytes           float64
}

func (p *steadyPart) setup() (err error) {
	p.s, err = setupSteady(p.o.seed, p.traced)
	return err
}

func (p *steadyPart) close() { p.s = nil }

func (p *steadyPart) measure(until time.Time) error {
	if p.s == nil {
		s, err := setupSteady(p.o.seed, p.traced)
		if err != nil {
			return err
		}
		p.s = s
	}
	s := p.s
	p.fastStats0, p.fastFired0 = s.fast.Stats(), s.fast.Scheduler().Fired()
	p.bitStats0 = s.bit.Stats()
	p.gosFired0, p.gosStats0, p.gosDrop0 = s.gnet.Sched.Fired(), s.gnet.Net.Stats(), s.gnet.Net.Dropped()
	p.counts0 = s.fastCount
	for first := true; first || p.slices < digestSlices || time.Now().Before(until); first = false {
		p.slice()
	}
	p.bitFrames += float64(s.bit.Stats().FramesOK - p.bitStats0.FramesOK)
	p.gosMsgs += float64(s.gnet.Net.Stats().FramesOK - p.gosStats0.FramesOK)
	p.gosDropped += float64(s.gnet.Net.Dropped() - p.gosDrop0)
	p.gosEvents += float64(s.gnet.Sched.Fired() - p.gosFired0)
	p.s = nil
	return nil
}

// slice advances each arm by one slice, timing it and checking views.
func (p *steadyPart) slice() {
	s, res := p.s, p.res
	sp := p.tr.root("steady.slice")
	defer sp.end()
	c := sp.child("canely.Network.Run/fast")
	t0 := time.Now()
	s.fast.Run(fastSlice)
	d := time.Since(t0)
	c.end()
	p.fastV = append(p.fastV, fastSlice.Seconds()/d.Seconds())
	p.fastNS += d.Nanoseconds()
	p.slices++
	res.op(checkViews("fast", s.fast, s.all))
	if p.slices == digestSlices {
		steadyDigest(res, s, p.fastStats0, p.fastFired0, p.traced, p.fastNS, p.counts0)
		// The bit arm's trace grows with virtual time, so the heap is
		// sampled at this fixed virtual instant rather than at the end of
		// the slot, whose virtual time depends on the host's speed.
		p.heap.sampleHeap()
	}

	var ac allocCounter
	if p.traced {
		ac = startAllocs()
	}
	c = sp.child("canely.Network.Run/bit")
	t0 = time.Now()
	s.bit.Run(bitSlice)
	d = time.Since(t0)
	c.end()
	if p.traced {
		m, b := ac.since()
		p.bitMallocs += m
		p.bitBytes += b
	}
	p.bitV = append(p.bitV, bitSlice.Seconds()/d.Seconds())
	p.bitNS += d.Nanoseconds()
	res.op(checkViews("bit", s.bit, s.all))

	c = sp.child("gossip.Network.RunFor")
	t0 = time.Now()
	s.gnet.RunFor(gossipSlice)
	d = time.Since(t0)
	c.end()
	p.gossipV = append(p.gossipV, gossipSlice.Seconds()/d.Seconds())
	p.gosNS += d.Nanoseconds()
	res.op(checkGossipViews(s.gnet, s.all))
	p.cal.sample()
}

func (p *steadyPart) finish() error {
	res := p.res
	h := p.cal.host()
	res.layer["host.speed"] = h
	res.raw["host.speed"] = h
	res.put("fast_vsps", p.fastV, speed, h, false)
	res.put("bit_vsps", p.bitV, speed, h, false)
	res.put("gossip_vsps", p.gossipV, speed, h, false)
	if !p.traced {
		// The core step count is a simulated statistic: digest it in
		// untraced runs too, from an untimed recorded twin of the fast arm.
		log, from := steadyCapture(p.o.seed)
		res.digest["steady.core_steps"] = len(log.Records) - from
		return nil
	}
	bitVS := float64(p.slices) * bitSlice.Seconds()
	res.layer["bus.frames_per_vs"] = p.bitFrames / bitVS
	res.layer["bus.ns_per_frame"] = float64(p.bitNS) / p.bitFrames
	res.layer["bus.allocs_per_vs"] = p.bitMallocs / bitVS
	res.layer["bus.bytes_per_vs"] = p.bitBytes / bitVS

	gosVS := float64(p.slices) * gossipSlice.Seconds()
	res.layer["datagram.msgs_per_vs"] = p.gosMsgs / gosVS
	res.layer["datagram.dropped_per_vs"] = p.gosDropped / gosVS
	res.layer["gossip.ns_per_event"] = float64(p.gosNS) / p.gosEvents
	return steadyCore(p.o.seed, res, float64(p.fastNS)/(float64(p.slices)*fastSlice.Seconds()))
}

// steadyDigest records the exact simulated statistics over the fixed
// digest window, and in the traced pass the fast-arm layer counts.
func steadyDigest(res *result, s *steadySystem, st0 canely.BusStats, fired0 uint64,
	traced bool, hostNS int64, c0 steadyCounters) {
	rate := float64(s.fast.Rate())
	vs := float64(digestSlices) * fastSlice.Seconds()
	st := s.fast.Stats()
	var ctrl int64
	for _, t := range ctrlTypes {
		ctrl += st.BitsByType[t] - st0.BitsByType[t]
	}
	util := float64(ctrl) / (rate * vs)
	events := s.fast.Scheduler().Fired() - fired0
	frames := st.FramesOK - st0.FramesOK
	res.e2e["ctrl_util"] = util
	res.digest["steady.ctrl_util"] = util
	res.digest["steady.sim_events"] = events
	res.digest["steady.fastbus_frames"] = frames
	if !traced {
		return
	}
	res.layer["sim.events_per_vs"] = float64(events) / vs
	res.layer["sim.ns_per_event"] = float64(hostNS) / float64(events)
	res.layer["fastbus.frames_per_vs"] = float64(frames) / vs
	res.layer["fastbus.util"] = float64(st.BitsBusy-st0.BitsBusy) / (rate * vs)
	res.layer["fastbus.ns_per_frame"] = float64(hostNS) / float64(frames)
	res.layer["fastbus.bits.els_per_vs"] = float64(st.BitsByType[can.TypeELS]-st0.BitsByType[can.TypeELS]) / vs
	res.layer["fastbus.bits.data_per_vs"] = float64(st.BitsByType[can.TypeData]-st0.BitsByType[can.TypeData]) / vs
	res.layer["stack.indications_per_vs"] = float64(s.fastCount.indications-c0.indications) / vs
	res.layer["stack.data_nty_per_vs"] = float64(s.fastCount.dataNty-c0.dataNty) / vs
}
