package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/rt"
	"canely/internal/stack"
	"canely/internal/wire"
)

// Live workload: an in-process rt.Broker on a unix socket at 1 Mbit/s with
// two rt.Node connections. Node A sends on an open-loop schedule and node
// B's indication hook stamps arrivals; meanwhile crash cycles join a fresh
// node id, crash it at a seed-drawn phase and time B's fd-can.nty. The
// broker keeps a crashed controller fail-silent, so ids rotate and the
// cluster is rebuilt when they run out. Only here do rt and wire carry
// the load.
const (
	liveRate    = 500 // open-loop frames per second
	liveStream  = 1
	nodeA       = can.NodeID(0)
	nodeB       = can.NodeID(1)
	firstCycler = can.NodeID(2)
	// strata splits the heartbeat period into equal crash-phase bands;
	// cycle k crashes inside band k mod strata, at a seed-drawn offset, so
	// every run samples the detection-latency distribution evenly.
	strata = 8
)

var (
	liveTb  = 20 * time.Millisecond
	liveTm  = 100 * time.Millisecond
	liveTtd = 80 * time.Millisecond
)

func liveStack() stack.Config {
	return stack.Config{
		FD: fd.Config{Tb: liveTb, Ttd: liveTtd},
		Membership: membership.Config{
			Tm:        liveTm,
			TjoinWait: 10 * liveTm,
			RHA:       membership.RHAConfig{Trha: liveTm / 4, J: 2},
		},
		J: 2,
	}
}

// joinBound is the live join check: the first join request must succeed.
var joinBound = 10 * liveTm

// observer is node B's hook state; the hooks run on B's loop goroutine.
type observer struct {
	mu       sync.Mutex
	arrivals map[uint32]time.Time
	dups     int
	mix      []wire.Msg
	waitFrom can.NodeID
	heard    chan struct{}
	victim   can.NodeID
	detected chan time.Time
	// mistakes lists failure notifications for nodes that did not crash.
	mistakes []string
}

func sender(m can.MID) can.NodeID {
	if m.Type == can.TypeELS {
		return can.NodeID(m.Param)
	}
	return m.Src
}

func (ob *observer) hooks() *stack.Hooks {
	return &stack.Hooks{
		OnIndication: func(_ can.NodeID, f can.Frame, own bool) {
			now := time.Now()
			if own {
				return
			}
			mid, err := can.DecodeMID(f.ID)
			if err != nil {
				return
			}
			ob.mu.Lock()
			defer ob.mu.Unlock()
			if len(ob.mix) < 4096 {
				ob.mix = append(ob.mix, wire.Msg{Kind: wire.KindFrame, Frame: f})
			}
			if mid.Type == can.TypeData && mid.Src == nodeA && f.DLC >= 4 {
				seq := binary.LittleEndian.Uint32(f.Data[:4])
				if _, ok := ob.arrivals[seq]; ok {
					ob.dups++
				} else {
					ob.arrivals[seq] = now
				}
			}
			if ob.heard != nil && sender(mid) == ob.waitFrom {
				close(ob.heard)
				ob.heard = nil
			}
		},
		OnFDNotify: func(_ can.NodeID, failed can.NodeID) {
			ob.mu.Lock()
			defer ob.mu.Unlock()
			switch {
			case failed == ob.victim && ob.detected != nil:
				ob.detected <- time.Now()
				ob.detected = nil
			case failed != ob.victim:
				ob.mistakes = append(ob.mistakes, fmt.Sprintf("%v at %s", failed, time.Now().Format("15:04:05.000000")))
			}
		},
	}
}

// liveCluster is one broker with nodes A and B bootstrapped.
type liveCluster struct {
	broker *rt.Broker
	addr   string
	a, b   *rt.Node
	ob     *observer
	next   can.NodeID
}

func (c *liveCluster) close() {
	if c.a != nil {
		c.a.Close()
	}
	if c.b != nil {
		c.b.Close()
	}
	c.broker.Close()
}

func startCluster(sock string) (*liveCluster, error) {
	_ = os.Remove(sock)
	addr := "unix:" + sock
	br, err := rt.ListenBroker(addr, rt.BrokerConfig{Rate: can.Rate1Mbps})
	if err != nil {
		return nil, err
	}
	c := &liveCluster{broker: br, addr: addr, next: firstCycler,
		ob: &observer{arrivals: make(map[uint32]time.Time)}}
	dial := rt.DialConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond}
	if c.a, err = rt.StartNode(rt.NodeConfig{ID: nodeA, Broker: addr, Stack: liveStack(), Dial: dial}); err != nil {
		c.close()
		return nil, err
	}
	if c.b, err = rt.StartNode(rt.NodeConfig{ID: nodeB, Broker: addr, Stack: liveStack(), Dial: dial, Hooks: c.ob.hooks()}); err != nil {
		c.close()
		return nil, err
	}
	view := can.MakeSet(nodeA, nodeB)
	c.a.Bootstrap(view)
	c.b.Bootstrap(view)
	// Warm: both members, and B has heard A.
	deadline := time.Now().Add(2 * time.Second)
	for !(c.a.Member() && c.b.Member()) || !c.hear(nodeA, 100*time.Millisecond) {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("live cluster did not form")
		}
	}
	return c, nil
}

// hear waits until B receives a frame from id.
func (c *liveCluster) hear(id can.NodeID, timeout time.Duration) bool {
	ch := make(chan struct{})
	c.ob.mu.Lock()
	c.ob.waitFrom, c.ob.heard = id, ch
	c.ob.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		c.ob.mu.Lock()
		c.ob.heard = nil
		c.ob.mu.Unlock()
		return false
	}
}

// liveSamples accumulates one pass's live measurements.
type liveSamples struct {
	fwd, late, send, detect, join, call []float64
	// slotEnds marks where each slot's forwarding samples end in fwd.
	slotEnds            []int
	queueMax            int64
	maxStall            time.Duration
	frames, msgs, drops int64
	mix                 []wire.Msg
}

// sent is one open-loop message: its due time, when Send was entered
// and when it returned.
type sent struct {
	due, start, done time.Time
	err              error
}

// generate is node A's open-loop sender: message i is due at
// start + i/liveRate whatever happened to earlier ones. It stops after n
// messages or once stop is set, and returns how many it sent.
func generate(a *rt.Node, start time.Time, n int, payload []byte, out []sent, stop *atomic.Bool) int {
	period := time.Second / liveRate
	buf := make([]byte, 8)
	copy(buf[4:], payload)
	for i := 0; i < n; i++ {
		if stop.Load() {
			return i
		}
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		binary.LittleEndian.PutUint32(buf, uint32(i))
		t0 := time.Now()
		err := a.Send(liveStream, buf)
		out[i] = sent{due: due, start: t0, done: time.Now(), err: err}
	}
	return n
}

// liveEpoch measures one cluster until the deadline or until node ids run
// out, then checks delivery and agreement.
func liveEpoch(o *options, c *liveCluster, res *result, tr *tracer, ls *liveSamples, deadline time.Time, cycle *int) {
	traced := tr != nil
	payload := make([]byte, 4)
	r := newRand(o.seed, fmt.Sprintf("live/%d", *cycle))
	for i := range payload {
		payload[i] = byte(r.IntN(256))
	}
	start := time.Now().Add(5 * time.Millisecond)
	maxIDs := int(can.MaxNodes - firstCycler)
	span := time.Until(deadline)
	n := int(span.Seconds() * liveRate)
	if n < 1 {
		n = 1
	}
	out := make([]sent, n)
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		nsent int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		nsent = generate(c.a, start, n, payload, out, &stop)
	}()
	// The poller samples the broker queue (traced passes) and the host's
	// worst scheduling stall: the longest gap between 1 ms ticks.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-stopPoll:
				return
			case now := <-tick.C:
				ls.maxStall = max(ls.maxStall, now.Sub(last))
				last = now
				if traced {
					ls.queueMax = max(ls.queueMax, c.broker.Metrics().QueueDepth)
				}
			}
		}
	}()

	// Crash cycles run alongside the open loop.
	for cycles := 0; cycles < maxIDs && time.Now().Before(deadline); cycles++ {
		res.op(crashCycle(c, r, ls, *cycle))
		*cycle++
	}
	stop.Store(true)
	wg.Wait()
	out = out[:nsent]
	close(stopPoll)
	pollWG.Wait()

	// Delivery: every frame exactly once. Allow the tail to drain.
	time.Sleep(20 * time.Millisecond)
	c.ob.mu.Lock()
	delivery := deliveryError(out, c.ob.arrivals, c.ob.dups)
	for i, s := range out {
		at, ok := c.ob.arrivals[uint32(i)]
		if s.err != nil || !ok {
			continue
		}
		ls.fwd = append(ls.fwd, float64(at.Sub(s.due).Nanoseconds())/1e3)
		ls.late = append(ls.late, float64(s.start.Sub(s.due).Nanoseconds())/1e3)
		ls.send = append(ls.send, float64(s.done.Sub(s.start).Nanoseconds())/1e3)
		if traced {
			msg := tr.rootAt("live.msg", s.due)
			msg.childSpan("rt.Node.Send", s.start, s.done)
			msg.endAt(at)
		}
	}
	mistakes := c.ob.mistakes
	c.ob.mistakes = nil
	ls.mix = append(ls.mix, c.ob.mix...)
	c.ob.mu.Unlock()
	res.op(delivery)
	res.op(agree(c))
	if len(mistakes) > 0 {
		res.op(fmt.Errorf("live: B falsely suspected %v", mistakes))
	} else {
		res.op(nil)
	}
	if traced {
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			c.a.View()
			ls.call = append(ls.call, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m := c.broker.Metrics()
	ls.frames += m.FramesDelivered
	ls.msgs += m.MsgsSent
	ls.drops += m.Overflows
}

// deliveryError is the live delivery check: every open-loop message that
// Send accepted reached B exactly once. arrivals maps B's received
// sequence numbers to their arrival; dups counts repeated ones.
func deliveryError(out []sent, arrivals map[uint32]time.Time, dups int) error {
	var missing, rejected int
	for i, s := range out {
		if s.err != nil {
			rejected++
		} else if _, ok := arrivals[uint32(i)]; !ok {
			missing++
		}
	}
	if missing > 0 || dups > 0 || rejected > 0 {
		return fmt.Errorf("live: %d of %d frames missing, %d duplicated, %d sends rejected", missing, len(out), dups, rejected)
	}
	return nil
}

// agree checks that A and B converge on one view holding both.
func agree(c *liveCluster) error {
	want := can.MakeSet(nodeA, nodeB)
	deadline := time.Now().Add(3 * liveTm)
	for {
		va, vb := c.a.View(), c.b.View()
		if va == vb && va.Contains(nodeA) && va.Contains(nodeB) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: views disagree: A %v, B %v, want both to hold %v", va, vb, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// crashCycle joins a fresh node id, waits for membership, crashes it at a
// stratified seed-drawn phase after one of its frames and times B's
// failure notification.
func crashCycle(c *liveCluster, r interface{ Float64() float64 }, ls *liveSamples, k int) error {
	id := c.next
	c.next++
	x, err := rt.StartNode(rt.NodeConfig{ID: id, Broker: c.addr, Stack: liveStack(),
		Dial: rt.DialConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond}})
	if err != nil {
		return fmt.Errorf("live: starting node %v: %w", id, err)
	}
	defer x.Close()
	joined := make(chan struct{})
	var once sync.Once
	x.OnChange(func(ch membership.Change) {
		if ch.Active.Contains(id) {
			once.Do(func() { close(joined) })
		}
	})
	t0 := time.Now()
	x.Join()
	select {
	case <-joined:
	case <-time.After(joinBound):
		return fmt.Errorf("live: node %v did not join within %v", id, joinBound)
	}
	ls.join = append(ls.join, float64(time.Since(t0).Nanoseconds())/1e6)

	if !c.hear(id, 10*liveTb) {
		return fmt.Errorf("live: no frame from member %v within %v", id, 10*liveTb)
	}
	phase := time.Duration((float64(k%strata) + r.Float64()) / strata * float64(liveTb))
	time.Sleep(phase)
	d, err := c.timeCrash(id, x.Crash)
	if err == nil {
		ls.detect = append(ls.detect, float64(d.Nanoseconds())/1e6)
	}
	return err
}

// detectBound is the live detection check: B must report a crash within
// ten heartbeat periods.
var detectBound = 10 * liveTb

// timeCrash runs crash, which must crash node id, and times B's failure
// notification for id; no notification within detectBound is an error.
func (c *liveCluster) timeCrash(id can.NodeID, crash func()) (time.Duration, error) {
	det := make(chan time.Time, 1)
	c.ob.mu.Lock()
	c.ob.victim, c.ob.detected = id, det
	c.ob.mu.Unlock()
	crashAt := time.Now()
	crash()
	select {
	case at := <-det:
		return at.Sub(crashAt), nil
	case <-time.After(detectBound):
		c.ob.mu.Lock()
		c.ob.detected = nil
		c.ob.mu.Unlock()
		return 0, fmt.Errorf("live: crash of %v not detected by B within %v", id, detectBound)
	}
}

// socketPath names the broker socket inside the output directory, made
// relative when possible to stay under the unix socket path limit.
func socketPath(o *options, epoch int) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	dir := o.outDir
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil {
			dir = rel
		}
	}
	return filepath.Join(dir, fmt.Sprintf("pb-%d-%d.sock", os.Getpid(), epoch)), nil
}

// livePart runs the open loop and crash cycles in each slot on a fresh
// cluster, so no live traffic runs while other parts measure.
type livePart struct {
	env
	c     *liveCluster
	epoch int
	cycle int
	ls    liveSamples
}

func (p *livePart) start() error {
	sock, err := socketPath(p.o, p.epoch)
	if err != nil {
		return err
	}
	p.epoch++
	p.c, err = startCluster(sock)
	return err
}

func (p *livePart) close() {
	if p.c != nil {
		p.c.close()
		p.c = nil
	}
}

// setup forms the cluster: broker listening, A and B connected,
// bootstrapped and hearing each other.
func (p *livePart) setup() error {
	p.close()
	return p.start()
}

func (p *livePart) measure(until time.Time) error {
	for {
		if p.c == nil {
			if err := p.start(); err != nil {
				return err
			}
		}
		liveEpoch(p.o, p.c, p.res, p.tr, &p.ls, until, &p.cycle)
		if !time.Now().Before(until) {
			break
		}
		p.close() // node ids ran out: rebuild the cluster
	}
	p.ls.slotEnds = append(p.ls.slotEnds, len(p.ls.fwd))
	p.heap.sampleHeap()
	p.close()
	return nil
}

func (p *livePart) finish() error {
	ls, res := &p.ls, p.res
	if len(ls.fwd) == 0 || len(ls.detect) == 0 {
		return fmt.Errorf("live: no samples (frames %d, detections %d)", len(ls.fwd), len(ls.detect))
	}
	res.e2e["fwd_us_p50"] = windowQuartile(ls.fwd, ls.slotEnds, 0.5)
	res.e2e["fwd_us_p90"] = windowQuartile(ls.fwd, ls.slotEnds, 0.9)
	res.raw["fwd_us_p50"] = quantile(ls.fwd, 0.5)
	res.raw["fwd_us_p90"] = quantile(ls.fwd, 0.9)
	res.e2e["detect_ms_p50"] = quantile(ls.detect, 0.5)
	res.e2e["detect_ms_p90"] = quantile(ls.detect, 0.9)
	// Live sample counts and stalls depend on wall time, not only on the
	// seed, so they go to the raw line rather than the digest.
	res.raw["live.frames"] = float64(len(ls.fwd))
	res.raw["live.crash_cycles"] = float64(len(ls.detect))
	res.raw["live.max_stall_ms"] = float64(ls.maxStall.Microseconds()) / 1e3
	if !p.traced {
		return nil
	}
	res.layer["live.fwd_us_p99"] = quantile(ls.fwd, 0.99)
	res.layer["live.gen_late_us_p50"] = quantile(ls.late, 0.5)
	res.layer["live.gen_late_us_p99"] = quantile(ls.late, 0.99)
	res.layer["live.join_ms_p50"] = quantile(ls.join, 0.5)
	res.layer["rt.send_us_p50"] = quantile(ls.send, 0.5)
	res.layer["rt.call_us_p50"] = quantile(ls.call, 0.5)
	res.layer["broker.frames"] = float64(ls.frames)
	res.layer["broker.msgs_sent"] = float64(ls.msgs)
	res.layer["broker.fanout"] = float64(ls.msgs) / float64(ls.frames)
	res.layer["broker.queue_max"] = float64(ls.queueMax)
	res.layer["broker.drops"] = float64(ls.drops)
	wireCosts(res, ls.mix)
	return nil
}

// fwdWindow is how many consecutive open-loop messages, a quarter of a
// second at liveRate, one forwarding-latency window holds: twelve of them
// lie beyond its p90.
const fwdWindow = liveRate / 4

// windowQuartile is the lower quartile, over windows of fwdWindow
// consecutive messages inside one slot, of each window's q-quantile of
// forwarding latency. A neighbour's burst on a shared host can stall the
// broker's and the nodes' loops for milliseconds and lift the tail of
// every window it overlaps; on the tuning host such bursts touched a third
// to a half of the windows in some runs, so the median window's p90
// spread 0.14–0.21 between runs of one configuration while the lower
// quartile spread 0.04. Unlike the single best window, the quartile moves
// with anything that slows more than a quarter of the windows, crash-cycle
// traffic and periodic stalls included. With no full window (tiny runs)
// it is the pooled quantile. samples is not modified.
func windowQuartile(samples []float64, ends []int, q float64) float64 {
	var per []float64
	start := 0
	for _, end := range ends {
		for a := start; a+fwdWindow <= end; a += fwdWindow {
			per = append(per, quantile(append([]float64(nil), samples[a:a+fwdWindow]...), q))
		}
		start = end
	}
	if len(per) == 0 {
		return quantile(append([]float64(nil), samples...), q)
	}
	return quantile(per, 0.25)
}

// wireCosts times wire.Msg Encode and Decode over the observed frame mix.
func wireCosts(res *result, mix []wire.Msg) {
	if len(mix) == 0 {
		return
	}
	const rounds = 50
	recs := make([][wire.MsgSize]byte, len(mix))
	t0 := time.Now()
	for k := 0; k < rounds; k++ {
		for i := range mix {
			mix[i].Encode(&recs[i])
		}
	}
	n := float64(rounds * len(mix))
	res.layer["wire.encode_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	var bad int
	t0 = time.Now()
	for k := 0; k < rounds; k++ {
		for i := range recs {
			if _, err := wire.Decode(recs[i]); err != nil {
				bad++
			}
		}
	}
	res.layer["wire.decode_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	if bad > 0 {
		res.op(fmt.Errorf("wire: %d records failed to decode", bad/rounds))
	}
}
