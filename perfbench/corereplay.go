package main

import (
	"fmt"
	"hash/maphash"
	"time"

	"canely"
	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/proto"
	"canely/internal/replay"
)

// The core layer is measured from outside the stack: a Config.Record
// capture is re-stepped on fresh core.New cores, every step timed and its
// commands checked against the capture.

// coreWindow is the recorded virtual window the core metrics cover.
const coreWindow = time.Second

// timerCost is the mean cost of one time.Now/time.Since pair, subtracted
// from per-step timings.
func timerCost() time.Duration {
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return total / n
}

// stepStats is the outcome of re-stepping a capture.
type stepStats struct {
	steps, cmds int
	ns          float64
	byKind      map[string][2]float64 // kind -> {ns, steps}
	cloneNS     float64
	fpNS        float64
}

// restep replays log on fresh cores, timing the records from index from
// on. Every sampleEvery-th timed record it also times Clone and
// Fingerprint of the stepped core (0 disables sampling).
func restep(log *replay.Log, from, sampleEvery int) (stepStats, error) {
	nodes := make(map[can.NodeID]*core.Node, len(log.Nodes))
	for _, nc := range log.Nodes {
		if nc.Core == nil {
			return stepStats{}, fmt.Errorf("node %v has no composite-core config", nc.ID)
		}
		n, err := core.New(nc.ID, *nc.Core)
		if err != nil {
			return stepStats{}, fmt.Errorf("rebuilding core %v: %w", nc.ID, err)
		}
		nodes[nc.ID] = n
	}
	over := float64(timerCost().Nanoseconds())
	st := stepStats{byKind: make(map[string][2]float64)}
	var (
		buf     proto.CommandBuf
		h       maphash.Hash
		samples int
	)
	for i, rec := range log.Records {
		n := nodes[rec.Node]
		if n == nil {
			return st, fmt.Errorf("record %d references unregistered node %v", i, rec.Node)
		}
		buf.Reset()
		if i < from {
			n.StepInto(rec.Event, &buf)
		} else {
			t0 := time.Now()
			n.StepInto(rec.Event, &buf)
			d := float64(time.Since(t0).Nanoseconds()) - over
			st.steps++
			st.ns += d
			k := rec.Event.Kind.String()
			v := st.byKind[k]
			st.byKind[k] = [2]float64{v[0] + d, v[1] + 1}
			if sampleEvery > 0 && st.steps%sampleEvery == 0 {
				t0 = time.Now()
				c := n.Clone()
				st.cloneNS += float64(time.Since(t0).Nanoseconds()) - over
				t0 = time.Now()
				c.Fingerprint(&h)
				st.fpNS += float64(time.Since(t0).Nanoseconds()) - over
				samples++
			}
		}
		got := buf.Commands()
		st.cmds += len(got)
		if len(got) != len(rec.Commands) {
			return st, fmt.Errorf("record %d (node %v, %v): %d commands, captured %d", i, rec.Node, rec.Event, len(got), len(rec.Commands))
		}
		for j := range got {
			if got[j] != rec.Commands[j] {
				return st, fmt.Errorf("record %d (node %v, %v) command %d differs from the capture", i, rec.Node, rec.Event, j)
			}
		}
	}
	if samples > 0 {
		st.cloneNS /= float64(samples)
		st.fpNS /= float64(samples)
	}
	return st, nil
}

// steadyCapture records a fast-arm twin through warm-up and the core
// window and returns the capture with the index of the window's first
// record.
func steadyCapture(seed int64) (*replay.Log, int) {
	net := buildCANELy(seed, canely.SubstrateFast, nil, true)
	net.Run(steadyWarm)
	from := len(net.EventLog().Records)
	net.Run(coreWindow)
	return net.EventLog(), from
}

// steadyCore records a fast-arm network over the core window, re-steps the
// capture and derives the core and stack metrics. runNSPerVS is the traced
// pass's Network.Run host time per virtual second.
func steadyCore(seed int64, res *result, runNSPerVS float64) error {
	log, from := steadyCapture(seed)
	res.op(log.Verify())
	st, err := restep(log, from, 0)
	res.op(err)
	if err != nil || st.steps == 0 {
		return nil
	}
	vs := coreWindow.Seconds()
	perStep := st.ns / float64(st.steps)
	coreNSPerVS := st.ns / vs
	res.layer["core.steps_per_vs"] = float64(st.steps) / vs
	res.layer["core.cmds_per_step"] = float64(st.cmds) / float64(st.steps)
	res.layer["core.ns_per_step"] = perStep
	for _, k := range coreKinds {
		v := st.byKind[k]
		if v[1] > 0 {
			res.layer["core.ns_per_step."+k] = v[0] / v[1]
		}
	}
	res.layer["core.share"] = coreNSPerVS / runNSPerVS
	res.layer["stack.rest_ns_per_vs"] = runNSPerVS - coreNSPerVS
	kinds := make(map[string]float64, len(st.byKind))
	for k, v := range st.byKind {
		kinds[k] = v[1] / float64(st.steps)
	}
	res.digest["steady.core_kind_share"] = kinds
	return nil
}
