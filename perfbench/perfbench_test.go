package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/explore"
)

// The self-test runs the benchmark at a tiny size: every declared metric
// must be printed with its unit, and every output check must be able to
// fail.

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct{ Name, Why string } `json:"workloads"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(family string, defs []def, got map[string]string) {
		if len(defs) != len(got) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", family, len(defs), len(got))
		}
		for _, d := range defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s: metric %s (%s) is %q in BENCHMARK.json", family, d.name, d.unit, u)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(parts, ",") {
		t.Errorf("workloads %v, program parts %v", names, parts)
	}
}

// tinyRun runs one workload at self-test size and decodes the result line.
func tinyRun(t *testing.T, workload string, traced bool) output {
	t.Helper()
	o := &options{workload: workload, seed: 7, seconds: 0.2, trace: traced, scale: 0.05, outDir: t.TempDir()}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "host ") && !strings.HasPrefix(l, "digest ") && !strings.HasPrefix(l, "raw ") &&
			!strings.HasPrefix(l, "spans ") && !strings.HasPrefix(l, "known_defect ") {
			t.Errorf("unexpected output line %q", l)
		}
	}
	return out
}

func TestTinyRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every part")
	}
	for _, traced := range []bool{false, true} {
		out := tinyRun(t, "churn", traced)
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(out.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(out.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := out.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s printed as %+v", traced, d.name, m)
			}
		}
	}
}

func TestSteadyChecksFail(t *testing.T) {
	net := buildCANELy(3, 0, nil, false)
	net.Run(100 * time.Millisecond)
	var wrong can.NodeSet = can.MakeSet(0, 1)
	if checkViews("bit", net, wrong) == nil {
		t.Error("a view mismatch passed the steady check")
	}
	gn, err := buildGossip(3)
	if err != nil {
		t.Fatal(err)
	}
	gn.RunFor(100 * time.Millisecond)
	if checkGossipViews(gn, wrong) == nil {
		t.Error("a gossip view mismatch passed the steady check")
	}
}

func TestChurnFilterBreaksAgreement(t *testing.T) {
	p := campaign.Params{Seed: 11, Config: churnConfig()}
	p.Config.Seed = p.Seed
	if _, err := churnRun(p, nil, nil); err != nil {
		t.Fatalf("clean churn run failed: %v", err)
	}
	deaf := func(node can.NodeID, _ can.Frame, own bool) bool { return node != 3 || own }
	if _, err := churnRun(p, nil, deaf); err == nil {
		t.Fatal("node 3 dropping every indication went unreported")
	}
}

func TestExploreDepth26ReportsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("depth-26 search")
	}
	res := newResult()
	knownDefect(res, nil)
	d := res.defects[0].(defect)
	if d.Status != "failed" || len(d.Vector) == 0 || d.Replay != "OK" {
		t.Fatalf("depth-26 search reported %+v, want a replayable violation", d)
	}
	if exhausted("canely", explore.Result{Violation: &explore.Violation{Msg: "x"}}) == nil {
		t.Error("a violation passed the explore check")
	}
}

func TestLiveAgreementCheckFails(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster")
	}
	c, err := startCluster(t.TempDir() + "/s.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := agree(c); err != nil {
		t.Fatalf("fresh cluster disagrees: %v", err)
	}
	c.b.Crash()
	time.Sleep(5 * liveTm) // A detects B and removes it
	if agree(c) == nil {
		t.Fatal("a crashed B passed the agreement check")
	}
}

func TestLiveDeliveryCheckFails(t *testing.T) {
	ob := &observer{arrivals: make(map[uint32]time.Time)}
	h := ob.hooks()
	id := can.MID{Type: can.TypeData, Src: nodeA}.Encode()
	deliver := func(seq uint32) {
		f := can.Frame{ID: id, DLC: 8}
		binary.LittleEndian.PutUint32(f.Data[:4], seq)
		h.OnIndication(nodeB, f, false)
	}
	out := make([]sent, 3)
	for i := range out {
		deliver(uint32(i))
	}
	if err := deliveryError(out, ob.arrivals, ob.dups); err != nil {
		t.Fatalf("clean delivery failed the check: %v", err)
	}
	deliver(1)
	if deliveryError(out, ob.arrivals, ob.dups) == nil {
		t.Error("a duplicated arrival passed the delivery check")
	}
	ob.dups = 0
	delete(ob.arrivals, 2)
	if deliveryError(out, ob.arrivals, ob.dups) == nil {
		t.Error("a dropped arrival passed the delivery check")
	}
}

func TestLiveDetectionCheckFails(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster")
	}
	c, err := startCluster(t.TempDir() + "/s.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.timeCrash(firstCycler, func() {}); err == nil {
		t.Error("a node that never crashed passed the detection check")
	}
	if _, err := c.timeCrash(nodeA, c.a.Crash); err != nil {
		t.Errorf("B missed the crash of A: %v", err)
	}
}

func TestCaptureChecksFail(t *testing.T) {
	net := buildCANELy(5, canely.SubstrateFast, nil, true)
	net.Run(200 * time.Millisecond)
	log := net.EventLog()
	if err := log.Verify(); err != nil {
		t.Fatalf("clean capture failed replay.Verify: %v", err)
	}
	if _, err := restep(log, 0, 0); err != nil {
		t.Fatalf("clean capture failed the re-step: %v", err)
	}
	tampered := false
	for i := range log.Records {
		if cmds := log.Records[i].Commands; len(cmds) > 0 {
			cmds[0].Delay++
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("capture holds no command")
	}
	if log.Verify() == nil {
		t.Error("a tampered capture passed replay.Verify")
	}
	if _, err := restep(log, 0, 0); err == nil {
		t.Error("a tampered capture passed the re-step")
	}
}

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	var seed uint64
	if n := testing.AllocsPerRun(50, func() { k.op(seed); seed++ }); n != 0 {
		t.Errorf("reference operation allocates %v objects", n)
	}
}
