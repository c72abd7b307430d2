package explore

import (
	"context"
	"testing"
	"time"

	"canely/internal/can"
)

// TestGossipScenarioExhausts runs the SWIM join+crash scenario through the
// unchanged engine — fingerprint pruning, sleep-set POR and
// checkpoint-and-branch all active — and checks the depth-bounded schedule
// tree exhausts with zero violations: under the bounded-delay model
// (Ttd < AckTimeout, so acks beat their probe timers) the gossip lattice
// converges on every explored schedule, crash or no crash.
func TestGossipScenarioExhausts(t *testing.T) {
	sc := DefaultGossipScenario()
	e, err := New(Config{Scenario: sc, Workers: 4, Prune: true, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("schedule %v violates the gossip properties: %s", res.Violation.Vec, res.Violation.Msg)
	}
	if !res.Exhausted {
		t.Fatalf("frontier not exhausted (outstanding=%d)", res.Frontier)
	}
	if res.CrashSchedules == 0 {
		t.Fatal("no schedule exercised the crash branch")
	}
	if res.Pruned == 0 || res.Snapshots == 0 {
		t.Fatalf("pruning/checkpointing inactive: pruned=%d snapshots=%d", res.Pruned, res.Snapshots)
	}
	t.Logf("exhausted: %d runs (%d schedules, %d crash, %d pruned, %d distinct states)",
		res.Runs(), res.Schedules, res.CrashSchedules, res.Pruned, res.Distinct)
}

// TestGossipFaultCounterexample injects a reception fault outside the
// model (the joiner silently misses every gossip datagram, so it can never
// learn the view) and checks the counterexample pipeline over gossip
// cores: the violation is found, captured as a replay log, and the log
// re-executes byte-for-byte against fresh gossip cores.
func TestGossipFaultCounterexample(t *testing.T) {
	sc := DefaultGossipScenario()
	sc.Drop = true
	sc.DropNode = 2
	sc.DropType = can.TypeGossip
	e, err := New(Config{Scenario: sc, Workers: 2, Target: 200000, Prune: true, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatalf("no violation in %d runs: a deaf joiner cannot converge", res.Runs())
	}
	if len(v.Log.Records) == 0 {
		t.Fatal("counterexample log is empty")
	}
	if err := v.Log.Verify(); err != nil {
		t.Fatalf("gossip counterexample does not re-execute: %v", err)
	}
	t.Logf("violation after %d runs: %s (|vec|=%d, %d records)",
		res.Runs(), v.Msg, len(v.Vec), len(v.Log.Records))
}

// TestGossipSnapshotSoundness pins checkpoint-and-branch over SWIM cores:
// snapshots on and off walk the identical reduced tree at depth 10, with
// its absolute single-worker counts pinned (see checkSnapshotAB).
func TestGossipSnapshotSoundness(t *testing.T) {
	sc := DefaultGossipScenario()
	sc.MaxDepth = 10
	checkSnapshotAB(t, sc, true, true, [5]uint64{588, 476, 388, 0, 494})
}
