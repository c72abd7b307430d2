package replay

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/gossip"
	"canely/internal/sim"
)

// TestGossipLogRoundTrips drives a SWIM gossip core, records its
// event/command streams, and checks that the capture saves, loads and
// verifies command-for-command on a fresh core — the property that lets
// the explorer hand counterexample schedules over gossip scenarios to the
// replay harness unchanged.
func TestGossipLogRoundTrips(t *testing.T) {
	cfg := gossip.Config{
		Period:         20 * time.Millisecond,
		AckTimeout:     5 * time.Millisecond,
		SuspectTimeout: 120 * time.Millisecond,
		Fanout:         2,
		Retransmit:     3,
	}
	g, err := gossip.New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := New()
	log.RegisterGossip(0, cfg)
	step := func(ev proto.Event) {
		log.Append(0, ev, fptest.Feed(g, ev))
	}
	at := func(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }
	step(proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1, 2)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipTick, At: at(20)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipAck, At: at(25)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipTick, At: at(40)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipSuspect, At: at(200)})
	step(proto.Event{Kind: proto.EvLeave, At: at(210)})
	if len(log.Records) == 0 {
		t.Fatal("no records captured")
	}

	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("gossip capture does not replay: %v", err)
	}

	rendered := loaded.Render()
	for _, want := range []string{
		"bootstrap",
		"send-data GOSSIP",
		"set-timer gossip-tick",
		"set-timer gossip-ack",
		"failed", // the suspect scan confirmed an unresponsive peer
		"leave-req",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

// TestVerifyRejectsDuplicateNode pins that a log registering one node id
// twice — here a composite core and a gossip core under id 0 — fails with
// an error naming the id, instead of replaying against whichever
// configuration happened to be registered last.
func TestVerifyRejectsDuplicateNode(t *testing.T) {
	ccfg := core.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
	}
	n, err := core.New(0, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	log := New()
	log.Register(0, ccfg)
	log.RegisterGossip(0, gossip.Config{
		Period: 20 * time.Millisecond, AckTimeout: 5 * time.Millisecond,
		SuspectTimeout: 60 * time.Millisecond, Fanout: 1, Retransmit: 3,
	})
	ev := proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1)}
	log.Append(0, ev, fptest.Feed(n, ev))
	err = log.Verify()
	if err == nil || !strings.Contains(err.Error(), "node "+can.NodeID(0).String()+" registered twice") {
		t.Fatalf("duplicate registration of node 0: got %v", err)
	}
}
