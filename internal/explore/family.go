package explore

import (
	"fmt"
	"time"
	"unsafe"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/gossip"
	"canely/internal/replay"
	"canely/internal/sim"
)

// Family is the protocol family a scenario's nodes run. System is blind to
// it: it steps every node's proto.Core, routes frames by their MID type,
// and asks the family every protocol-specific question — how to build,
// copy and judge a core.
type Family interface {
	// Validate rejects an unusable protocol configuration.
	Validate() error
	// NewCore builds node id's core at its initial state and, when rec is
	// non-nil, registers its configuration on the replay log.
	NewCore(id can.NodeID, rec *replay.Log) (proto.Core, error)
	// JoinEvent is the event a joiner consumes at t=0.
	JoinEvent(bootstrap can.NodeSet) proto.Event
	// Safe asserts the per-step invariant on every surviving core
	// (alive[n] for cores[n]). It takes the whole system in one call
	// because it runs after every step.
	Safe(cores []proto.Core, alive []bool) error
	// Terminal asserts liveness and agreement at the end of a schedule:
	// every surviving core converged on exactly the view want.
	Terminal(cores []proto.Core, alive []bool, want can.NodeSet) error
	// Quiescent answers the settle shortcut (see System.quiescent): ok
	// reports whether the surviving cores (alive[n] for cores[n]) sit in a
	// steady state from which no action can change the terminal verdict
	// for view want, provided every pending frame is of type steady.
	Quiescent(cores []proto.Core, alive []bool, want can.NodeSet) (ok bool, steady can.MsgType)
	// Clone returns an independent deep copy of c; Restore overwrites dst
	// with a deep copy of src, reusing dst's storage.
	Clone(c proto.Core) proto.Core
	Restore(dst, src proto.Core)
	// CoreBytes is the flat footprint of one core, which sizeBytes charges
	// per node against the snapshot budget.
	CoreBytes() int
}

// DefaultScenario returns the 3-node join+crash scenario the original
// in-test explorer searched: nodes 0,1 bootstrap a pre-agreed view, node 2
// requests to join, node 1 may crash up to 150ms in.
func DefaultScenario() Scenario {
	return Scenario{
		Nodes: 3,
		Family: Canely(core.Config{
			FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
			Membership: membership.Config{
				Tm:        50 * time.Millisecond,
				TjoinWait: 120 * time.Millisecond,
				RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
			},
		}),
		Bootstrap: can.MakeSet(0, 1),
		Joiners:   can.MakeSet(2),
		Crash:     1,
		HasCrash:  true,
		CrashBy:   sim.Time(150 * time.Millisecond),
		End:       sim.Time(500 * time.Millisecond),
		Settle:    400 * time.Millisecond,
		MaxSteps:  6000,
		MaxDepth:  25,
		Ttd:       2 * time.Millisecond,
		Skew:      time.Millisecond,
	}
}

// DefaultGossipScenario returns the SWIM analogue of the default
// join+crash scenario: nodes 0,1 bootstrap, node 2 joins through them,
// node 1 may crash up to 80ms in. The timing respects the soundness
// argument of the bounded-delay model: Ttd < AckTimeout, so an in-flight
// ack always lands before the probe timer that would falsely expire on it,
// and the only suspicion the search can produce is the real crash.
func DefaultGossipScenario() Scenario {
	return Scenario{
		Nodes: 3,
		Family: SWIM(gossip.Config{
			Period:         20 * time.Millisecond,
			AckTimeout:     5 * time.Millisecond,
			SuspectTimeout: 60 * time.Millisecond,
			Fanout:         1,
			Retransmit:     3,
		}),
		Bootstrap: can.MakeSet(0, 1),
		Joiners:   can.MakeSet(2),
		Crash:     1,
		HasCrash:  true,
		CrashBy:   sim.Time(80 * time.Millisecond),
		End:       sim.Time(200 * time.Millisecond),
		Settle:    300 * time.Millisecond,
		MaxSteps:  6000,
		MaxDepth:  25,
		Ttd:       2 * time.Millisecond,
		Skew:      time.Millisecond,
	}
}

// Canely returns the family of the paper's composite protocol cores
// (core.Node: FDA, failure detector, site membership and RHA), every node
// configured by cfg.
func Canely(cfg core.Config) Family { return &canelyFamily{cfg: cfg} }

type canelyFamily struct{ cfg core.Config }

func (f *canelyFamily) Validate() error { return f.cfg.FD.Validate() }

func (f *canelyFamily) NewCore(id can.NodeID, rec *replay.Log) (proto.Core, error) {
	n, err := core.New(id, f.cfg)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.Register(id, f.cfg)
	}
	return n, nil
}

// JoinEvent carries no view: the CANELy joiner broadcasts a join sign.
func (*canelyFamily) JoinEvent(can.NodeSet) proto.Event { return proto.Event{Kind: proto.EvJoin} }

// Safe asserts that a full member's view contains itself.
func (*canelyFamily) Safe(cores []proto.Core, alive []bool) error {
	for n, c := range cores {
		m := c.(*core.Node).Msh
		if alive[n] && m.Member() && !m.View().Contains(can.NodeID(n)) {
			return fmt.Errorf("node %v is a member of a view %v omitting itself", can.NodeID(n), m.View())
		}
	}
	return nil
}

func (*canelyFamily) Terminal(cores []proto.Core, alive []bool, want can.NodeSet) error {
	for n, c := range cores {
		if !alive[n] {
			continue
		}
		m := c.(*core.Node).Msh
		if !m.Member() {
			return fmt.Errorf("node %v never (re)integrated; view=%v", can.NodeID(n), m.View())
		}
		if got := m.View(); got != want {
			return fmt.Errorf("node %v converged on %v, want %v", can.NodeID(n), got, want)
		}
	}
	return nil
}

// Quiescent holds when every surviving node is an integrated member of
// exactly the expected view, no membership cycle carries pending work (Rj,
// Rl and the failed set all empty), no RHA execution is running and no FDA
// agreement is in flight; the steady frame type is the explicit life-sign.
//
// In that state the only future actions are ELS deliveries, FD scan
// firings that re-arm themselves, and membership cycles over empty sets —
// none of which touches a view. A node's life-sign is always delivered
// before the remote surveillance timer that would expire on it fires
// (frames precede timers in deterministic order, and the Ttd horizon holds
// every timer back until the queue drains), so no false suspicion can
// arise either. TestSettleShortcutSound pins this argument against the
// full settle run.
func (*canelyFamily) Quiescent(cores []proto.Core, alive []bool, want can.NodeSet) (bool, can.MsgType) {
	for n, c := range cores {
		nd := c.(*core.Node)
		if alive[n] && (!nd.Msh.Member() || nd.Msh.View() != want || !nd.Msh.Quiescent() ||
			nd.RHA.Running() || !nd.Det.Quiet()) {
			return false, 0
		}
	}
	return true, can.TypeELS
}

func (*canelyFamily) Clone(c proto.Core) proto.Core { return c.(*core.Node).Clone() }

func (*canelyFamily) Restore(dst, src proto.Core) { dst.(*core.Node).Restore(src.(*core.Node)) }

// canelyCoreBytes is the flat footprint of one composite core and its four
// sub-cores. The RHA duplicate-counter maps are typically empty at
// checkpoint time and are ignored.
const canelyCoreBytes = int(unsafe.Sizeof(core.Node{}) + unsafe.Sizeof(fd.FDA{}) +
	unsafe.Sizeof(fd.Detector{}) + unsafe.Sizeof(membership.Protocol{}) +
	unsafe.Sizeof(membership.RHA{}))

func (*canelyFamily) CoreBytes() int { return canelyCoreBytes }

// SWIM returns the family of the SWIM gossip baseline (gossip.Core), every
// node configured by cfg. Its traffic is can.TypeGossip datagrams, which
// System delivers unicast to their destination (the datagram substrate's
// routing) with no observation notification.
func SWIM(cfg gossip.Config) Family { return &swimFamily{cfg: cfg} }

type swimFamily struct{ cfg gossip.Config }

func (f *swimFamily) Validate() error { return f.cfg.Validate() }

func (f *swimFamily) NewCore(id can.NodeID, rec *replay.Log) (proto.Core, error) {
	g, err := gossip.New(id, f.cfg)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.RegisterGossip(id, f.cfg)
	}
	return g, nil
}

// JoinEvent seeds the joiner with the bootstrap members as its
// introduction contacts.
func (*swimFamily) JoinEvent(bootstrap can.NodeSet) proto.Event {
	return proto.Event{Kind: proto.EvJoin, View: bootstrap}
}

// Safe asserts the gossip lattice invariants: a node never evicts itself,
// suspects only members, and never holds a node both dead and member.
func (*swimFamily) Safe(cores []proto.Core, alive []bool) error {
	for n, c := range cores {
		if !alive[n] {
			continue
		}
		id, g := can.NodeID(n), c.(*gossip.Core)
		if !g.View().Contains(id) {
			return fmt.Errorf("gossip node %v evicted itself from its view %v", id, g.View())
		}
		if bad := g.Suspects() &^ g.View(); bad != 0 {
			return fmt.Errorf("gossip node %v suspects non-members %v", id, bad)
		}
		if bad := g.Dead() & g.View(); bad != 0 {
			return fmt.Errorf("gossip node %v holds %v both dead and member", id, bad)
		}
	}
	return nil
}

func (*swimFamily) Terminal(cores []proto.Core, alive []bool, want can.NodeSet) error {
	for n, c := range cores {
		if !alive[n] {
			continue
		}
		id, g := can.NodeID(n), c.(*gossip.Core)
		if got := g.View(); got != want {
			return fmt.Errorf("gossip node %v converged on %v, want %v", id, got, want)
		}
		if !g.Suspects().Empty() {
			return fmt.Errorf("gossip node %v still suspects %v at the horizon", id, g.Suspects())
		}
	}
	return nil
}

// Quiescent is always false: SWIM has no frame-free steady state — probe
// traffic never ceases, and any in-flight piggyback could still start a
// (refutable) suspicion — so the settle phase runs to its horizon.
func (*swimFamily) Quiescent([]proto.Core, []bool, can.NodeSet) (bool, can.MsgType) { return false, 0 }

func (*swimFamily) Clone(c proto.Core) proto.Core { return c.(*gossip.Core).Clone() }

func (*swimFamily) Restore(dst, src proto.Core) { dst.(*gossip.Core).Restore(src.(*gossip.Core)) }

func (*swimFamily) CoreBytes() int { return int(unsafe.Sizeof(gossip.Core{})) }
