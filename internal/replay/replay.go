// Package replay records the event/command streams of the sans-I/O
// protocol cores during a live run and deterministically re-executes them.
//
// Because a core is pure — a proto.Core consumes events through StepInto
// and holds no scheduler, bus or trace handles — its entire behaviour is a
// function of its configuration and the event sequence it consumed. A Log captures both; Verify rebuilds
// fresh cores from the recorded configurations, pumps the recorded events
// through them in order, and asserts command-for-command equality with the
// recorded outputs. Any divergence (a non-deterministic core, an unrecorded
// input, a behaviour change between versions) is reported with its exact
// position.
//
// Logs serialize to JSON (Save/Load), so a capture from one binary can be
// re-verified by another — the regression harness behind golden traces and
// `canelysim -record/-replay`.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/gossip"
)

// NodeConfig is the recorded configuration of one node's core: a composite
// protocol core (Core), a gateway's federation core (Fed) or a SWIM
// gossip core (Gossip) — exactly one is set.
type NodeConfig struct {
	ID     can.NodeID         `json:"id"`
	Core   *core.Config       `json:"core,omitempty"`
	Fed    *federation.Config `json:"fed,omitempty"`
	Gossip *gossip.Config     `json:"gossip,omitempty"`
}

// Record is one step of one node: the event consumed and the fully-routed
// command stream it produced.
type Record struct {
	Node     can.NodeID      `json:"node"`
	Event    proto.Event     `json:"event"`
	Commands []proto.Command `json:"commands,omitempty"`
}

// Log is a captured run: the core configurations plus the global,
// delivery-ordered record sequence.
type Log struct {
	Nodes   []NodeConfig `json:"nodes"`
	Records []Record     `json:"records"`
}

// New creates an empty log.
func New() *Log { return &Log{} }

// Register adds a node's composite-core configuration. Must be called
// before any of the node's records are appended.
func (l *Log) Register(id can.NodeID, cfg core.Config) {
	l.Nodes = append(l.Nodes, NodeConfig{ID: id, Core: &cfg})
}

// RegisterFed adds a gateway's federation-core configuration. Must be
// called before any of the gateway's records are appended. Gateway and
// node ids share one namespace per log; drivers keep separate logs when
// they collide.
func (l *Log) RegisterFed(id can.NodeID, cfg federation.Config) {
	l.Nodes = append(l.Nodes, NodeConfig{ID: id, Fed: &cfg})
}

// RegisterGossip adds a node's gossip-core configuration. Must be called
// before any of the node's records are appended.
func (l *Log) RegisterGossip(id can.NodeID, cfg gossip.Config) {
	l.Nodes = append(l.Nodes, NodeConfig{ID: id, Gossip: &cfg})
}

// Append records one step. The command slice is copied: callers (the stack
// binding) hand in views of reused buffers that are invalid past the call.
// Recording is a diagnostic mode, so this cold-path allocation is fine.
func (l *Log) Append(id can.NodeID, ev proto.Event, cmds []proto.Command) {
	var copied []proto.Command
	if len(cmds) > 0 {
		copied = make([]proto.Command, len(cmds))
		copy(copied, cmds)
	}
	l.Records = append(l.Records, Record{Node: id, Event: ev, Commands: copied})
}

// Save writes the log as indented JSON.
func (l *Log) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// Load reads a log written by Save.
func Load(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("replay: decoding log: %w", err)
	}
	return &l, nil
}

// Verify re-executes the log on fresh cores and checks command-for-command
// equality. It returns nil when the replay reproduces the capture exactly.
// A log that registers one node id twice is rejected: logs come from
// files, and the second configuration would silently replace the first.
func (l *Log) Verify() error {
	nodes := make(map[can.NodeID]proto.Core, len(l.Nodes))
	for _, nc := range l.Nodes {
		if nodes[nc.ID] != nil {
			return fmt.Errorf("replay: node %v registered twice", nc.ID)
		}
		switch {
		case nc.Fed != nil:
			n, err := federation.New(*nc.Fed)
			if err != nil {
				return fmt.Errorf("replay: rebuilding federation core %v: %w", nc.ID, err)
			}
			nodes[nc.ID] = n
		case nc.Core != nil:
			n, err := core.New(nc.ID, *nc.Core)
			if err != nil {
				return fmt.Errorf("replay: rebuilding core %v: %w", nc.ID, err)
			}
			nodes[nc.ID] = n
		case nc.Gossip != nil:
			n, err := gossip.New(nc.ID, *nc.Gossip)
			if err != nil {
				return fmt.Errorf("replay: rebuilding gossip core %v: %w", nc.ID, err)
			}
			nodes[nc.ID] = n
		default:
			return fmt.Errorf("replay: node %v registered without a core configuration", nc.ID)
		}
	}
	var buf proto.CommandBuf
	for i, rec := range l.Records {
		n := nodes[rec.Node]
		if n == nil {
			return fmt.Errorf("replay: record %d references unregistered node %v", i, rec.Node)
		}
		buf.Reset()
		n.StepInto(rec.Event, &buf)
		got := buf.Commands()
		if len(got) != len(rec.Commands) {
			return fmt.Errorf("replay: record %d (node %v, %v): %d commands, recorded %d\n got: %v\nwant: %v",
				i, rec.Node, rec.Event, len(got), len(rec.Commands), got, rec.Commands)
		}
		for j := range got {
			if got[j] != rec.Commands[j] {
				return fmt.Errorf("replay: record %d (node %v, %v) command %d:\n got: %v\nwant: %v",
					i, rec.Node, rec.Event, j, got[j], rec.Commands[j])
			}
		}
	}
	return nil
}

// Render formats the record stream as stable text, one line per record —
// the byte-exact form golden-trace tests pin.
func (l *Log) Render() string {
	var sb strings.Builder
	for _, rec := range l.Records {
		fmt.Fprintf(&sb, "%v n%02d %v", rec.Event.At, int(rec.Node), rec.Event)
		for _, c := range rec.Commands {
			fmt.Fprintf(&sb, " | %v", c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
