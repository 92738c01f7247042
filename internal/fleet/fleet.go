// Package fleet is the distribution layer above SafeCross's serving
// plane: it turns a set of independent RSU processes into one
// fault-tolerant deployment that keeps every intersection's warning
// stream alive when a node crashes, hangs, or partitions.
//
// The subsystem has two halves:
//
//   - A Coordinator owns the intersection→node assignment. Placement
//     uses rendezvous (highest-random-weight) hashing over the live
//     node set, so a membership change moves only the shards that
//     must move. Liveness is heartbeat-based with a suspect→dead
//     escalation: a node whose heartbeats stop is first suspected
//     (still owns its shards — it may just be slow), then declared
//     dead, at which point its intersections are re-sharded onto the
//     survivors and fresh assignments are pushed to every live node.
//     A heartbeat arriving from a node already declared dead is
//     rejected with a redirect back to the coordinator — the node
//     must rejoin as a newcomer, because its shards already belong to
//     someone else.
//
//   - An Agent runs beside each RSU process. It registers with the
//     coordinator, heartbeats on an interval (measuring RTT), and
//     applies assignment pushes: starting a runner goroutine per
//     newly owned intersection, cancelling runners for shards that
//     moved away, updating the wrapped rsu.Server's routing table
//     (so misdirected vehicles get redirected), and telling
//     already-subscribed vehicles where their intersection went.
//     Losing the coordinator connection does not stop serving — the
//     agent keeps its current shards and redials with backoff, so a
//     coordinator restart is invisible to traffic.
//
// The control plane speaks the rsu wire protocol (heartbeat, assign,
// redirect messages as newline-delimited JSON over TCP), so one
// message vocabulary covers both vehicles and fleet internals.
package fleet

import (
	"fmt"
	"time"

	"safecross/internal/telemetry"
)

const (
	// pushTimeout bounds each coordinator write (assignment, ack,
	// replicate, vote) and each dial to a standby peer; a peer that
	// cannot be written to is left to the heartbeat detector.
	pushTimeout = 2 * time.Second
	// dialTimeout bounds each agent dial to a coordinator seed and
	// each agent control write.
	dialTimeout = 2 * time.Second
)

// NodeState is the coordinator's liveness verdict for one node.
type NodeState int

const (
	// Live nodes heartbeat within SuspectAfter.
	Live NodeState = iota
	// Suspect nodes missed heartbeats past SuspectAfter but keep
	// their shards — they may merely be slow or briefly partitioned.
	Suspect
	// Dead nodes missed heartbeats past DeadAfter (or drained away);
	// their shards have been reassigned and any late heartbeat is
	// rejected.
	Dead
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Timings groups the failure-detection clock: how often agents
// heartbeat and how long silence lasts before suspicion and death.
type Timings struct {
	// HeartbeatEvery is the agent's ping interval (default 250ms).
	HeartbeatEvery time.Duration
	// SuspectAfter is silence before a node is suspected (default
	// 3 × HeartbeatEvery).
	SuspectAfter time.Duration
	// DeadAfter is silence before a node is declared dead and its
	// shards move (default 6 × HeartbeatEvery).
	DeadAfter time.Duration
}

// withDefaults fills zero fields.
func (t Timings) withDefaults() Timings {
	if t.HeartbeatEvery <= 0 {
		t.HeartbeatEvery = 250 * time.Millisecond
	}
	if t.SuspectAfter <= 0 {
		t.SuspectAfter = 3 * t.HeartbeatEvery
	}
	if t.DeadAfter <= 0 {
		t.DeadAfter = 6 * t.HeartbeatEvery
	}
	return t
}

// validate rejects clocks that cannot detect anything.
func (t Timings) validate() error {
	if t.SuspectAfter < t.HeartbeatEvery {
		return fmt.Errorf("fleet: suspect-after %v below heartbeat interval %v", t.SuspectAfter, t.HeartbeatEvery)
	}
	if t.DeadAfter < t.SuspectAfter {
		return fmt.Errorf("fleet: dead-after %v below suspect-after %v", t.DeadAfter, t.SuspectAfter)
	}
	return nil
}

// nopIfNil returns a usable registry: metrics code never branches on
// wiring.
func nopIfNil(reg *telemetry.Registry) *telemetry.Registry {
	if reg == nil {
		return telemetry.NewRegistry()
	}
	return reg
}
