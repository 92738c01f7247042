package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/safecross"
	"safecross/internal/telemetry"
)

// testNode is one fleet member under test: an rsu.Server plus an
// Agent whose runner broadcasts advisories for every owned
// intersection so vehicle-side continuity is observable.
type testNode struct {
	id    string
	srv   *rsu.Server
	agent *Agent
}

func startNode(t *testing.T, id string, reg *telemetry.Registry, coordAddrs ...string) *testNode {
	t.Helper()
	srv, err := rsu.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("rsu listen: %v", err)
	}
	runner := func(ctx context.Context, intersection int) {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		frame := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				frame++
				srv.Broadcast(rsu.IntersectionAdvisory(intersection, frame, &safecross.Decision{Ready: true, Safe: true}))
			}
		}
	}
	tt := testTimings()
	agent, err := NewAgent(id, srv,
		WithCoordinators(coordAddrs...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithRunner(runner),
		WithMetrics(reg))
	if err != nil {
		srv.Close()
		t.Fatalf("NewAgent(%s): %v", id, err)
	}
	return &testNode{id: id, srv: srv, agent: agent}
}

// coverage reports whether the nodes' owned sets are disjoint and
// together cover exactly keys.
func coverage(nodes []*testNode, keys []int) bool {
	seen := map[int]int{}
	for _, n := range nodes {
		for _, i := range n.agent.Owned() {
			seen[i]++
		}
	}
	if len(seen) != len(keys) {
		return false
	}
	for _, k := range keys {
		if seen[k] != 1 {
			return false
		}
	}
	return true
}

// TestFleetFailover is the tentpole scenario end to end: three nodes
// share eight intersections; one node crashes; the survivors absorb
// its shards; and a vehicle subscribed to one of the dead node's
// intersections keeps receiving advisories after riding the redirect
// chain to the new owner.
func TestFleetFailover(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tt := testTimings()
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	nodes := []*testNode{
		startNode(t, "n0", reg, coord.Addr()),
		startNode(t, "n1", reg, coord.Addr()),
		startNode(t, "n2", reg, coord.Addr()),
	}
	defer func() {
		for _, n := range nodes {
			n.agent.Close()
			n.srv.Close()
		}
	}()
	// Coverage alone also holds while the third node has yet to join
	// the assignment: two nodes can cover every key. The victim is
	// picked from the assignment below, so wait until it is settled —
	// all three nodes live in it and every agent at its epoch — or a
	// later rebalance can move target off the victim before the kill.
	waitFor(t, "a settled assignment over 3 nodes", func() bool {
		states, epoch := coord.States(), coord.Epoch()
		for _, n := range nodes {
			if st, ok := states[n.id]; !ok || st != Live || n.agent.Epoch() != epoch {
				return false
			}
		}
		return coverage(nodes, keys)
	})

	// Pick an intersection served by a node we will kill, and
	// subscribe a vehicle to it through the retry client seeded with
	// every node (any seed can redirect to the owner).
	target := keys[0]
	victimID := coord.Assignments()[target]
	var victim *testNode
	survivors := make([]*testNode, 0, len(nodes)-1)
	seeds := make([]string, 0, len(nodes))
	for _, n := range nodes {
		seeds = append(seeds, n.srv.Addr())
		if n.id == victimID {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	if victim == nil {
		t.Fatalf("intersection %d owned by unknown node %q", target, victimID)
	}
	cli, err := rsu.DialRetry(rsu.RetryConfig{
		Seeds:        seeds,
		Vehicle:      "veh-1",
		Intersection: target,
		BackoffBase:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer cli.Close()
	// afterReconnect counts only advisories read once the client has
	// re-attached: ones the dead server sent before it died can still
	// sit in the client's buffer after the kill.
	var advisories, afterReconnect atomic.Int64
	var server atomic.Value // the Addr of the last welcome: the client's current server
	go func() {
		for msg := range cli.Messages() {
			if msg.Type == rsu.TypeWelcome {
				server.Store(msg.Addr)
			}
			if msg.Type != rsu.TypeAdvisory || msg.Intersection != target {
				continue
			}
			advisories.Add(1)
			if cli.Reconnects() >= 1 {
				afterReconnect.Add(1)
			}
		}
	}()
	// where says, on a timed-out wait, which server the client is on and
	// which node the coordinator has serving target.
	where := func() string {
		on, owner := fmt.Sprint(server.Load()), coord.Assignments()[target]
		for _, n := range nodes {
			if n.srv.Addr() == on {
				on += " (" + n.id + ")"
			}
			if n.id == owner {
				owner += " at " + n.srv.Addr()
			}
		}
		return fmt.Sprintf("client on %s after %d reconnects, %d advisories (%d after a reconnect); coordinator owner of %d is %s",
			on, cli.Reconnects(), advisories.Load(), afterReconnect.Load(), target, owner)
	}
	waitForExplained(t, "advisories before the kill", func() bool { return advisories.Load() >= 3 }, where)

	// Crash the victim: agent and rsu server die together, no drain.
	victim.agent.Close()
	victim.srv.Close()

	waitFor(t, "survivors cover every intersection", func() bool {
		return coverage(survivors, keys)
	})
	if got := reg.Counter("fleet_failovers_total", "").Value(); got != 1 {
		t.Fatalf("failovers = %d; want 1", got)
	}
	waitForExplained(t, "advisories after the reconnect", func() bool { return afterReconnect.Load() >= 3 }, where)
	if cli.Err() != nil {
		t.Fatalf("client hit terminal error: %v", cli.Err())
	}
	if cli.Reconnects() < 1 {
		t.Fatalf("client reports %d reconnects after its server died", cli.Reconnects())
	}
}

// TestAgentDrainHandoff: a graceful leave moves shards with zero
// failovers, the drainer ends owning nothing, and Drain returns once
// the handoff is complete.
func TestAgentDrainHandoff(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6}
	tt := testTimings()
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	a := startNode(t, "a", reg, coord.Addr())
	b := startNode(t, "b", reg, coord.Addr())
	defer func() {
		for _, n := range []*testNode{a, b} {
			n.agent.Close()
			n.srv.Close()
		}
	}()
	waitFor(t, "both nodes covering all intersections", func() bool {
		return coverage([]*testNode{a, b}, keys)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.agent.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if owned := a.agent.Owned(); len(owned) != 0 {
		t.Fatalf("drained agent still owns %v", owned)
	}
	waitFor(t, "survivor owns everything", func() bool {
		got := b.agent.Owned()
		return len(got) == len(keys) && sort.IntsAreSorted(got)
	})
	if got := reg.Counter("fleet_failovers_total", "").Value(); got != 0 {
		t.Fatalf("graceful drain counted %d failovers; want 0", got)
	}
	if got := reg.Counter("fleet_drains_total", "").Value(); got != 1 {
		t.Fatalf("drains = %d; want 1", got)
	}
	if coord.States()["a"] != Dead {
		t.Fatalf("drained node state = %v; want dead tombstone", coord.States()["a"])
	}
}

// TestAgentSurvivesCoordinatorLoss: losing the control plane must not
// stop the data plane — the agent keeps serving its last assignment
// and quietly redials.
func TestAgentSurvivesCoordinatorLoss(t *testing.T) {
	keys := []int{1, 2, 3}
	tt := testTimings()
	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	n := startNode(t, "solo", nil, coord.Addr())
	defer func() {
		n.agent.Close()
		n.srv.Close()
	}()
	waitFor(t, "solo node owning everything", func() bool {
		return len(n.agent.Owned()) == len(keys)
	})

	coord.Close()
	// Give the agent several heartbeat intervals to notice and (fail
	// to) redial: ownership must not change.
	time.Sleep(6 * testTimings().HeartbeatEvery)
	if got := n.agent.Owned(); len(got) != len(keys) {
		t.Fatalf("agent dropped shards when the coordinator died: owns %v", got)
	}
}
